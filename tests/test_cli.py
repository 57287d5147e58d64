"""Command-line interface: exit codes, diagnostics, outputs, determinism."""

import json

import pytest

from memsched import (
    CycleDetected,
    DuplicateWriter,
    FormatError,
    UndefinedData,
    UnknownOpcode,
    parse_dfg,
)
from memsched.cli import main
from memsched.fixtures import fixture_text, load_library


@pytest.fixture
def inputs(tmp_path):
    """Fixture documents copied to disk plus a place to write results."""
    paths = {}
    for name in (
        "dsp.lib.json",
        "fir4.dfg.json",
        "fir16.dfg.json",
        "fir16.map.json",
        "two_adds_one_bank.dfg.json",
        "two_adds_one_bank.map.json",
    ):
        p = tmp_path / name
        p.write_text(fixture_text(name), encoding="utf-8")
        paths[name] = str(p)
    paths["out"] = str(tmp_path / "out")
    paths["tmp"] = tmp_path
    return paths


def test_validate_clean_inputs(inputs, capsys):
    rc = main(
        [
            "validate",
            "--dfg", inputs["two_adds_one_bank.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", inputs["two_adds_one_bank.map.json"],
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""


def test_validate_unmapped_data_line(inputs, capsys):
    mapping = json.loads(fixture_text("two_adds_one_bank.map.json"))
    del mapping["default"]
    mapping["place"] = {"a": "M0", "b": "M0", "x": "REGISTER", "y": "REGISTER"}
    bad = inputs["tmp"] / "partial.map.json"
    bad.write_text(json.dumps(mapping), encoding="utf-8")
    rc = main(
        [
            "validate",
            "--dfg", inputs["two_adds_one_bank.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", str(bad),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.err.splitlines()
    assert "ERROR UnmappedData: u" in lines
    assert all(line.startswith("ERROR ") for line in lines)


def test_validate_missing_file_is_exit_2(inputs, capsys):
    rc = main(
        [
            "validate",
            "--dfg", str(inputs["tmp"] / "nope.json"),
            "--library", inputs["dsp.lib.json"],
        ]
    )
    assert rc == 2


def test_validate_bad_json_is_exit_2(inputs, capsys):
    bad = inputs["tmp"] / "broken.json"
    bad.write_text("{", encoding="utf-8")
    rc = main(["validate", "--dfg", str(bad), "--library", inputs["dsp.lib.json"]])
    assert rc == 2


def test_validate_semantic_parse_error_is_exit_1(inputs, capsys):
    doc = json.loads(fixture_text("fir4.dfg.json"))
    doc["ops"][0]["opcode"] = "bogus"
    bad = inputs["tmp"] / "badop.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["validate", "--dfg", str(bad), "--library", inputs["dsp.lib.json"]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("ERROR UnknownOpcode:")


def test_schedule_fir4_at_critical_path_with_ample_allocation(inputs, capsys):
    rc = main(
        [
            "schedule",
            "--dfg", inputs["fir4.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--T", "5",
            "--alloc", "mul=4",
            "--alloc", "alu=3",
            "--out", inputs["out"],
        ]
    )
    assert rc == 0
    doc = json.loads((inputs["tmp"] / "out" / "schedule.json").read_text())
    assert doc["policy"] == "baseline"
    assert doc["makespan"] == 5  # critical path: one mul plus three adds
    for name in ("schedule.json", "metrics.json", "gantt.svg", "schedule.csv"):
        assert (inputs["tmp"] / "out" / name).exists()


# str.isdigit holds for "²" (which int() rejects) and for Arabic-Indic digits
# (which int() reads as 3 and 12): a count is ASCII digits only
@pytest.mark.parametrize("value", ["alu", "=2", "alu=", "alu=0", "alu=-1", "alu=x", "alu=²",
                                   "alu=٣", "mul=١٢"])
def test_malformed_alloc_is_exit_2(inputs, capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["schedule", "--dfg", inputs["fir4.dfg.json"], "--library", inputs["dsp.lib.json"],
              "--T", "12", "--alloc", value, "--out", inputs["out"]])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert f"--alloc expects class=count with count >= 1, got {value!r}" in err, err
    assert not (inputs["tmp"] / "out").exists()


def test_schedule_memory_aware_two_adds(inputs):
    rc = main(
        [
            "schedule",
            "--dfg", inputs["two_adds_one_bank.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", inputs["two_adds_one_bank.map.json"],
            "--policy", "mem-aware",
            "--T", "4",
            "--alloc", "alu=2",
            "--out", inputs["out"],
        ]
    )
    assert rc == 0
    doc = json.loads((inputs["tmp"] / "out" / "schedule.json").read_text())
    starts = {e["op"]: e["start"] for e in doc["entries"]}
    assert starts == {"r1": 1, "r2": 2}


def test_schedule_infeasible_constraint_is_exit_1(inputs, capsys):
    rc = main(
        [
            "schedule",
            "--dfg", inputs["fir4.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--T", "1",
            "--out", inputs["out"],
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("ERROR InfeasibleConstraint:")


def test_schedule_constraint_violation_reports_suggestion(inputs, capsys):
    rc = main(
        [
            "schedule",
            "--dfg", inputs["fir16.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--T", "17",
            "--out", inputs["out"],
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("ERROR TimeConstraintViolated:")
    assert "34" in captured.err  # doubling finds a feasible constraint


def test_compare_all_registers_policies_coincide(inputs, capsys):
    rc = main(
        [
            "compare",
            "--dfg", inputs["fir4.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--default-mapping", "registers",
            "--T", "12",
            "--out", inputs["out"],
        ]
    )
    assert rc == 0
    doc = json.loads((inputs["tmp"] / "out" / "compare.json").read_text())
    assert doc["makespan_delta"] == 0
    assert doc["conflict_delta"] == 0
    assert doc["energy_delta"] == 0


def test_compare_two_adds_with_oracle_column(inputs, capsys):
    rc = main(
        [
            "compare",
            "--dfg", inputs["two_adds_one_bank.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", inputs["two_adds_one_bank.map.json"],
            "--T", "4",
            "--alloc", "alu=2",
            "--oracle",
            "--out", inputs["out"],
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads((inputs["tmp"] / "out" / "compare.json").read_text())
    assert doc["left"]["total_conflicts"] >= 1
    assert doc["right"]["total_conflicts"] == 0
    assert doc["makespan_delta"] >= 0
    assert doc["oracle_makespan"] == 3
    assert "optimal" in captured.out


def test_compare_oracle_on_large_graph_is_skipped_with_note(inputs, capsys):
    rc = main(
        [
            "compare",
            "--dfg", inputs["fir16.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", inputs["fir16.map.json"],
            "--T", "24",
            "--oracle",
            "--out", inputs["out"],
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("note: --oracle skipped, 31 operations exceed")
    assert "optimal" not in captured.out
    doc = json.loads((inputs["tmp"] / "out" / "compare.json").read_text())
    assert "oracle_makespan" not in doc


def test_compare_round_robin_default_mapping(inputs):
    # banks-only document; round-robin generates the placement; two ports per
    # bank so any two-operand fetch pair fits
    banks = {
        "banks": [
            {"id": "M0", "ports": 2, "read_latency": 1, "write_latency": 1, "level": 0},
            {"id": "M1", "ports": 2, "read_latency": 1, "write_latency": 1, "level": 0},
        ]
    }
    banks_path = inputs["tmp"] / "banks.map.json"
    banks_path.write_text(json.dumps(banks), encoding="utf-8")
    rc = main(
        [
            "compare",
            "--dfg", inputs["fir4.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", str(banks_path),
            "--default-mapping", "round-robin",
            "--T", "60",
            "--out", inputs["out"],
        ]
    )
    assert rc == 0


def test_validate_checks_the_graph_once(inputs, monkeypatch):
    import memsched.cli as cli
    import memsched.dfg as dfg

    calls = []

    def counting(original):
        def wrapper(g):
            findings = original(g)
            calls.append(findings)
            return findings
        return wrapper

    monkeypatch.setattr(dfg, "validate_dfg", counting(dfg.validate_dfg))
    monkeypatch.setattr(cli, "validate_dfg", counting(cli.validate_dfg))
    rc = main(
        [
            "validate",
            "--dfg", inputs["fir16.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", inputs["fir16.map.json"],
        ]
    )
    assert rc == 0
    # parse_dfg's check is the only one
    assert calls == [[]]


def test_compare_byte_identical_runs(inputs, capsys):
    def run(out):
        rc = main(
            [
                "compare",
                "--dfg", inputs["fir16.dfg.json"],
                "--library", inputs["dsp.lib.json"],
                "--mapping", inputs["fir16.map.json"],
                "--T", "24",
                "--out", out,
            ]
        )
        assert rc == 0
        return capsys.readouterr().out, (inputs["tmp"] / out / "compare.json").read_bytes()

    out1 = run(str(inputs["tmp"] / "o1"))
    out2 = run(str(inputs["tmp"] / "o2"))
    assert out1 == out2


@pytest.mark.parametrize("command", ["schedule", "compare"])
def test_reduction_out_of_range_is_exit_2(inputs, capsys, command):
    rc = main(
        [
            command,
            "--dfg", inputs["fir16.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", inputs["fir16.map.json"],
            "--T", "24",
            "--reduction", "0.1",
            "--out", inputs["out"],
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "[0.25, 0.50]" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["schedule", "compare"])
def test_reduction_range_reports_before_scheduling(inputs, capsys, command):
    # the discount only prices finished schedules, yet a bad one is reported
    # before a run whose mapping leaves h[0] unplaced fails to schedule
    mapping = inputs["tmp"] / "x_only.map.json"
    mapping.write_text(X_ONLY_MAPPING, encoding="utf-8")
    rc = main([command, "--dfg", inputs["fir4.dfg.json"], "--library", inputs["dsp.lib.json"],
               "--mapping", str(mapping), "--T", "12", "--reduction", "0.6",
               "--out", inputs["out"]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "[0.25, 0.50]" in err, err


def test_compare_computes_timing_once_plus_allocation_guard(inputs, monkeypatch):
    import memsched.cli as cli
    import memsched.scheduler as scheduler

    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "compute_timing", counting(cli.compute_timing))
    monkeypatch.setattr(scheduler, "compute_timing", counting(scheduler.compute_timing))
    rc = main(
        [
            "compare",
            "--dfg", inputs["fir16.dfg.json"],
            "--library", inputs["dsp.lib.json"],
            "--mapping", inputs["fir16.map.json"],
            "--T", "24",
            "--out", inputs["out"],
        ]
    )
    assert rc == 0
    # the CLI's pass is the only one: the allocation is arithmetic
    assert calls == [24]


# case -> (argv, timing passes, access models built in order, walks of an
# op's memory operands): one walk per op and mapping model, so the mapping
# check of the mem-aware path reads the model's fetch counts (fir16 has 31
# ops, two_adds_one_bank 2)
DERIVATIONS = {
    "compare": (
        ["compare", "--dfg", "fir16.dfg.json", "--mapping", "fir16.map.json", "--T", "24"],
        1, ["registers", "mapping"], 31),
    "schedule mem-aware": (
        ["schedule", "--policy", "mem-aware", "--dfg", "fir16.dfg.json",
         "--mapping", "fir16.map.json", "--T", "24"],
        1, ["mapping"], 31),
    "schedule baseline with a mapping": (
        ["schedule", "--dfg", "fir16.dfg.json", "--mapping", "fir16.map.json", "--T", "24"],
        1, ["registers", "mapping"], 31),
    # the oracle derives its own bound and model at its T_max
    "compare with the oracle": (
        ["compare", "--dfg", "two_adds_one_bank.dfg.json",
         "--mapping", "two_adds_one_bank.map.json", "--T", "4", "--alloc", "alu=2", "--oracle"],
        2, ["registers", "mapping", "mapping"], 4),
}


@pytest.mark.parametrize("case", list(DERIVATIONS))
def test_each_call_derives_timing_and_models_once(inputs, monkeypatch, case):
    import memsched.cli as cli
    import memsched.memmap as memmap
    import memsched.scheduler as scheduler

    argv, timing_passes, models, walks = DERIVATIONS[case]
    timings, built, walked = [], [], []

    def counting(original):
        def wrapper(*args, **kwargs):
            timings.append(args[1])
            return original(*args, **kwargs)
        return wrapper

    build = memmap.AccessModel.__init__

    def counting_build(self, g, mapping=None):
        built.append(mapping)
        build(self, g, mapping)

    monkeypatch.setattr(cli, "compute_timing", counting(cli.compute_timing))
    monkeypatch.setattr(scheduler, "compute_timing", counting(scheduler.compute_timing))
    walk = memmap.memory_read_refs

    def counting_walk(op, mapping):
        walked.append(op.id)
        return walk(op, mapping)

    monkeypatch.setattr(memmap.AccessModel, "__init__", counting_build)
    monkeypatch.setattr(memmap, "memory_read_refs", counting_walk)
    files = [inputs.get(arg, arg) for arg in argv]
    assert main(files + ["--library", inputs["dsp.lib.json"], "--out", inputs["out"]]) == 0
    assert len(timings) == timing_passes
    assert ["registers" if m is None else "mapping" for m in built] == models
    assert len(walked) == walks


# -- the input contract: one document per rule --------------------------------

def _graph(inputs, ops, outputs=()):
    return json.dumps({"inputs": inputs, "outputs": list(outputs), "ops": ops})


def _op(op_id, args, result, opcode="add", **extra):
    return {"id": op_id, "opcode": opcode, "args": args, "result": result, **extra}


XIN = [{"name": "xin", "shape": [2]}]
SIN = [{"name": "sin"}]

# rule -> (document, error class, exit code, names its message must carry)
GRAPH_RULES = {
    "undefined operand": (
        _graph(SIN, [_op("op_a", ["sin", "ghost"], "w")]), UndefinedData, 1, ["ghost", "op_a"]),
    "array without index": (
        _graph(XIN, [_op("op_a", ["xin"], "w")]), UndefinedData, 1, ["xin", "op_a"]),
    "index out of range": (
        _graph(XIN, [_op("op_a", ["xin[5]"], "w")]), UndefinedData, 1, ["xin[5]", "op_a"]),
    "indexed scalar": (
        _graph(SIN, [_op("op_a", ["sin[0]"], "w")]), UndefinedData, 1, ["sin[0]", "op_a"]),
    "two writers": (
        _graph(SIN, [_op("op_a", ["sin"], "wout"), _op("op_b", ["sin"], "wout")]),
        DuplicateWriter, 1, ["wout", "op_a", "op_b"]),
    "write to declared input": (
        _graph(SIN + XIN, [_op("op_a", ["sin"], "xin[1]")]),
        DuplicateWriter, 1, ["xin[1]", "op_a"]),
    "unknown dep": (
        _graph(SIN, [_op("op_a", ["sin"], "w", deps=["nowhere"])]),
        FormatError, 2, ["nowhere", "op_a"]),
    "self-dep": (
        _graph(SIN, [_op("op_a", ["sin"], "w", deps=["op_a"])]), CycleDetected, 1, ["op_a"]),
    "two-op cycle": (
        _graph(SIN, [_op("op_a", ["sin", "u"], "w"), _op("op_b", ["w"], "u")]),
        CycleDetected, 1, ["op_a", "op_b"]),
    "unproduced output": (
        _graph(SIN, [_op("op_a", ["sin"], "w")], ["zout"]), UndefinedData, 1, ["zout"]),
    "unknown opcode": (
        _graph(SIN, [_op("op_a", ["sin"], "w", opcode="xor")]), UnknownOpcode, 1, ["xor", "op_a"]),
    "duplicate op id": (
        _graph(SIN, [_op("op_a", ["sin"], "w"), _op("op_a", ["sin"], "v")]),
        FormatError, 2, ["op_a"]),
}


def _validate_doc(inputs, capsys, text, flag="--dfg"):
    path = inputs["tmp"] / "doc.json"
    path.write_text(text, encoding="utf-8")
    files = {"--dfg": inputs["fir4.dfg.json"], "--library": inputs["dsp.lib.json"], flag: str(path)}
    argv = ["validate"]
    for option, file in files.items():
        argv += [option, file]
    rc = main(argv)
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("rule", list(GRAPH_RULES))
def test_graph_rule_contract(inputs, capsys, rule):
    text, error, code, _ = GRAPH_RULES[rule]
    with pytest.raises(error) as raised:
        parse_dfg(text, load_library())
    assert type(raised.value) is error
    rc, err = _validate_doc(inputs, capsys, text)
    assert rc == code
    assert err.startswith("error:" if code == 2 else f"ERROR {error.code}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("rule", list(GRAPH_RULES))
def test_graph_rule_message_names_item_and_ops(rule):
    text, error, _, names = GRAPH_RULES[rule]
    with pytest.raises(error) as raised:
        parse_dfg(text, load_library())
    for name in names:
        assert name in raised.value.message


@pytest.mark.parametrize(
    "key, value", [("shape", [True]), ("width_bits", True), ("shape", None)]
)
def test_validate_rejects_non_integer_declarations(inputs, capsys, key, value):
    text = _graph([{"name": "x", key: value}], [_op("a", ["x"], "w")])
    rc, err = _validate_doc(inputs, capsys, text)
    assert rc == 2
    assert err.startswith(f"error: inputs[0].{key}")


def test_validate_library_value_rules_are_exit_2(inputs, capsys):
    for change in ({"opcodes": []}, {"latency": 0}, {"energy": -1}):
        lib = {"classes": [{"name": "alu", "opcodes": ["add"], "latency": 1, **change}]}
        rc, err = _validate_doc(inputs, capsys, json.dumps(lib), flag="--library")
        assert rc == 2, change
        assert err.startswith("error: classes[0]:"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("document, where", [("library", "classes[0]"), ("mapping", "banks[0]")])
def test_schedule_rejects_non_finite_energy(inputs, capsys, document, where, value):
    # json.loads reads NaN and Infinity; neither may reach metrics.json
    docs = {"library": json.loads(fixture_text("dsp.lib.json")),
            "mapping": json.loads(fixture_text("fir4.map.json"))}
    if document == "library":
        docs["library"]["classes"][0]["energy"] = value
    else:
        docs["mapping"]["banks"][0]["energy_per_access"] = value
    paths = {}
    for name, doc in docs.items():
        paths[name] = inputs["tmp"] / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    rc = main([
        "schedule", "--dfg", inputs["fir4.dfg.json"], "--library", str(paths["library"]),
        "--mapping", str(paths["mapping"]), "--T", "12", "--out", inputs["out"],
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {where}: "), err
    assert "finite" in err
    assert not (inputs["tmp"] / "out" / "metrics.json").exists()


# -- error precedence: which failure a run with several reports ----------------

EMPTY_GRAPH = _graph([], [])
X_ONLY_MAPPING = json.dumps({
    "banks": [{"id": "M0", "ports": 1, "read_latency": 1, "write_latency": 1, "level": 0}],
    "place": {"x": "M0"},
})

# case -> (graph file, mapping document or None, extra argv, exit code,
#          start of the last stderr line)
PRECEDENCE = {
    "empty graph at T 0": (
        "empty", None, ["schedule", "--T", "0"],
        2, "error: time constraint must be >= 1 cycle"),
    "critical path over T 0": (
        "fir4", None, ["schedule", "--T", "0"],
        1, "ERROR InfeasibleConstraint: critical path needs 5 cycles "),
    "unmapped under baseline": (
        "fir4", X_ONLY_MAPPING, ["schedule", "--T", "12"],
        1, "ERROR UnmappedData: h[0]"),
    "unmapped under mem-aware": (
        "fir4", X_ONLY_MAPPING, ["schedule", "--policy", "mem-aware", "--T", "12"],
        1, "ERROR UnmappedData: h[0]"),
    "unmapped under compare": (
        "fir4", X_ONLY_MAPPING, ["compare", "--T", "12"],
        1, "ERROR UnmappedData: h[0]"),
    "baseline deadline before unmapped": (
        "fir4", X_ONLY_MAPPING, ["compare", "--T", "6", "--alloc", "mul=1", "--alloc", "alu=1"],
        1, "ERROR TimeConstraintViolated: 3 operation(s) "),
    "unknown alloc class before reduction range": (
        "fir4", None, ["schedule", "--T", "12", "--reduction", "0.1", "--alloc", "nope=1"],
        1, "ERROR UnknownOpcode: "),
    "unknown alloc class before reduction range and mapping": (
        "fir4", X_ONLY_MAPPING, ["compare", "--T", "12", "--reduction", "0.1", "--alloc", "nope=1"],
        1, "ERROR UnknownOpcode: "),
    "round-robin without a mapping": (
        "fir4", None, ["compare", "--T", "12", "--default-mapping", "round-robin"],
        2, "error: round-robin placement needs at least one bank"),
    "round-robin without banks": (
        "fir4", '{"banks": []}', ["compare", "--T", "12", "--default-mapping", "round-robin"],
        2, "error: round-robin placement needs at least one bank"),
}


@pytest.mark.parametrize("case", list(PRECEDENCE))
def test_error_precedence(inputs, capsys, case):
    graph, mapping, argv, code, last_line = PRECEDENCE[case]
    dfg = inputs["fir4.dfg.json"]
    if graph == "empty":
        dfg = inputs["tmp"] / "empty.dfg.json"
        dfg.write_text(EMPTY_GRAPH, encoding="utf-8")
    files = ["--dfg", str(dfg), "--library", inputs["dsp.lib.json"], "--out", inputs["out"]]
    if mapping is not None:
        path = inputs["tmp"] / "case.map.json"
        path.write_text(mapping, encoding="utf-8")
        files += ["--mapping", str(path)]
    rc = main(argv[:1] + files + argv[1:])
    err = capsys.readouterr().err
    assert rc == code
    assert err.splitlines()[-1].startswith(last_line), err
