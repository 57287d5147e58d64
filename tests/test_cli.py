"""Command-line interface: exit codes, diagnostics, outputs, determinism."""

import json
import sys
import time
from collections import Counter

import pytest

from memsched import (
    CycleDetected,
    DuplicateWriter,
    FormatError,
    UndefinedData,
    UnknownOpcode,
    parse_dfg,
    parse_library,
    parse_mapping,
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
# (which int() reads as 3 and 12): a count is ASCII digits only, and int()
# refuses more digits than its limit (4300 by default)
@pytest.mark.parametrize("value", ["alu", "=2", "alu=", "alu=0", "alu=-1", "alu=x", "alu=²",
                                   "alu=٣", "mul=١٢",
                                   pytest.param("alu=" + "9" * 5000, id="alu=5000-nines")])
def test_malformed_alloc_is_exit_2(inputs, capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["schedule", "--dfg", inputs["fir4.dfg.json"], "--library", inputs["dsp.lib.json"],
              "--T", "12", "--alloc", value, "--out", inputs["out"]])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert f"--alloc expects class=count with count >= 1, got {value!r}" in err, err
    assert not (inputs["tmp"] / "out").exists()


# int() reads Arabic-Indic digits and underscores; --T takes --alloc's rule
@pytest.mark.parametrize("value", ["٢٤", "1_0", "-12", " 12",
                                   pytest.param("9" * 5000, id="5000-nines")])
def test_malformed_deadline_is_exit_2(inputs, capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["schedule", "--dfg", inputs["fir4.dfg.json"], "--library", inputs["dsp.lib.json"],
              "--T", value, "--out", inputs["out"]])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert f"argument --T: expected a cycle count, got {value!r}" in err, err
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


def test_validate_checks_the_graph_once(inputs, calls):
    import memsched.cli as cli
    import memsched.dfg as dfg

    log = calls((dfg, "validate_dfg"), (cli, "validate_dfg"))
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
    assert len(log) == 1


def _scheduler_lines(line_budget, limit, argv):
    """Lines memsched.scheduler runs for one call, which must exit 0."""
    import memsched.scheduler as scheduler

    with line_budget(scheduler, limit) as ran:
        assert main(argv) == 0
    return ran[0]


@pytest.mark.parametrize("command", ["schedule", "compare"])
def test_engine_work_does_not_grow_with_bank_latency(inputs, capsys, line_budget, command):
    # a port-blocked group waits for the end of the booking in its way, so
    # 200000-cycle windows cost a few wake-ups more than 1-cycle ones, not
    # one check per cycle waited
    mapping = json.loads(fixture_text("fir4.map.json"))
    ran = []
    for latency in (1, 200000):
        for bank in mapping["banks"]:
            bank["read_latency"] = bank["write_latency"] = latency
        path = inputs["tmp"] / f"fir4-{latency}.map.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        argv = [command, "--dfg", inputs["fir4.dfg.json"], "--library", inputs["dsp.lib.json"],
                "--mapping", str(path), "--T", "3000020", "--out", inputs["out"]]
        if command == "schedule":
            argv += ["--policy", "mem-aware"]
        ran.append(_scheduler_lines(line_budget, ran[0] + 500 if ran else 10000, argv))


@pytest.mark.parametrize("command", ["schedule", "compare"])
def test_engine_work_does_not_grow_with_bank_ports(inputs, capsys, line_budget, command):
    # a bank never serves more accesses at once than a run makes on it, so
    # ports beyond that cost the engine and the oracle nothing, and gantt.svg
    # draws only the ports that hold a booking
    mapping = json.loads(fixture_text("fir4.map.json"))
    names = (["schedule.json", "metrics.json", "gantt.svg"] if command == "schedule"
             else ["compare.json"])
    ran, outputs = [], []
    for ports in (4, 8, 20000):
        for bank in mapping["banks"]:
            bank["ports"] = ports
        path = inputs["tmp"] / f"fir4-{ports}.map.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        out = inputs["tmp"] / f"out-{ports}"
        argv = [command, "--dfg", inputs["fir4.dfg.json"], "--library", inputs["dsp.lib.json"],
                "--mapping", str(path), "--T", "40", "--out", str(out)]
        argv += ["--policy", "mem-aware"] if command == "schedule" else ["--oracle"]
        ran.append(_scheduler_lines(line_budget, ran[0] if ran else 10000, argv))
        outputs.append([capsys.readouterr().out] + [(out / name).read_bytes() for name in names])
    assert ran == ran[:1] * 3
    assert outputs == outputs[:1] * 3


def test_engine_work_does_not_grow_with_allocation(inputs, capsys, line_budget):
    # instances beyond a class's operation count are never bound
    mapping = inputs["tmp"] / "fir4.map.json"
    mapping.write_text(fixture_text("fir4.map.json"), encoding="utf-8")
    ran = []
    for count in (4, 10**6):
        argv = ["schedule", "--dfg", inputs["fir4.dfg.json"], "--library", inputs["dsp.lib.json"],
                "--mapping", str(mapping), "--policy", "mem-aware", "--T", "20",
                "--alloc", f"alu={count}", "--alloc", f"mul={count}",
                "--out", str(inputs["tmp"] / str(count))]
        ran.append(_scheduler_lines(line_budget, ran[0] if ran else 10000, argv))
    outputs = [(inputs["tmp"] / str(count) / "schedule.json").read_bytes() for count in (4, 10**6)]
    assert outputs[0] == outputs[1]


def test_engine_work_grows_linearly_with_the_groups(inputs, capsys, line_budget):
    # every op of this chain reads its own 1-port bank, so each op is its own
    # group; a cycle looks only at the groups its timeline entries name, so
    # doubling the chain at most about doubles the engine's work
    ran = []
    for n in (100, 200, 400):
        ops = [{"id": f"o{i}", "opcode": "add", "args": [f"x{i}", f"r{i - 1}" if i else "x0"],
                "result": f"r{i}"} for i in range(n)]
        dfg = {"inputs": [{"name": f"x{i}"} for i in range(n)], "outputs": [f"r{n - 1}"],
               "ops": ops}
        mapping = {"banks": [{"id": f"B{i}", "ports": 1, "read_latency": 1, "write_latency": 1,
                              "level": 0} for i in range(n)],
                   "place": {f"x{i}": f"B{i}" for i in range(n)}, "default": "REGISTER"}
        paths = [inputs["tmp"] / f"chain{n}.{kind}.json" for kind in ("dfg", "map")]
        for path, doc in zip(paths, (dfg, mapping)):
            path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["schedule", "--dfg", str(paths[0]), "--library", inputs["dsp.lib.json"],
                "--mapping", str(paths[1]), "--policy", "mem-aware", "--T", str(4 * n),
                "--out", inputs["out"]]
        ran.append(_scheduler_lines(line_budget, 2.1 * ran[-1] if ran else 40000, argv))


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


def test_compare_computes_timing_once_plus_allocation_guard(inputs, calls):
    import memsched.cli as cli
    import memsched.scheduler as scheduler

    log = calls((cli, "compute_timing"), (scheduler, "compute_timing"))
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
    assert [args[1] for _, args in log] == [24]


# case -> (argv, timing passes, access models built in order, topological
# sorts, op plans derived register-only and under the mapping): one plan per
# op and model, so the mapping check of the mem-aware path reads the model's
# plans (fir16 has 31 ops, two_adds_one_bank 2), and one sort per graph,
# which validation and every timing pass read. Each call builds one
# register-only model, which its timing pass and its baseline run both read;
# validate builds no model and plans each op under the mapping for its port
# check
DERIVATIONS = {
    "compare": (
        ["compare", "--dfg", "fir16.dfg.json", "--mapping", "fir16.map.json", "--T", "24"],
        1, ["registers", "mapping"], 1, (31, 31)),
    "schedule mem-aware": (
        ["schedule", "--policy", "mem-aware", "--dfg", "fir16.dfg.json",
         "--mapping", "fir16.map.json", "--T", "24"],
        1, ["registers", "mapping"], 1, (31, 31)),
    "schedule baseline with a mapping": (
        ["schedule", "--dfg", "fir16.dfg.json", "--mapping", "fir16.map.json", "--T", "24"],
        1, ["registers", "mapping"], 1, (31, 31)),
    # the oracle derives its own bound and model at its T_max
    "compare with the oracle": (
        ["compare", "--dfg", "two_adds_one_bank.dfg.json",
         "--mapping", "two_adds_one_bank.map.json", "--T", "4", "--alloc", "alu=2", "--oracle"],
        2, ["registers", "mapping", "mapping"], 1, (2, 4)),
    "validate": (
        ["validate", "--dfg", "fir16.dfg.json", "--mapping", "fir16.map.json"],
        0, [], 1, (0, 31)),
}


@pytest.mark.parametrize("case", list(DERIVATIONS))
def test_each_call_derives_timing_and_models_once(inputs, calls, case):
    import memsched.cli as cli
    import memsched.dfg as dfg
    import memsched.memmap as memmap
    import memsched.scheduler as scheduler

    argv, timing_passes, models, sorts, plans = DERIVATIONS[case]
    log = calls((cli, "compute_timing"), (scheduler, "compute_timing"),
                (memmap.AccessModel, "__init__"),
                (dfg, "_topological_sort"), (memmap, "_plan"))
    files = [inputs.get(arg, arg) for arg in argv] + ["--library", inputs["dsp.lib.json"]]
    if argv[0] != "validate":  # validate writes nothing and takes no --out
        files += ["--out", inputs["out"]]
    assert main(files) == 0
    ran = Counter(name for name, _ in log)
    assert ran["compute_timing"] == timing_passes
    # AccessModel(g, mapping=None): the mapping is its third argument
    assert ["mapping" if args[2:] and args[2] is not None else "registers"
            for name, args in log if name == "__init__"] == models
    assert ran["_topological_sort"] == sorts
    register_only = [args[2] is None for name, args in log if name == "_plan"]
    assert (register_only.count(True), register_only.count(False)) == plans


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
    "self-read": (
        _graph(SIN, [_op("op_a", ["sin", "w"], "w")], ["w"]), CycleDetected, 1, ["op_a"]),
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
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
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
    "key, value", [("shape", [True]), ("shape", [1.5]), ("shape", None)]
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
    "mem-aware without a mapping": (
        "fir4", None, ["schedule", "--policy", "mem-aware", "--T", "12"],
        2, "error: policy mem-aware needs --mapping or --default-mapping"),
    "compare without a mapping": (
        "fir4", None, ["compare", "--T", "12"],
        2, "error: compare needs --mapping or --default-mapping"),
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


# -- document syntax: each error path, its exit code and its exact message ----

HUGE = "1" + "0" * 400  # a JSON integer that float() cannot hold
LONG = "1" * 5000  # a JSON integer longer than int() reads from a string
NINES = "9" * 5000  # an element index longer than int() reads
DEEP = "[" * 200000  # nested deeper than json.loads recurses


def _reason(text):
    """Why json.loads rejects ``text``, in this interpreter's words."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as e:
        return str(e)


def _lib(*classes):
    return json.dumps({"classes": list(classes)})


def _cls(**change):
    return {"name": "alu", "opcodes": ["add"], "latency": 1, **change}


def _map(*banks, **rest):
    return json.dumps({"banks": list(banks), **rest})


def _bank(**change):
    return {"id": "M0", "ports": 1, "read_latency": 1, "write_latency": 1, "level": 0, **change}


# case -> (option the document goes to, document, exit code, stderr)
DOCUMENT_ERRORS = {
    "library not an object": (
        "--library", "[]", 2, "error: library document must be a JSON object"),
    "classes not a list": (
        "--library", '{"classes": {}}', 2,
        "error: library document.classes must be of type list"),
    "no classes": ("--library", _lib(), 2, "error: library declares no operator classes"),
    "class not an object": ("--library", _lib(1), 2, "error: classes[0] must be an object"),
    "class name not an identifier": (
        "--library", _lib(_cls(name="2x")), 2, "error: classes[0]: '2x' is not a valid identifier"),
    "opcodes not identifiers": (
        "--library", _lib(_cls(opcodes=["a-b"])), 2,
        "error: classes[0].opcodes must be identifier strings"),
    "energy not a number": (
        "--library", _lib(_cls(energy="2")), 2, "error: classes[0].energy must be a number"),
    "huge integer energy": (
        "--library", _lib(_cls()).replace('"latency": 1', f'"latency": 1, "energy": {HUGE}'),
        2, "error: classes[0]: int too large to convert to float"),
    "library integer too long": (
        "--library", _lib(_cls()).replace('"latency": 1', f'"latency": {LONG}'), 2,
        f"error: invalid library document: {_reason(LONG)}"),
    "library nested too deep": (
        "--library", DEEP, 2, f"error: invalid library document: {_reason(DEEP)}"),
    "class latency past the bound": (
        "--library", _lib(_cls(latency=1000001)), 2, "error: classes[0].latency must be at most 1000000"),
    "class latency of 4300 digits": (
        "--library", _lib(_cls()).replace('"latency": 1', f'"latency": {"9" * 4300}'), 2,
        "error: classes[0].latency must be at most 1000000"),
    "class declared twice": (
        "--library", _lib(_cls(), _cls(opcodes=["sub"])), 1,
        "ERROR DuplicateOpcode: operator class 'alu' declared twice"),
    "graph not an object": ("--dfg", "[]", 2, "error: dfg document must be a JSON object"),
    "input not an object": ("--dfg", _graph([1], []), 2, "error: inputs[0] must be an object"),
    "input name not an identifier": (
        "--dfg", _graph([{"name": "1x"}], []), 2,
        "error: inputs[0]: '1x' is not a valid identifier"),
    "input width_bits, a retired key": (
        "--dfg", _graph([{"name": "x", "width_bits": 16}], []), 2,
        "error: inputs[0] has unknown key(s): width_bits"),
    "input declared twice": (
        "--dfg", _graph([{"name": "x"}, {"name": "x"}], []), 2,
        "error: input 'x' declared twice"),
    "outputs not names": (
        "--dfg", _graph([], [], [1]), 2, "error: outputs must be a list of names"),
    "input shape past the item bound": (
        "--dfg", _graph([{"name": "h", "shape": [65537]}], []), 2,
        "error: inputs[0]: the inputs declare more than 65536 items"),
    "inputs past the item bound together": (
        "--dfg", _graph([{"name": "h", "shape": [256, 256]}, {"name": "s"}], []), 2,
        "error: inputs[1]: the inputs declare more than 65536 items"),
    "graph integer too long": (
        "--dfg", _graph([{"name": "x", "shape": [1]}], []).replace(
            '"shape": [1]', f'"shape": [{LONG}]'), 2,
        f"error: invalid dfg document: {_reason(LONG)}"),
    "graph nested too deep": ("--dfg", DEEP, 2, f"error: invalid dfg document: {_reason(DEEP)}"),
    "element index too long": (
        "--dfg", _graph(XIN, [_op("a", [f"xin[{NINES}]"], "r")], ["r"]), 2,
        f"error: bad data reference 'xin[{NINES}]'"),
    "mapping not an object": (
        "--mapping", "[]", 2, "error: mapping document must be a JSON object"),
    "banks not a list": ("--mapping", '{"banks": {}}', 2, "error: mapping banks must be a list"),
    "place not an object": (
        "--mapping", _map(place=[]), 2, "error: mapping place must be an object"),
    "bad placement key": (
        "--mapping", _map(place={"a-b": "M0"}), 2, "error: bad placement key 'a-b'"),
    "placement target not a name": (
        "--mapping", _map(place={"x": 1}), 2,
        "error: placement of 'x' must name a bank or REGISTER"),
    "default not REGISTER": (
        "--mapping", _map(default="M0"), 2, 'error: mapping default may only be "REGISTER"'),
    "bank not an object": ("--mapping", _map(1), 2, "error: banks[0] must be an object"),
    "ports not an integer": (
        "--mapping", _map(_bank(ports="1")), 2, "error: banks[0].ports must be an integer"),
    "bank id not an identifier": (
        "--mapping", _map(_bank(id="0M")), 2, "error: banks[0].id must be an identifier"),
    "capacity not an integer": (
        "--mapping", _map(_bank(capacity_words=1.5)), 2,
        "error: banks[0].capacity_words must be an integer"),
    "bank energy not a number": (
        "--mapping", _map(_bank(energy_per_access="1")), 2,
        "error: banks[0].energy_per_access must be a number"),
    "huge integer bank energy": (
        "--mapping", _map(_bank()).replace('"level": 0', f'"level": 0, "energy_per_access": {HUGE}'),
        2, "error: banks[0]: int too large to convert to float"),
    "no port": (
        "--mapping", _map(_bank(ports=0)), 2, "error: banks[0]: bank 'M0' needs at least one port"),
    "read latency 0": (
        "--mapping", _map(_bank(read_latency=0)), 2,
        "error: banks[0]: bank 'M0' latencies must be >= 1"),
    "write latency 0": (
        "--mapping", _map(_bank(write_latency=0)), 2,
        "error: banks[0]: bank 'M0' latencies must be >= 1"),
    "read latency past the bound": (
        "--mapping", _map(_bank(read_latency=1000001)), 2,
        "error: banks[0].read_latency must be at most 1000000"),
    "write latency past the bound": (
        "--mapping", _map(_bank(write_latency=1000001)), 2,
        "error: banks[0].write_latency must be at most 1000000"),
    "negative level": (
        "--mapping", _map(_bank(level=-1)), 2, "error: banks[0]: bank 'M0' level must be >= 0"),
    "capacity 0": (
        "--mapping", _map(_bank(capacity_words=0)), 2,
        "error: banks[0]: bank 'M0' capacity must be >= 1 or unbounded"),
    "negative bank energy": (
        "--mapping", _map(_bank(energy_per_access=-1)), 2,
        "error: banks[0]: bank 'M0' energy per access must be finite and >= 0"),
    "bank declared twice": (
        "--mapping", _map(_bank(), _bank()), 2, "error: bank 'M0' declared twice"),
    "bank named REGISTER": (
        "--mapping", _map(_bank(id="REGISTER")), 2,
        "error: bank id 'REGISTER' is reserved for registers"),
    "mapping integer too long": (
        "--mapping", _map(_bank()).replace('"ports": 1', f'"ports": {LONG}'), 2,
        f"error: invalid mapping document: {_reason(LONG)}"),
    "mapping nested too deep": (
        "--mapping", DEEP, 2, f"error: invalid mapping document: {_reason(DEEP)}"),
}


@pytest.mark.parametrize("case", list(DOCUMENT_ERRORS))
def test_document_error_exit_code_and_message(inputs, capsys, case):
    flag, text, code, message = DOCUMENT_ERRORS[case]
    rc, err = _validate_doc(inputs, capsys, text, flag)
    assert (rc, err) == (code, message + "\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() reads any length")
def test_element_index_past_a_lowered_digit_limit(inputs, capsys):
    # PYTHONINTMAXSTRDIGITS or -X int_max_str_digits may lower what int() reads
    ref = f"xin[{'9' * 1000}]"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, err = _validate_doc(inputs, capsys, _graph(XIN, [_op("a", [ref], "r")], ["r"]), "--dfg")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, err) == (2, f"error: bad data reference {ref!r}\n")


def test_latencies_at_the_bound_parse():
    assert parse_library(_lib(_cls(latency=10**6))).classes[0].latency_cycles == 10**6
    bank = parse_mapping(_map(_bank(read_latency=10**6, write_latency=10**6))).banks[0]
    assert (bank.read_latency_cycles, bank.write_latency_cycles) == (10**6, 10**6)


@pytest.mark.parametrize("flag", ["--dfg", "--library", "--mapping"])
def test_document_not_utf8_is_exit_2(inputs, capsys, flag):
    rc, err = _validate_doc(inputs, capsys, b"\xff\xfe{}", flag)
    assert (rc, err) == (2, f"error: {inputs['tmp'] / 'doc.json'}: 'utf-8' codec can't decode "
                            "byte 0xff in position 0: invalid start byte\n")


def test_declared_items_bound_the_parse(inputs, capsys, line_budget):
    # a shape is not multiplied out, nor its items built, past the bound; the
    # line budget stops a parse that builds them before it fills the memory
    import memsched.dfg as dfg

    start = time.perf_counter()
    with line_budget(dfg, 10000):
        rc, err = _validate_doc(inputs, capsys, _graph([{"name": "h", "shape": [10**20]}], []))
    assert time.perf_counter() - start < 1.0
    assert (rc, err) == (2, "error: inputs[0]: the inputs declare more than 65536 items\n")


# -- argument parsing -----------------------------------------------------------

_FILES = ["--dfg", "g.json", "--library", "l.json"]
_RUN = _FILES + ["--T", "5"]
ARGV = [
    ["validate", "--help"],
    ["schedule", "--help"],
    ["compare", "--help"],
    ["schedule", "--dfg", "g.json", "-h"],
    ["--help"],
    ["-h"],
    [],
    ["bogus"],
    ["sched", *_RUN],
    ["--", "schedule", *_RUN],
    ["--dfg", "a", "schedule", *_RUN],
    ["schedule", *_RUN, "--bogus"],
    ["schedule", *_RUN, "stray"],
    ["validate", *_FILES, "extra"],
    ["validate", "--df", "g.json", "--lib", "l.json"],
    ["validate", "--dfg", "a.json", "--dfg", "g.json", "--library", "l.json"],
    ["validate", "--dfg", "g.json"],
    ["validate", *_FILES, "--mapping", "m.json", "--default-mapping", "round-robin"],
    ["validate", *_FILES, "--default-mapping", "striped"],
    ["validate", *_FILES, "--T", "5"],
    ["schedule", *_FILES],
    ["schedule", *_FILES, "--T", "x"],
    ["schedule", *_FILES, "--T", "-3"],
    ["schedule", *_RUN, "--alloc", "alu"],
    ["schedule", *_RUN, "--alloc", "alu=2", "--alloc", "mul=1"],
    ["schedule", *_RUN, "--policy", "fast"],
    ["schedule", *_RUN, "--policy", "mem-aware", "--mapping", "m.json", "--out", "o"],
    ["schedule", *_RUN, "--reduction", "much"],
    ["schedule", *_RUN, "--reduction=0.4", "--dynamic-mobility", "--positional-affinity",
     "--no-affinity", "--per-shared-input-energy"],
    ["schedule", *_RUN, "--oracle"],
    ["compare", *_RUN, "--oracle"],
    ["compare", *_RUN, "--oracle=1"],
    ["compare", *_RUN, "--policy", "baseline"],
    ["compare", "--T=5", "--lib=l.json", "--dfg=g.json", "--default-mapping=registers"],
]


@pytest.mark.parametrize("argv", ARGV, ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_parses_like_the_whole_parser(monkeypatch, capsys, argv):
    # main hands _guard the command and the namespace the whole parser
    # builds, and any exit, usage and message are the whole parser's too
    import memsched.cli as cli

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to it
    commands = {"validate": cli._validate, "schedule": cli._schedule, "compare": cli._compare}

    def outcome(parse):
        try:
            result = parse()
        except SystemExit as e:
            result = e.code
        out, err = capsys.readouterr()
        return result, out, err

    def through_main():
        handed = []
        monkeypatch.setattr(cli, "_guard", lambda command, args: handed.append((command, args)))
        cli.main(list(argv))
        (command, args), = handed
        assert command is commands[args.command]
        return args

    assert outcome(through_main) == outcome(lambda: cli.build_parser().parse_args(list(argv)))
