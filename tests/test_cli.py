"""Command-line interface: exit codes, diagnostics, outputs, determinism."""

import json

import pytest

from memsched.cli import main
from memsched.fixtures import fixture_text


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
