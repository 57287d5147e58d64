"""The benchmark recorder, run at tiny sizes with this checkout as both
sides of one pair."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_recorder_writes_both_sides_of_every_metric(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "record_bench.py"),
                    "--parent", str(ROOT), "--change", str(ROOT), "--pairs", "1",
                    "--seeds", "3", "--seconds", "0.05", "--tiny", "--out", str(out)],
                   check=True, capture_output=True, timeout=50)
    record = json.loads(out.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert record["seeds"] == [3]
    assert set(record["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload in record["workloads"].values():
        for side in ("parent", "change"):
            assert workload[side] == {"correct": [True], "failed": 0}
        for metric in spec["end_to_end"]:
            entry = workload[metric["name"]]
            (pair,) = entry["pairs"]
            for side in ("parent", "change"):
                assert entry[side] == {"median": pair[side], "q1": pair[side], "q3": pair[side]}
            assert entry["change_wins"] + entry["ties"] <= 1
        # one seed, one tree: both sides schedule the same makespans
        assert workload["makespan_cycles"]["ties"] == 1
    assert [row["ops"] for row in record["probe"]["rows"]] == [20, 40]
