"""Smoke test of the benchmark at tiny sizes, with no wall-clock bound.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import generators as gen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_script(script: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_and_checks(workload, trace):
    proc = run_script("run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
                      "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_layer_figures_do_not_grow_with_passes():
    from tracing import Tracer

    def traced(passes):
        tracer = Tracer()
        timing = tracer._wrap("dfg.timing", lambda: None)
        tracer.phase = "setup"
        tracer.run_call(timing)
        tracer.phase = "pass"
        for _ in range(passes):
            tracer.run_call(timing)
            tracer.run_call(timing)
        return tracer.layer_metrics(1.0, 1.0, passes)

    assert traced(3)["dfg.timing_calls"] == traced(7)["dfg.timing_calls"] == 3


def test_probe_fits_a_slope():
    proc = run_script("probe.py", "--seed", "2", "--sizes", "12", "24")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [r["ops"] for r in result["rows"]] == [12, 24]
    assert isinstance(result["mem_aware_loglog_slope"], float)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_bytes(workload):
    def docs(seed):
        calls = WORKLOADS[workload].build(random.Random(seed), False)
        return [gen.dump(d) for c in calls for d in (c.input.dfg, c.input.mapping) if d]

    assert docs(11) == docs(11)
    assert docs(11) != docs(12)


def test_checker_rejects_a_broken_schedule(tmp_path):
    from memsched.cli import main

    dfg, mapping = gen.fir(random.Random(0), 4)
    paths = {}
    for kind, doc in (("dfg", dfg), ("map", mapping), ("lib", gen.DSP_LIBRARY)):
        paths[kind] = tmp_path / f"k.{kind}.json"
        paths[kind].write_text(gen.dump(doc), encoding="utf-8")
    deadline = gen.serialized_deadline(dfg, mapping, gen.DSP_LIBRARY)
    rc = main(["schedule", "--dfg", str(paths["dfg"]), "--library", str(paths["lib"]),
               "--mapping", str(paths["map"]), "--policy", "mem-aware",
               "--T", str(deadline), "--out", str(tmp_path)])
    assert rc == 0
    sched = json.loads((tmp_path / "schedule.json").read_text())
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    alloc = gen.min_allocation(dfg, gen.DSP_LIBRARY, deadline)
    args = (dfg, mapping, gen.DSP_LIBRARY, deadline, alloc, "memory_aware")
    assert checker.check_schedule(sched, metrics, *args) == []

    last = max(sched["entries"], key=lambda e: e["start"])
    last["start"] -= 1
    last["end"] -= 1
    assert checker.check_schedule(sched, metrics, *args)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_script("run.py", "--workload", "dsp-narrow", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
