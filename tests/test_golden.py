"""Golden digests: the sha256 of every output document the scheduling rules
produce on a fixed corpus, compared against ``golden_digests.json``.

The corpus:

- every bundled fixture at the deadline the README, the demos or the CLI
  tests use (``iir_biquad``, which none of them schedules, at its serialized
  deadline): ``schedule.json`` and ``gantt.svg`` under both policies,
  mem-aware ``metrics.json`` and ``compare.json``, all written by the CLI;
- the seeded 200-DAG safety-suite instances: ``schedule.json`` under both
  policies and mem-aware ``metrics.json``;
- the exact oracle's optimum and witness on the acceptance suite's oracle
  sandwich family.

Baseline ``metrics.json`` on random instances is left out: it is the
conflict replay, whose rule is allowed to change. A change that alters any
digest here changes output; refresh the file with
``PYTHONPATH=src:tests python tests/test_golden.py`` only when a change of
rule is intended and documented.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from memsched import (
    SchedulerConfig,
    analyze,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    compute_timing,
    fixtures,
    metrics_to_json,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched.cli import main
from oracles import generous_deadline, make_library, random_dfg, random_mapping

GOLDEN = Path(__file__).with_name("golden_digests.json")

# kernel -> (deadline, --alloc overrides)
FIXTURE_RUNS = {
    "fir4": (12, []),
    "fir16": (24, []),
    "fft8_stage": (12, []),
    "iir_biquad": (None, []),
    "two_adds_one_bank": (4, ["--alloc", "alu=2"]),
}


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> None:
    rc = main(argv)
    if rc != 0:
        raise AssertionError(f"memsched {' '.join(argv)} exited {rc}")


def fixture_digests(work: Path) -> dict[str, str]:
    lib = fixtures.load_library()
    out: dict[str, str] = {}
    for kernel, (deadline, alloc) in FIXTURE_RUNS.items():
        if deadline is None:
            g = fixtures.load_dfg(kernel, lib)
            deadline = generous_deadline(g, fixtures.load_mapping(kernel))
        common = [
            "--dfg", str(fixtures.fixture_path(f"{kernel}.dfg.json")),
            "--library", str(fixtures.fixture_path("dsp.lib.json")),
            "--mapping", str(fixtures.fixture_path(f"{kernel}.map.json")),
            "--T", str(deadline),
            *alloc,
        ]
        for policy in ("baseline", "mem-aware"):
            d = work / kernel / policy
            _run(["schedule", *common, "--policy", policy, "--out", str(d)])
            for name in ("schedule.json", "gantt.svg"):
                out[f"fixture/{kernel}/{policy}/{name}"] = _digest((d / name).read_bytes())
            if policy == "mem-aware":
                out[f"fixture/{kernel}/{policy}/metrics.json"] = _digest(
                    (d / "metrics.json").read_bytes()
                )
        d = work / kernel / "compare"
        _run(["compare", *common, "--out", str(d)])
        out[f"fixture/{kernel}/compare.json"] = _digest((d / "compare.json").read_bytes())
    return out


def random_digests() -> dict[str, str]:
    """The safety suite's 200 instances, drawn from the same seed."""
    rng = random.Random(2024)
    out: dict[str, str] = {}
    for i in range(200):
        lib = make_library(rng, rng.randint(1, 3))
        g = random_dfg(rng, rng.randint(5, 50), lib)
        mapping = random_mapping(rng, g, rng.randint(0, 3))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        timing = compute_timing(g, T)
        base = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
        aware = schedule_memory_aware(
            g, alloc, mapping, SchedulerConfig(T), timing
        )
        metrics = metrics_to_json(analyze(aware, g, aware.model))
        out[f"random/{i:03d}"] = _digest(
            "\0".join((base.to_json(), aware.to_json(), metrics))
        )
    return out


def oracle_digests() -> dict[str, str]:
    from test_acceptance import _sandwich_family

    out: dict[str, str] = {}
    for name, g, alloc, mapping, _ in _sandwich_family():
        T = generous_deadline(g, mapping)
        timing = compute_timing(g, T)
        if mapping is None:
            sched = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
        else:
            sched = schedule_memory_aware(
                g, alloc, mapping, SchedulerConfig(T), timing
            )
        best, witness = bruteforce_optimal_makespan(g, alloc, mapping, sched.makespan_cycles)
        out[f"oracle/{name}"] = _digest(json.dumps([best, witness.to_json()]))
    return out


def all_digests(work: Path) -> dict[str, str]:
    return {**fixture_digests(work), **random_digests(), **oracle_digests()}


def _expected(prefix: str) -> dict[str, str]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {k: v for k, v in golden.items() if k.startswith(prefix)}


def _changed(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def test_fixture_outputs_match_golden(tmp_path):
    assert _changed(_expected("fixture/"), fixture_digests(tmp_path)) == []


def test_random_schedules_match_golden():
    expected = _expected("random/")
    assert len(expected) == 200
    assert _changed(expected, random_digests()) == []


def test_oracle_witnesses_match_golden():
    expected = _expected("oracle/")
    assert len(expected) >= 50
    assert _changed(expected, oracle_digests()) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests = all_digests(Path(work))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
