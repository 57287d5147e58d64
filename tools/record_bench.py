#!/usr/bin/env python3
"""Record the benchmark of a change against its parent as one JSON file.

    python3 tools/record_bench.py --parent ../parent --change . --pairs 10 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 10 --revs 34d4dfd HEAD --out BENCH_23.json

``--parent`` and ``--change`` are two checkouts of the repository, for
example a ``git archive`` of the parent commit unpacked next to this one.
For each pair and each workload in the change's ``BENCHMARK.json``, the
recorder runs ``bench/run.py --trace 0`` once in each checkout, as its own
process, and alternates which side goes first from one pair to the next.
Pair ``i`` uses seed ``seeds[i % len(seeds)]``. It then runs
``bench/probe.py`` in the change's checkout. It reads only the last JSON
line each run prints, and writes, per workload and end-to-end metric, each
side's median and quartiles, every pair's values and how many pairs the
change won, plus each side's ``correct`` flags and failed calls and the
probe's rows. It sets no bound and passes no verdict.

Timings on a shared host drift, so the record also holds work that does
not: under ``counts``, per workload and side, the lines each ``memsched``
module executes in one pass of the workload's calls at the first seed.
Each count is taken once, in its own process with ``PYTHONHASHSEED=0``,
never inside a timed run (a tracer slows the run it counts): the checkout's
own ``bench/run.py`` ``Runner`` sets the workload up and runs one warm
pass, and the next pass is counted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")
TOOLS = Path(__file__).resolve().parent


def last_json_line(tree: Path, script: str, args: list[str], env: dict | None = None) -> dict:
    """Run ``script`` in ``tree`` and return the last line of its stdout,
    parsed; a failed run stops the recording."""
    proc = subprocess.run([sys.executable, script, *args], cwd=tree,
                          capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {script} {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def count_lines(workload: str, seed: str, tiny: str) -> None:
    """Print, as one JSON line, the ``line`` events of each ``memsched``
    module over one pass of ``workload``'s calls at ``seed`` (``tiny`` "1"
    for tiny inputs), the way tier-1's ``line_budget`` counts them. The
    working directory is the checkout: its ``bench/run.py`` ``Runner`` sets
    the workload up and runs one warm pass first."""
    sys.path[:0] = ["bench", "src"]
    import run as bench  # the checkout's own harness

    signal.signal(signal.SIGALRM, bench._on_alarm)  # its per-call time limit
    counts = Counter()

    def count(frame, event, arg):
        if event == "line":
            counts[frame.f_globals["__name__"]] += 1
        return count

    def scope(frame, event, arg):
        return count if frame.f_globals.get("__name__", "").split(".")[0] == "memsched" else None

    with tempfile.TemporaryDirectory() as work:
        runner = bench.Runner(bench.WORKLOADS[workload], int(seed), tiny == "1", Path(work))
        runner.setup()
        runner.verify_compare_inputs()  # as bench/run.py does before its passes
        for call in runner.calls:  # the warm pass
            runner.timed_call(call)
        sys.settrace(scope)
        try:
            for call in runner.calls:
                runner.timed_call(call)
        finally:
            sys.settrace(None)
    print(json.dumps(dict(sorted(counts.items()))))


def counted_pass(tree: Path, workload: str, seed: int, tiny: bool) -> dict:
    """:func:`count_lines` of ``workload`` in ``tree``, run in a process of
    its own under ``PYTHONHASHSEED=0``."""
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import record_bench; "
            "record_bench.count_lines(*sys.argv[1:])")
    return last_json_line(tree, "-c", [code, workload, str(seed), "1" if tiny else "0"],
                          env={**os.environ, "PYTHONHASHSEED": "0"})


def spread(values: list[float]) -> dict:
    """Median and quartiles (the same value thrice for a single run)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(spec: dict, runs: dict, seeds: list[int]) -> dict:
    """Per workload: each end-to-end metric's spread per side and the
    change's wins over the pairs, and each side's correct flags and failed
    calls."""
    out = {}
    for workload, by_side in runs.items():
        entry = {side: {"correct": [r["correct"] for r in by_side[side]],
                        "failed": sum(r["failed"] for r in by_side[side])}
                 for side in SIDES}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in by_side[side]]
                      for side in SIDES}
            sign = 1 if metric["better"] == "higher" else -1
            pairs = list(zip(values["parent"], values["change"]))
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                **{side: spread(values[side]) for side in SIDES},
                "pairs": [{"seed": seed, "parent": p, "change": c}
                          for seed, (p, c) in zip(seeds, pairs)],
                "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
                "ties": sum(c == p for p, c in pairs),
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=10.0, help="each run's --seconds")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny workloads and probe sizes, for the recorder's own test")
    parser.add_argument("--revs", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="the two checkouts' commits, recorded as given")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [args.seeds[i % len(args.seeds)] for i in range(args.pairs)]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                flags = ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(args.seconds), "--trace", "0"]
                run = last_json_line(trees[side], "bench/run.py",
                                     flags + ["--tiny"] * args.tiny)
                runs[workload][side].append(run)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {workload} {side}: "
                      f"calls_per_s {run['metrics']['calls_per_s']['value']:.1f}, "
                      f"correct {run['correct']}", flush=True)
    probe = last_json_line(trees["change"], "bench/probe.py",
                           ["--seed", "1"] + ["--sizes", "20", "40"] * args.tiny)
    counts = {w: {side: counted_pass(trees[side], w, seeds[0], args.tiny) for side in SIDES}
              for w in workloads}

    record = {
        "revs": dict(zip(SIDES, args.revs)) if args.revs else None,
        "command": ["bench/run.py", "--seconds", args.seconds, "--trace", 0]
                   + ["--tiny"] * args.tiny,
        "pairs": args.pairs,
        "seeds": seeds,
        "workloads": summarize(spec, runs, seeds),
        "probe": probe,
        "counts": counts,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
