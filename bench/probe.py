#!/usr/bin/env python3
"""Scaling probe: engine time per graph size, with a fitted log-log slope.

    python3 bench/probe.py --seed 1 --sizes 100 200 400 800 --limit-s 60

Each size gets one seeded random DAG (3 classes of latency 1-3, 16
instances per class, 1-2 port banks with 1-2 cycle latencies) and one
traced in-process ``compare`` call. The probe stops after the first size
whose call takes longer than ``--limit-s``. The slope of log(mem-aware engine time) over log(ops) is 1
for linear growth and about 3 when time grows 8x per doubling. Reported
only; no bound applies to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import sys

import checker
import generators as gen
from run import ROOT, SRC, argv_for, invoke
from tracing import Tracer
from workloads import Call, generated


def slope(xs: list[float], ys: list[float]) -> float | None:
    """Least-squares slope of log(y) over log(x)."""
    if len(xs) < 2:
        return None
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den


def probe(seed: int, sizes: list[int], limit_s: float, work) -> dict:
    sys.path.insert(0, str(SRC))
    import memsched.cli as cli
    import memsched.scheduler as scheduler

    library = gen.random_library((1, 2, 3))
    alloc = {c["name"]: 16 for c in library["classes"]}
    rows = []
    for n in sizes:
        rng = random.Random(f"{seed}-{n}")
        call = Call(generated(f"dag{n}", gen.random_dag(rng, n, 3), library), "compare",
                    alloc=alloc)
        paths = {}
        for kind, doc in (("dfg", call.input.dfg), ("map", call.input.mapping),
                          ("lib", library)):
            paths[kind] = str(work / f"dag{n}.{kind}.json")
            (work / f"dag{n}.{kind}.json").write_text(gen.dump(doc), encoding="utf-8")
        tracer = Tracer()
        tracer.modules = {"cli": cli, "scheduler": scheduler}
        tracer.install()
        try:
            rc, _, err = tracer.run_call(invoke, cli.main, argv_for(call, paths, work / "out"))
        finally:
            tracer.uninstall()
        if rc != 0:
            raise RuntimeError(f"{n} ops: exit {rc}: {err.strip()}")
        doc = json.loads((work / "out" / "compare.json").read_text("utf-8"))
        problems = checker.check_compare(doc, call.input.dfg, library, call.deadline, False)
        if problems:
            raise RuntimeError(f"{n} ops: {problems}")
        layers = tracer.layer_metrics(1.0, 1.0)
        call_s = tracer.spans[0].end - tracer.spans[0].start
        rows.append({"ops": n, "call_s": call_s,
                     "mem_aware_s": layers["scheduler.mem_aware_s"],
                     "baseline_s": layers["scheduler.baseline_s"]})
        print(f"  {n:>5} ops  call {call_s:8.3f} s  mem-aware {rows[-1]['mem_aware_s']:8.3f} s"
              f"  baseline {rows[-1]['baseline_s']:8.3f} s", flush=True)
        if call_s > limit_s:
            print(f"  stopped: {n} ops took longer than {limit_s} s")
            break
    fit = slope([r["ops"] for r in rows], [r["mem_aware_s"] for r in rows])
    return {"seed": seed, "rows": rows, "mem_aware_loglog_slope": fit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400, 800])
    parser.add_argument("--limit-s", type=float, default=60.0)
    args = parser.parse_args(argv)
    if not (SRC / "memsched" / "cli.py").is_file():
        print(f"error: no memsched sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = probe(args.seed, sorted(args.sizes), args.limit_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"  log-log slope of mem-aware time over ops: {result['mem_aware_loglog_slope']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
