#!/usr/bin/env python3
"""memsched benchmark: one seeded workload per process, in-process CLI calls.

    python3 bench/run.py --workload dsp-narrow --seed 1 --seconds 20 --trace 0

One client runs ``memsched.cli.main([...])`` in a closed loop, no threads,
with stdout and stderr captured in memory. The workload's inputs come from
``--seed`` only (see ``workloads.py``); memsched sees nothing but the
written documents and the CLI flags. Every call's exit code and output
files are checked by ``checker.py``, which shares no code with memsched.

The run sets up (import, input generation, a ``validate`` exit-0 check of
every input, one warm-up call) nine times, once first and the rest spread
over the passes, and reports the median as ``setup_s``. Untimed, it runs
``schedule`` under both policies once for every ``compare`` call's input
and checks those schedules in full, as compare.json alone holds no
schedule. It then makes whole passes over the workload's calls until
``--seconds`` are up, and at least three; each call's time is its best
pass. Each compare.json must report the makespans of the two
schedules checked before. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` each
call runs twice, untraced and then traced (spans from ``tracing.py``), and
the line carries the per-layer metrics. A readable table, the per-input
sha256 of every output file and the failures precede it, and
``.bench_work/results/`` keeps the same as JSON.

The run is correct only if every call passed its check, no call hit its
time limit, and every input has a checked mem-aware makespan.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import checker
import generators as gen
from tracing import Tracer
from workloads import WORKLOADS, Call, fixture

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 3  # a call's time is its best pass, so every call runs at least three times
P90_MIN_CALLS = 100  # so that at least ten samples lie beyond the 90th percentile
OUTPUTS = {"compare": ("compare.json",),
           "schedule": ("schedule.json", "metrics.json", "gantt.svg", "schedule.csv"),
           "validate": ()}
DIGESTED = ("schedule.json", "metrics.json", "compare.json")


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call; a BaseException so nothing in the
    called code can swallow it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# calling the CLI

def argv_for(call: Call, paths: dict[str, str], out: Path) -> list[str]:
    argv = [call.command, "--dfg", paths["dfg"], "--library", paths["lib"]]
    if call.input.mapping is not None:
        argv += ["--mapping", paths["map"]]
    if call.command == "validate":
        return argv
    argv += ["--T", str(call.deadline), "--out", str(out)]
    for name, count in sorted(call.alloc.items()):
        argv += ["--alloc", f"{name}={count}"]
    if call.policy is not None:
        argv += ["--policy", call.policy]
    if call.oracle:
        argv.append("--oracle")
    return argv


def invoke(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejects the flags
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed call, not the end of the run
            rc = -1
            traceback.print_exc(limit=-3)
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Owns the work directory, the imported CLI and the per-call records."""

    def __init__(self, workload, seed: int, tiny: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.cli = None
        self.calls: list[Call] = []
        self.companions: dict[str, dict[str, Call]] = {}  # compare key -> policy -> call
        self.paths: dict[str, dict[str, str]] = {}
        self.first: dict[str, dict] = {}  # call key -> digests and quality
        self.failures: list[str] = []
        self.timeouts: list[str] = []

    def setup(self, tracer=None) -> float:
        """Import, generate and write inputs, validate them, warm up."""
        t0 = time.perf_counter()
        for name in [m for m in sys.modules if m.split(".")[0] == "memsched"]:
            del sys.modules[name]
        self.cli = importlib.import_module("memsched.cli")
        if tracer:
            tracer.modules = {"cli": self.cli, "scheduler": sys.modules["memsched.scheduler"]}
            tracer.phase = "setup"
            tracer.install()
        try:
            self._prepare(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        return time.perf_counter() - t0

    def _prepare(self, tracer) -> None:
        self.calls = self.workload.build(random.Random(self.seed), self.tiny)
        warm = Call(fixture("two_adds_one_bank", deadline=4), "compare",
                    alloc={"alu": 2}, oracle=True)
        inputs = {c.input.name: c.input for c in self.calls + [warm]}
        indir = self.work / "in"
        indir.mkdir(parents=True, exist_ok=True)
        libraries: dict[str, str] = {}
        for name, inp in inputs.items():
            self.paths[name] = {}
            for kind, doc in (("dfg", inp.dfg), ("map", inp.mapping)):
                if doc is not None:
                    path = indir / f"{name}.{kind}.json"
                    path.write_text(gen.dump(doc), encoding="utf-8")
                    self.paths[name][kind] = str(path)
            text = gen.dump(inp.library)
            if text not in libraries:
                libraries[text] = str(indir / f"library{len(libraries)}.lib.json")
                Path(libraries[text]).write_text(text, encoding="utf-8")
            self.paths[name]["lib"] = libraries[text]
        run = tracer.run_call if tracer else (lambda fn, *a: fn(*a))
        for name, inp in inputs.items():
            rc, _, err = run(invoke, self.cli.main, argv_for(Call(inp, "validate"),
                                                             self.paths[name], indir))
            if rc != 0:
                raise SetupError(f"input {name} fails validate: {err.strip()}")
        out = self.work / "warmup"
        rc, _, err = run(invoke, self.cli.main, argv_for(warm, self.paths[warm.input.name], out))
        if rc != 0:
            raise SetupError(f"warm-up call failed: {err.strip()}")

    def verify_compare_inputs(self) -> tuple[int, int]:
        """Run and check ``schedule`` under both policies once for every
        compare call's input, deadline and allocation; returns the calls
        attempted and passed."""
        passed = 0
        for call in self.calls:
            if call.command != "compare":
                continue
            self.companions[call.key] = {
                policy: Call(call.input, "schedule", policy, call.deadline, call.alloc)
                for policy in ("mem-aware", "baseline")}
            for companion in self.companions[call.key].values():
                passed += self.timed_call(companion)[1]
        return 2 * len(self.companions), passed

    def match_companions(self, call: Call, doc: dict) -> list[str]:
        """compare.json must report the makespans of the schedules that
        ``verify_compare_inputs`` checked for the same input."""
        made = [self.first.get(c.key) for c in self.companions[call.key].values()]
        if None in made:
            return ["no checked schedule to compare with"]
        want = [m["makespan"] for m in made]
        got = [doc["right"]["makespan"], doc["left"]["makespan"]]
        if got != want:
            return [f"compare.json makespans {got} (mem-aware, baseline), "
                    f"checked schedules {want}"]
        return []

    def quality_keys(self) -> list[str]:
        """One call per input that yields its mem-aware makespan."""
        keys: dict[str, str] = {}
        for c in self.calls:
            if c.expect_exit == 0 and (c.command == "compare" or c.policy == "mem-aware"):
                keys.setdefault(c.input.name, c.key)
        return list(keys.values())

    def timed_call(self, call: Call, tracer=None) -> tuple[float, bool]:
        """Run one call under the time limit and check it; returns the wall
        time and whether it passed."""
        out = self.work / "out" / call.key
        for name in OUTPUTS[call.command]:
            (out / name).unlink(missing_ok=True)
        argv = argv_for(call, self.paths[call.input.name], out)
        if tracer:
            tracer.install()
        signal.alarm(self.workload.call_limit_s)
        t0 = time.perf_counter()
        try:
            if tracer:
                rc, _, err = tracer.run_call(invoke, self.cli.main, argv)
            else:
                rc, _, err = invoke(self.cli.main, argv)
        except CallTimeout:
            elapsed = time.perf_counter() - t0
            self.timeouts.append(f"{call.key} (seed {self.seed}) over "
                                 f"{self.workload.call_limit_s} s")
            return elapsed, False
        finally:
            signal.alarm(0)
            if tracer:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        problems = self.check(call, rc, err, out)
        if tracer and call.oracle and not problems:
            doc = self.first[call.key]
            tracer.record_gap(doc["makespan"] - doc["oracle"])
        self.failures += [f"{call.key}: {p}" for p in problems]
        return elapsed, not problems

    def check(self, call: Call, rc: int, err: str, out: Path) -> list[str]:
        if rc != call.expect_exit:
            return [f"exit {rc}, expected {call.expect_exit}: {err.strip()[:200]}"]
        if call.expect_exit == 1:
            ok = err.startswith("ERROR TimeConstraintViolated")
            return [] if ok else [f"unexpected diagnostics: {err.strip()[:200]}"]
        try:
            digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                       for name in OUTPUTS[call.command] if name in DIGESTED}
        except OSError as e:
            return [f"missing output: {e}"]
        seen = self.first.get(call.key)
        if seen is not None:
            return [] if seen["sha256"] == digests else ["outputs differ from the first call"]
        try:
            problems, quality = self.check_outputs(call, out)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return [f"malformed output: {e!r}"]
        if not problems:
            self.first[call.key] = {"sha256": digests, **quality}
        return problems

    def check_outputs(self, call: Call, out: Path) -> tuple[list[str], dict]:
        """Full independent check of a call's files the first time it runs."""
        inp = call.input
        if call.command == "validate":
            return [], {}
        if call.command == "compare":
            doc = json.loads((out / "compare.json").read_text("utf-8"))
            problems = checker.check_compare(doc, inp.dfg, inp.library, call.deadline,
                                             call.oracle)
            aware = doc["right"]
            problems += self.match_companions(call, doc)
            return problems, {"makespan": aware["makespan"], "model2": aware["model2_count"],
                              "ops": aware["op_count"], "baseline": doc["left"]["makespan"],
                              "oracle": doc.get("oracle_makespan")}
        sched = json.loads((out / "schedule.json").read_text("utf-8"))
        metrics = json.loads((out / "metrics.json").read_text("utf-8"))
        policy = "memory_aware" if call.policy == "mem-aware" else "baseline"
        problems = checker.check_schedule(
            sched, metrics, inp.dfg, inp.mapping, inp.library, call.deadline,
            call.allocation(), policy)
        csv_rows = (out / "schedule.csv").read_text("utf-8").count("\n") - 1
        if csv_rows != inp.n_ops or not (out / "gantt.svg").read_text("utf-8").startswith("<"):
            problems.append("schedule.csv or gantt.svg malformed")
        return problems, {"makespan": sched["makespan"], "model2": metrics["model2_count"],
                          "ops": metrics["op_count"]}


# ---------------------------------------------------------------------------

def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        tracer = Tracer()
        setup_times = [runner.setup(tracer)]
    else:
        setup_times = [runner.setup()]
    attempted, passed = runner.verify_compare_inputs()
    if tracer:
        tracer.phase = "pass"

    samples: list[list[float]] = [[] for _ in runner.calls]
    traced: list[float] = []
    passes = every = 0
    # Whole passes only, until the time asked for is up, so every input
    # weighs the same in the timing metrics.
    t0 = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        for call, times in zip(runner.calls, samples):
            elapsed, ok = runner.timed_call(call)
            times.append(elapsed)
            attempted += 1
            passed += ok
            if tracer:
                elapsed, ok = runner.timed_call(call, tracer)
                traced.append(elapsed)
                attempted += 1
                passed += ok
        passes += 1
        if not every:
            # The other set-ups are spread over the run: a spell of load from
            # other tenants of the machine then skews few of them.
            expected = seconds / (time.perf_counter() - start)
            every = max(1, int(expected) // SETUP_REPEATS)
        if not tracer and len(setup_times) < SETUP_REPEATS and passes % every == 0:
            setup_times.append(runner.setup())
    while not tracer and len(setup_times) < SETUP_REPEATS:
        setup_times.append(runner.setup())
    return {"setup": setup_times, "samples": samples, "traced": traced, "tracer": tracer,
            "passes": passes, "attempted": attempted, "passed": passed}


def end_to_end(runner: Runner, m: dict) -> tuple[dict, dict]:
    """The gated metrics, and the ones only printed (never-0 rule, sample
    count rule, seed-to-seed spread).

    A call's time is its best over the passes: other tenants of the machine
    slow it down for seconds at a time, and the minimum is the reading that
    such interference disturbs least.
    """
    best = [min(times) for times in m["samples"]]
    every = [t for times in m["samples"] for t in times]
    # An input without a checked result makes the run incorrect (see main);
    # it is never left out of a smaller sum silently.
    quality = [runner.first[k] for k in runner.quality_keys() if k in runner.first]
    ops = sum(q["ops"] for q in quality)
    metrics = {
        "setup_s": statistics.median(m["setup"]),
        "calls_per_s": len(best) / sum(best),
        "call_s_p50": statistics.median(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "makespan_cycles": sum(q["makespan"] for q in quality),
    }
    extra = {
        # A count of a few hundred model-2 ops: from seed to seed it moves by
        # more than any bound allowed, so it is printed, not gated.
        "sharing_ratio": (sum(q["model2"] for q in quality) / ops if ops else 0.0, "ratio"),
        "failed_share": ((m["attempted"] - m["passed"]) / m["attempted"], "ratio"),
        "calls": (len(every), "count"),
    }
    if len(every) >= P90_MIN_CALLS:
        extra["call_s_p90"] = (statistics.quantiles(every, n=10)[-1], "s")
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "memsched" / "cli.py").is_file():
        print(f"error: no memsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload]
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workload, args.seed, args.tiny, work)
    try:
        m = measure(runner, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runner.failures += [f"{key}: no checked result"
                        for key in runner.quality_keys() if key not in runner.first]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        untraced = sum(t for times in m["samples"] for t in times)
        values = m["tracer"].layer_metrics(untraced, sum(m["traced"]), m["passes"])
        extra = {}
    else:
        values, extra = end_to_end(runner, m)
        if "call_s_p90" not in extra:
            extra["call_s_p90"] = (f"omitted, {extra['calls'][0]} calls < {P90_MIN_CALLS}", "")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    shown = {**{k: (v, units[k]) for k, v in values.items()}, **extra}

    print(f"{args.workload} seed {args.seed}: {m['attempted']} calls, "
          f"{m['attempted'] - m['passed']} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name:<36} {value} {unit}")
    for key, first in sorted(runner.first.items()):
        for name, digest in sorted(first["sha256"].items()):
            print(f"  sha256 {key}/{name} {digest}")
    for line in runner.failures + runner.timeouts:
        print(f"  FAILED {line}")

    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": {k: v for k, (v, _) in shown.items()},
              "call_s": m["samples"], "outputs": runner.first, "failures": runner.failures,
              "timeouts": runner.timeouts}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        m["tracer"].dump(results / name.replace(".json", ".spans.jsonl"))

    print(json.dumps({
        "correct": not runner.failures and not runner.timeouts,
        "attempted": m["attempted"],
        "failed": m["attempted"] - m["passed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
