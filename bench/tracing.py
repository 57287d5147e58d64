"""Spans around the calls into memsched's modules, recorded from outside.

``Tracer.install`` replaces the public names that ``memsched.cli`` and
``memsched.scheduler`` import with wrappers that record a span per call:
name, start, end, parent span, call id and phase. ``uninstall`` puts the
originals back, so untraced calls run the unmodified code. Spans stay in
memory until ``layer_metrics`` folds them into per-layer numbers (and
``dump`` writes them out) at the end of the run.

The runner sets ``phase`` to ``"setup"`` while it sets up and to ``"pass"``
while it repeats the workload's calls. A run makes as many passes as fit in
its time, so ``layer_metrics`` divides the pass spans by the number of
passes and adds the set-up spans once: every figure describes one traced
set-up plus one pass, the same work on every host.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute) -> span name. The scheduler module's own imports
# catch timing recomputed by allocation and by the retry path, and the
# mapping check inside schedule_memory_aware.
WRAPPED = {
    ("cli", "parse_library"): "dfg.parse",
    ("cli", "parse_dfg"): "dfg.parse",
    ("cli", "validate_dfg"): "dfg.validate",
    ("cli", "compute_timing"): "dfg.timing",
    ("scheduler", "compute_timing"): "dfg.timing",
    ("cli", "parse_mapping"): "memmap.parse",
    ("cli", "validate_mapping"): "memmap.validate",
    ("scheduler", "validate_mapping"): "memmap.validate",
    ("cli", "compute_min_allocation"): "scheduler.alloc",
    ("cli", "schedule_baseline"): "scheduler.baseline",
    ("cli", "schedule_memory_aware"): "scheduler.mem_aware",
    ("cli", "bruteforce_optimal_makespan"): "scheduler.oracle",
    ("cli", "analyze"): "metrics.analyze",
    ("cli", "compare"): "metrics.compare",
    ("cli", "metrics_to_json"): "metrics.export",
    ("cli", "comparison_to_json"): "metrics.export",
    ("cli", "export_gantt"): "metrics.export",
    ("cli", "export_csv"): "metrics.export",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call: int
    phase: str
    error: str | None = None
    ops: int = 0
    value: int = 0  # a count taken at the boundary, see _observe and record_gap
    children: list[int] = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.modules: dict = {}  # "cli" / "scheduler" -> module, set before install
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.call = 0
        self.phase = "pass"  # "setup" or "pass", set by the runner
        self._last_call: int | None = None  # root span of the latest call
        self._originals: dict[tuple[str, str], object] = {}
        self._last_baseline = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.call, self.phase))
        if parent is not None:
            self.spans[parent].children.append(index)
        self.stack.append(index)
        return index

    def _close(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self.stack.pop()

    def run_call(self, fn, *args):
        """Run one ``cli.main`` call inside a root span named ``cli``."""
        self.call += 1
        index = self._last_call = self._open("cli")
        try:
            result = fn(*args)
        except BaseException as e:
            self._close(index, e)
            raise
        self._close(index)
        return result

    def record_gap(self, cycles: int) -> None:
        """List makespan minus optimum of the latest call's oracle run, as the
        runner's check found it."""
        self.spans[self._last_call].value += cycles

    def _wrap(self, name: str, original):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                self._close(index, e)
                raise
            self._close(index)
            self._observe(self.spans[index], args, result)
            return result
        return wrapper

    def _observe(self, span: Span, args, result) -> None:
        """Counts taken at the layer boundary from arguments and results."""
        if span.name in ("dfg.parse", "scheduler.baseline", "scheduler.mem_aware"):
            graph = result if span.name == "dfg.parse" else args[0]
            span.ops = len(getattr(graph, "operations", ()))
        if span.name == "scheduler.baseline":
            span.value = result.makespan_cycles
            self._last_baseline = result
        elif span.name == "metrics.analyze" and args[0] is self._last_baseline:
            span.value = result.total_conflicts  # the baseline replayed on the banks
        elif span.name == "metrics.export":
            span.value = len(result.encode("utf-8"))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for (mod, attr), name in WRAPPED.items():
            module = self.modules[mod]
            original = getattr(module, attr)
            self._originals[(mod, attr)] = original
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for (mod, attr), original in self._originals.items():
            setattr(self.modules[mod], attr, original)
        self._originals.clear()

    # -- reporting ---------------------------------------------------------

    def self_time(self, span: Span) -> float:
        """Duration minus the time covered by child spans (children are
        nested and sequential, so their durations add up)."""
        covered = sum(self.spans[c].end - self.spans[c].start for c in span.children)
        return span.end - span.start - covered

    def _sums(self, phase: str) -> Counter:
        """(kind, span name) -> sum over the spans of one phase."""
        sums: Counter = Counter()
        for span in self.spans:
            if span.phase != phase:
                continue
            duration = span.end - span.start
            sums["self", span.name] += self.self_time(span)
            sums["total", span.name] += duration
            sums["count", span.name] += 1
            sums["ops", span.name] += span.ops
            sums["value", span.name] += span.value
            if span.error == "TimeConstraintViolated":
                sums["misses", ""] += 1
            if span.name == "scheduler.oracle" and span.error == "CallTimeout":
                sums["timeouts", ""] += 1
            parent = self.spans[span.parent].name if span.parent is not None else ""
            if span.name.startswith("scheduler.") and not parent.startswith("scheduler."):
                sums["engine", ""] += duration
        return sums

    def layer_metrics(self, untraced_s: float, traced_s: float,
                      passes: int = 1) -> dict[str, float]:
        """Per-layer figures of one traced set-up plus one pass: the set-up
        spans once, the pass spans divided by ``passes``. Times are self
        times in seconds. ``untraced_s`` and ``traced_s`` are the same
        calls' wall times without and with the wrappers."""
        setup, per_pass = self._sums("setup"), self._sums("pass")
        sums = {k: setup[k] + per_pass[k] / passes for k in setup.keys() | per_pass.keys()}
        get = lambda kind, name="": sums.get((kind, name), 0.0)
        s = lambda name: get("self", name)
        rate = lambda name: get("ops", name) / get("total", name) if get("total", name) else 0.0
        call_s = get("total", "cli")
        return {
            "scheduler.mem_aware_s": s("scheduler.mem_aware"),
            "scheduler.baseline_s": s("scheduler.baseline"),
            "scheduler.mem_aware_ops_per_s": rate("scheduler.mem_aware"),
            "scheduler.baseline_ops_per_s": rate("scheduler.baseline"),
            "scheduler.oracle_s": s("scheduler.oracle"),
            "scheduler.oracle_calls": get("count", "scheduler.oracle"),
            "scheduler.oracle_timeouts": get("timeouts"),
            "scheduler.oracle_gap_cycles": get("value", "cli"),
            "scheduler.deadline_misses": get("misses"),
            "scheduler.alloc_s": s("scheduler.alloc"),
            "scheduler.baseline_makespan_cycles": get("value", "scheduler.baseline"),
            "dfg.parse_s": s("dfg.parse"),
            "dfg.parse_ops_per_s": rate("dfg.parse"),
            "dfg.validate_s": s("dfg.validate"),
            "dfg.timing_s": s("dfg.timing"),
            "dfg.timing_calls": get("count", "dfg.timing"),
            "memmap.parse_s": s("memmap.parse"),
            "memmap.validate_s": s("memmap.validate"),
            "memmap.validate_calls": get("count", "memmap.validate"),
            "metrics.analyze_s": s("metrics.analyze") + s("metrics.compare"),
            "metrics.export_s": s("metrics.export"),
            "metrics.output_bytes": get("value", "metrics.export"),
            "metrics.replay_conflicts": get("value", "metrics.analyze"),
            "cli.self_s": s("cli"),
            "cli.engine_share": get("engine") / call_s if call_s else 0.0,
            "trace.overhead": traced_s / untraced_s if untraced_s else 0.0,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "call": span.call, "phase": span.phase,
                    "error": span.error,
                }) + "\n")
