"""Resource-constrained list scheduling with optional memory-port gating.

Two policies share one engine. BASELINE treats every data item as
register-resident and packs operations onto a fixed pool of operator
instances, highest priority first (least mobility, then input-sharing
affinity, then id). MEMORY_AWARE adds one bookable access token per bank
port: an operation may only start at cycle t if it is legal under the
mapping's access model (``memmap.AccessModel``) and a port is free for each
of its fetch and store windows. The scanner walks the priority-sorted ready
list and takes the first operation whose ports are all free; blocked
operations simply wait.

Two invariants keep the engine simple. The ready list is fixed within a
cycle: every latency is >= 1, so an operation placed at cycle t completes
after t and readies nothing at t. Priorities do not change under a deadline
shift: moving the deadline moves every ALAP start, hence every slack,
equally. So when a deadline T is missed, one run at 8T with T's timing
answers for 2T and 4T too: an operation the deadline blocks at one cycle is
blocked at every later one, so a run at kT succeeds exactly when the 8T run
finishes by kT.

A branch-and-bound search over start cycles provides exact optimal makespans
for small instances, used as a test oracle and by the CLI ``--oracle`` flag.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping

from .dfg import DataRef, Dfg, OperatorClass, TimingAnalysis, compute_timing, topological_order
from .errors import (
    ClassMismatch,
    Infeasible,
    InfeasibleConstraint,
    MappingInfeasible,
    TimeConstraintViolated,
    TooLarge,
    UnmappedData,
)
from .memmap import AccessModel, MemoryBank, MemoryMapping, validate_mapping


class Policy(enum.Enum):
    BASELINE = "baseline"
    MEMORY_AWARE = "memory_aware"


@dataclass(frozen=True)
class Allocation:
    """How many operator instances exist per class."""

    counts: Mapping[str, int]

    def __post_init__(self):
        for name, count in self.counts.items():
            if count < 1:
                raise ValueError(f"allocation for class {name!r} must be >= 1")

    def count(self, class_name: str) -> int:
        return self.counts.get(class_name, 0)


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling knobs.

    ``model2_reduction`` is the per-operation energy discount applied to
    operations that reuse an input of their instance's previous operation;
    it only affects reporting, never placement.
    """

    time_constraint_cycles: int
    policy: Policy = Policy.BASELINE
    model2_reduction: float = 0.25
    dynamic_mobility: bool = False
    positional_affinity: bool = False
    use_affinity: bool = True
    per_shared_input_energy: bool = False

    def __post_init__(self):
        if self.time_constraint_cycles < 1:
            raise ValueError("time constraint must be >= 1 cycle")
        if not 0.25 <= self.model2_reduction <= 0.50:
            raise ValueError("model2_reduction must lie in [0.25, 0.50]")


@dataclass
class OperatorInstanceState:
    """Mutable bookkeeping for one operator instance during a run."""

    operator_class: OperatorClass
    instance_index: int
    busy_until_cycle: int = 0
    last_operand_sources: tuple[DataRef, ...] | None = None

    @property
    def class_name(self) -> str:
        return self.operator_class.name


@dataclass(frozen=True)
class PortBooking:
    """A half-open cycle interval reserved on one bank port."""

    bank_id: str
    port_index: int
    start: int
    end: int


class PortLedger:
    """Non-overlapping interval bookings per (bank, port)."""

    def __init__(self):
        self._bookings: dict[tuple[str, int], list[tuple[int, int]]] = {}

    def is_free(self, bank_id: str, port_index: int, start: int, end: int) -> bool:
        for s, e in self._bookings.get((bank_id, port_index), ()):
            if s < end and start < e:
                return False
        return True

    def free_ports(self, bank: MemoryBank, start: int, end: int) -> list[int]:
        """Port indices of ``bank`` free over [start, end), ascending."""
        return [p for p in range(bank.ports) if self.is_free(bank.id, p, start, end)]

    def book(self, bank_id: str, port_index: int, start: int, end: int) -> None:
        if not self.is_free(bank_id, port_index, start, end):
            raise ValueError(
                f"overlapping booking on {bank_id} port {port_index}: [{start},{end})"
            )
        self._bookings.setdefault((bank_id, port_index), []).append((start, end))


@dataclass(frozen=True)
class ScheduleEntry:
    """Placement of one operation: when it runs, on which instance, and the
    port intervals reserved for its fetches and its store."""

    op_id: str
    start_cycle: int
    end_cycle: int
    class_name: str
    instance_index: int
    read_bookings: tuple[PortBooking, ...] = ()
    write_booking: PortBooking | None = None
    is_model2: bool = False
    shared_inputs: int = 0

    @property
    def finish_cycle(self) -> int:
        """Cycle at which the result is usable downstream."""
        return self.write_booking.end if self.write_booking else self.end_cycle


@dataclass
class Schedule:
    """Complete schedule for one graph under one configuration."""

    entries: dict[str, ScheduleEntry]
    makespan_cycles: int
    policy: Policy
    config: SchedulerConfig
    allocation: Allocation

    def sorted_entries(self) -> list[ScheduleEntry]:
        return sorted(self.entries.values(), key=lambda e: (e.start_cycle, e.op_id))

    def to_json_dict(self) -> dict:
        entries = []
        for e in self.sorted_entries():
            entry = {
                "op": e.op_id,
                "start": e.start_cycle,
                "end": e.end_cycle,
                "class": e.class_name,
                "instance": e.instance_index,
                "reads": [
                    {"bank": b.bank_id, "port": b.port_index, "from": b.start, "to": b.end}
                    for b in e.read_bookings
                ],
            }
            if e.write_booking is not None:
                b = e.write_booking
                entry["write"] = {
                    "bank": b.bank_id, "port": b.port_index, "from": b.start, "to": b.end,
                }
            entry["model2"] = e.is_model2
            entries.append(entry)
        return {
            "policy": self.policy.value,
            "time_constraint": self.config.time_constraint_cycles,
            "makespan": self.makespan_cycles,
            "entries": entries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def model2_affinity(
    op, inst: OperatorInstanceState, positional: bool = False
) -> int:
    """How many inputs ``op`` shares with the previous operation executed on
    ``inst`` (0 on a fresh instance).

    By default sharing is positional-agnostic: the size of the multiset
    intersection of the two operand lists. With ``positional`` only matching
    port positions count.
    """
    if op.opcode not in inst.operator_class.opcodes:
        raise ClassMismatch(
            f"operation {op.id!r} ({op.opcode}) cannot run on class "
            f"{inst.operator_class.name!r}"
        )
    return _affinity(op.operands, inst.last_operand_sources, positional)


def _affinity(
    operands: tuple[DataRef, ...],
    last: tuple[DataRef, ...] | None,
    positional: bool,
) -> int:
    if last is None:
        return 0
    if positional:
        return sum(1 for a, b in zip(operands, last) if a == b)
    shared = Counter(operands) & Counter(last)
    return sum(shared.values())


def compute_min_allocation(
    g: Dfg, library, time_constraint_cycles: int
) -> Allocation:
    """Average-parallelism lower bound on instance counts: for each class,
    ceil(ops * latency / deadline), at least one."""
    compute_timing(g, library, time_constraint_cycles)  # InfeasibleConstraint guard
    per_class: Counter[str] = Counter()
    for op in g.operations:
        per_class[library.class_for(op.opcode).name] += 1
    counts = {}
    for name, n_ops in sorted(per_class.items()):
        latency = library.class_named(name).latency_cycles
        counts[name] = max(1, -(-n_ops * latency // time_constraint_cycles))
    return Allocation(counts)


def ample_allocation(g: Dfg) -> Allocation:
    """One instance per operation of each class; removes resource contention."""
    per_class: Counter[str] = Counter()
    for op in g.operations:
        per_class[g.class_of(op).name] += 1
    return Allocation(dict(per_class))


# ---------------------------------------------------------------------------
# list-scheduling engine

class _Engine:
    def __init__(self, g: Dfg, alloc: Allocation, cfg: SchedulerConfig,
                 timing: TimingAnalysis, model: AccessModel):
        self.g = g
        self.cfg = cfg
        self.timing = timing
        self.model = model
        self.cls = {op.id: g.class_of(op) for op in g.operations}
        used = sorted({c.name for c in self.cls.values()})
        for name in used:
            if alloc.count(name) < 1:
                raise ValueError(f"allocation covers no instances of class {name!r}")
        self.instances: dict[str, list[OperatorInstanceState]] = {
            name: [
                OperatorInstanceState(g.library.class_named(name), i)
                for i in range(alloc.count(name))
            ]
            for name in used
        }

    def run(self) -> tuple[dict[str, ScheduleEntry], set[str]]:
        T = self.cfg.time_constraint_cycles
        ledger = PortLedger()
        entries: dict[str, ScheduleEntry] = {}
        finish: dict[str, int] = {}
        unscheduled = {op.id for op in self.g.operations}

        t = 0
        while t < T and unscheduled:
            ready = [
                oid for oid in unscheduled
                if all(p in finish and finish[p] <= t for p in self.g.predecessors(oid))
            ]
            while True:
                candidates = []
                for oid in ready:
                    free = self._free_instances(oid, t)
                    if free:
                        bound = self._bind(oid, free)
                        candidates.append((self._priority(oid, bound[0], t), oid, bound))
                candidates.sort(key=lambda item: item[0])
                for _, oid, bound in candidates:
                    plan = self._gate(oid, t, ledger, finish)
                    if plan is not None:
                        self._place(oid, t, bound, plan, ledger, entries, finish)
                        ready.remove(oid)
                        unscheduled.discard(oid)
                        break
                else:
                    break
            t += 1
        return entries, unscheduled

    def _free_instances(self, oid: str, t: int) -> list[OperatorInstanceState]:
        return [
            inst for inst in self.instances[self.cls[oid].name]
            if inst.busy_until_cycle <= t
        ]

    def _bind(self, oid: str, free: list[OperatorInstanceState]):
        """(shared inputs, instance) for ``oid``: the free instance sharing
        the most inputs, lowest index on ties; the lowest index when
        affinity is off."""
        operands = self.g.operation(oid).operands
        pool = free if self.cfg.use_affinity else free[:1]
        shared, _, inst = max(
            (_affinity(operands, i.last_operand_sources, self.cfg.positional_affinity),
             -i.instance_index, i)
            for i in pool
        )
        return shared, inst

    def _priority(self, oid: str, shared: int, t: int):
        if self.cfg.dynamic_mobility:
            slack = self.timing.alap[oid] - t
        else:
            slack = self.timing.mobility[oid]
        return (slack, -shared if self.cfg.use_affinity else 0, oid)

    def _gate(self, oid: str, t: int, ledger: PortLedger, finish: dict[str, int]):
        """Port plan for starting ``oid`` at t, or None when blocked."""
        model = self.model
        if (model.completion(oid, t) > self.cfg.time_constraint_cycles
                or model.earliest_start(oid, finish) > t):
            return None
        reads: list[PortBooking] = []
        write = None
        for w in model.windows(oid, t):
            free = ledger.free_ports(w.bank, w.start, w.end)
            if len(free) < w.count:
                return None
            bookings = [PortBooking(w.bank.id, p, w.start, w.end) for p in free[: w.count]]
            if w.is_store:
                write = bookings[0]
            else:
                reads.extend(bookings)
        return tuple(reads), write

    def _place(self, oid, t, bound, plan, ledger, entries, finish) -> None:
        shared, inst = bound
        reads, write = plan
        end = t + self.cls[oid].latency_cycles
        for b in reads:
            ledger.book(b.bank_id, b.port_index, b.start, b.end)
        if write is not None:
            ledger.book(write.bank_id, write.port_index, write.start, write.end)
        entries[oid] = ScheduleEntry(
            op_id=oid,
            start_cycle=t,
            end_cycle=end,
            class_name=inst.class_name,
            instance_index=inst.instance_index,
            read_bookings=tuple(sorted(reads, key=lambda b: (b.bank_id, b.port_index))),
            write_booking=write,
            is_model2=shared >= 1,
            shared_inputs=shared,
        )
        finish[oid] = self.model.completion(oid, t)
        inst.busy_until_cycle = end
        inst.last_operand_sources = self.g.operation(oid).operands


def _run_or_raise(
    g: Dfg,
    alloc: Allocation,
    cfg: SchedulerConfig,
    timing: TimingAnalysis,
    mapping: MemoryMapping | None,
) -> Schedule:
    if timing.critical_path_cycles > cfg.time_constraint_cycles:
        raise InfeasibleConstraint(timing.critical_path_cycles, cfg.time_constraint_cycles)
    model = AccessModel(g, mapping)
    entries, unscheduled = _Engine(g, alloc, cfg, timing, model).run()
    if unscheduled:
        # One run at 8T answers for 2T and 4T too (see module docs).
        T = cfg.time_constraint_cycles
        relaxed, left = _Engine(
            g, alloc, replace(cfg, time_constraint_cycles=8 * T), timing, model
        ).run()
        suggestion = None
        if not left:
            makespan = max(e.finish_cycle for e in relaxed.values())
            suggestion = next(k * T for k in (2, 4, 8) if k * T >= makespan)
        raise TimeConstraintViolated(sorted(unscheduled), T, suggestion)
    makespan = max((e.finish_cycle for e in entries.values()), default=0)
    return Schedule(entries, makespan, cfg.policy, cfg, alloc)


def schedule_baseline(
    g: Dfg, alloc: Allocation, cfg: SchedulerConfig, timing: TimingAnalysis
) -> Schedule:
    """Priority-list scheduling that ignores memory placement entirely."""
    if cfg.policy is not Policy.BASELINE:
        raise ValueError("schedule_baseline needs cfg.policy = BASELINE")
    return _run_or_raise(g, alloc, cfg, timing, None)


def schedule_memory_aware(
    g: Dfg,
    alloc: Allocation,
    mapping: MemoryMapping,
    cfg: SchedulerConfig,
    timing: TimingAnalysis,
) -> Schedule:
    """List scheduling gated by bank-port availability (see module docs).

    The mapping must validate against the graph: unmapped items raise
    UnmappedData, single operations demanding more ports than a bank owns
    raise MappingInfeasible.
    """
    if cfg.policy is not Policy.MEMORY_AWARE:
        raise ValueError("schedule_memory_aware needs cfg.policy = MEMORY_AWARE")
    problems = validate_mapping(mapping, g)
    for diag in problems:
        if diag.code == "UnmappedData":
            raise UnmappedData(diag.payload)
    if problems:
        raise MappingInfeasible(
            "; ".join(str(d) for d in problems), diagnostics=problems
        )
    return _run_or_raise(g, alloc, cfg, timing, mapping)


# ---------------------------------------------------------------------------
# exact oracle for small instances

_BRUTEFORCE_MAX_OPS = 10


def bruteforce_optimal_makespan(
    g: Dfg,
    alloc: Allocation,
    mapping: MemoryMapping | None = None,
    T_max: int = 64,
) -> tuple[int, Schedule]:
    """Exact minimal makespan by branch-and-bound over start cycles.

    Explores every dependency- and resource-feasible start assignment under
    the access model the list scheduler uses and returns the best makespan
    with one witness schedule. Exponential: guarded to 10 operations.
    """
    ops = list(g.operations)
    if len(ops) > _BRUTEFORCE_MAX_OPS:
        raise TooLarge(f"{len(ops)} operations exceed the oracle guard of "
                       f"{_BRUTEFORCE_MAX_OPS}")
    order = topological_order(g)
    cls = {op.id: g.class_of(op) for op in ops}
    succs = g.successors()
    model = AccessModel(g, mapping)

    tail: dict[str, int] = {}
    for oid in reversed(order):
        tail[oid] = cls[oid].latency_cycles + max(
            (tail[s] for s in succs[oid]), default=0
        )

    # admissible global lower bound: critical path, per-class pigeonhole,
    # per-bank port-cycle pigeonhole
    lower = max((tail[oid] for oid in order), default=0)
    per_class: Counter[str] = Counter()
    port_work: Counter[MemoryBank] = Counter()
    for oid in order:
        per_class[cls[oid].name] += cls[oid].latency_cycles
        for w in model.windows(oid, 0):
            port_work[w.bank] += w.count * (w.end - w.start)
    for name, work in per_class.items():
        lower = max(lower, -(-work // alloc.count(name)))
    for bank, work in port_work.items():
        lower = max(lower, -(-work // bank.ports))

    class_usage: Counter[tuple[str, int]] = Counter()
    port_usage: Counter[tuple[str, int]] = Counter()
    starts: dict[str, int] = {}
    finish: dict[str, int] = {}
    best = T_max + 1
    best_starts: dict[str, int] | None = None

    def cycles_needed(oid: str, s: int):
        """(counter, key, first cycle, end cycle, amount, capacity) for
        starting oid at s."""
        c = cls[oid]
        needs = [(class_usage, c.name, s, s + c.latency_cycles, 1, alloc.count(c.name))]
        needs.extend(
            (port_usage, w.bank.id, w.start, w.end, w.count, w.bank.ports)
            for w in model.windows(oid, s)
        )
        return needs

    def capacity_ok(needs) -> bool:
        for counter, key, lo_c, hi_c, amount, cap in needs:
            for c in range(lo_c, hi_c):
                if counter[(key, c)] + amount > cap:
                    return False
        return True

    def apply(needs, sign: int) -> None:
        for counter, key, lo_c, hi_c, amount, _ in needs:
            for c in range(lo_c, hi_c):
                counter[(key, c)] += sign * amount

    def dfs(i: int) -> None:
        nonlocal best, best_starts
        if best <= lower:
            return
        if i == len(order):
            makespan = max(finish.values(), default=0)
            if makespan < best:
                best = makespan
                best_starts = dict(starts)
            return
        oid = order[i]
        lo = model.earliest_start(oid, finish)
        # latest start that still completes by T_max
        hi = min(T_max - model.completion(oid, 0), best - 1 - tail[oid])
        for s in range(lo, hi + 1):
            needs = cycles_needed(oid, s)
            if not capacity_ok(needs):
                continue
            apply(needs, +1)
            starts[oid] = s
            finish[oid] = model.completion(oid, s)
            dfs(i + 1)
            del starts[oid], finish[oid]
            apply(needs, -1)

    dfs(0)
    if best_starts is None:
        raise Infeasible(f"no schedule fits within {T_max} cycles")
    witness = _witness_schedule(g, alloc, model, best_starts, best, T_max)
    return best, witness


def _witness_schedule(
    g: Dfg,
    alloc: Allocation,
    model: AccessModel,
    starts: Mapping[str, int],
    makespan: int,
    T_max: int,
) -> Schedule:
    """Turn a feasible start assignment into a full schedule: instances and
    ports by greedy interval partitioning in window-start order (exact when
    per-cycle occupancy fits, which the search guaranteed), sharing flags
    replayed per instance in execution order."""
    mapping = model.mapping
    cfg = SchedulerConfig(
        time_constraint_cycles=T_max,
        policy=Policy.MEMORY_AWARE if mapping is not None else Policy.BASELINE,
    )
    cls = {op.id: g.class_of(op) for op in g.operations}
    by_start = sorted(g.operations, key=lambda op: (starts[op.id], op.id))

    instance_free: dict[str, list[int]] = {}
    chosen: dict[str, int] = {}
    for op in by_start:
        name = cls[op.id].name
        frees = instance_free.setdefault(name, [0] * alloc.count(name))
        start = starts[op.id]
        idx = next(i for i, until in enumerate(frees) if until <= start)
        frees[idx] = start + cls[op.id].latency_cycles
        chosen[op.id] = idx

    # All port windows of all ops, one per access, assigned in window-start
    # order so greedy lowest-free-port packing never exceeds the per-cycle
    # occupancy bound.
    ledger = PortLedger()
    read_by_op: dict[str, list[PortBooking]] = {op.id: [] for op in g.operations}
    write_by_op: dict[str, PortBooking | None] = {op.id: None for op in g.operations}
    windows: list[tuple[int, int, str, str, bool]] = []
    for op in by_start:
        for w in model.windows(op.id, starts[op.id]):
            windows.extend([(w.start, w.end, w.bank.id, op.id, w.is_store)] * w.count)
    for w_start, w_end, bank_id, op_id, is_write in sorted(windows):
        bank = mapping.bank_by_id[bank_id]
        port = ledger.free_ports(bank, w_start, w_end)[0]
        ledger.book(bank_id, port, w_start, w_end)
        booking = PortBooking(bank_id, port, w_start, w_end)
        if is_write:
            write_by_op[op_id] = booking
        else:
            read_by_op[op_id].append(booking)

    last_ops: dict[tuple[str, int], tuple[DataRef, ...]] = {}
    entries: dict[str, ScheduleEntry] = {}
    for op in by_start:
        start = starts[op.id]
        end = start + cls[op.id].latency_cycles
        idx = chosen[op.id]
        shared = _affinity(op.operands, last_ops.get((cls[op.id].name, idx)), False)
        last_ops[(cls[op.id].name, idx)] = op.operands
        entries[op.id] = ScheduleEntry(
            op_id=op.id,
            start_cycle=start,
            end_cycle=end,
            class_name=cls[op.id].name,
            instance_index=idx,
            read_bookings=tuple(
                sorted(read_by_op[op.id], key=lambda b: (b.bank_id, b.port_index))
            ),
            write_booking=write_by_op[op.id],
            is_model2=shared >= 1,
            shared_inputs=shared,
        )
    return Schedule(entries, makespan, cfg.policy, cfg, alloc)
