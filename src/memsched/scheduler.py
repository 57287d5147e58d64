"""Resource-constrained list scheduling with optional memory-port gating.

Two policies share one engine and one ``SchedulerConfig``; the mapping
decides which one runs. BASELINE (no mapping) treats every data item as
register-resident and packs operations onto a fixed pool of operator
instances, highest priority first (least mobility, then input-sharing
affinity, then id). MEMORY_AWARE (a mapping) adds one bookable access token
per bank port: an operation may only start at cycle t if it is legal under
the mapping's access model (``memmap.AccessModel``) and a port is free for
each of its fetch and store windows. An operation joins the ready list at its
earliest legal start; each cycle the engine queues the best ready operation
of each group (below) whose class has a free instance, pops the best, binds
it to its best free instance and places it if its ports are free, otherwise
the operation waits for the next cycle.

The engine is incremental; these facts keep it equal to re-sorting every
candidate after every placement:

- An operation's earliest start is fixed once all its predecessors are
  placed: it depends only on their completion cycles. So each operation
  counts its unplaced predecessors, and when the count reaches 0 its
  earliest start is computed once and it waits on a heap for that cycle.
  Every latency is >= 1, so an operation placed at t readies nothing at t.
- Each operation's key is static, computed once per run. Dynamic mobility
  ranks by ALAP start minus the current cycle, but the queue is built anew
  every cycle and that shifts every key in it equally, so the ALAP start
  alone gives the same order.
- The optimistic key (slack, -operand count, id) is a lower bound on the
  true priority (slack, -shared inputs, id): an operation cannot share more
  inputs than it has operands. Within a cycle instances only fill up, and
  binding picks the best of a smaller free set, so a bound key can only get
  worse too. Every queued key is thus a lower bound, so an operation is
  bound only when it pops, and placed once its key is exact and no queued
  key is smaller: right after binding, or when it pops again bound to an
  instance that is still free. Without affinity the key (slack, 0, id) is
  exact from the start.
- Operations of one class with the same completion offset and the same
  access windows relative to their start form a group, interned to an int
  once per run. At one cycle every member of a group meets or misses the
  deadline, finds a free instance or none, and finds its ports free or
  busy, together. Ready operations wait in one heap per group under their
  static key, and a group's head stands for the group: each cycle the queue
  gets the head of every non-empty group whose class has a free instance
  and whose completion offset meets the deadline, and no other operation.
- Instances and ports only fill up within a cycle, so a popped operation
  whose class is full or whose port is busy stays blocked for the rest of
  the cycle, and so does its group. Binding has no side effects, so a
  popped operation is gated first and, when blocked, deferred without
  binding. A blocked head stays in its heap and its group gets no further
  pull this cycle; a bound operation blocked later in the cycle goes back
  into its group's heap when the cycle ends.
- A head that passes the gate is taken off its heap and the group's next
  head joins the queue before the head binds, so the queue's minimum is
  always the minimum over every candidate: the heap holds no key below its
  head's. Only an unbound queue entry is a head, so each group has at most
  one head queued.
- A cycle whose queue is empty is idle until the next arrival or the next
  instance release, so the engine jumps there (to T when neither comes):
  ports matter only to a queued operation, and an operation whose
  completion misses the deadline misses it at every later cycle too.

Priorities do not change under a deadline shift: moving the deadline moves
every ALAP start, hence every slack, equally. So when a deadline T is
missed, one run at 8T with T's timing answers for 2T and 4T too: an
operation the deadline blocks at one cycle is blocked at every later one,
so a run at kT succeeds exactly when the 8T run finishes by kT.

A branch-and-bound search over start cycles provides exact optimal makespans
for small instances, used as a test oracle and by the CLI ``--oracle`` flag.
It builds the engine once for its deadline and takes the classes, the
access model, the allocation check and the instances from it. The search
counts occupancy per (resource, cycle) over each operation's class interval
and port windows; the witness schedule is then placed by the engine's own
placement step, in (start, id) order, so the port ledger checks it too.
"""

from __future__ import annotations

import enum
import heapq
import json
from collections import Counter
from typing import Mapping, NamedTuple

from .dfg import DataRef, Dfg, TimingAnalysis, _checked, compute_timing
from .errors import (
    Infeasible,
    InfeasibleConstraint,
    MappingInfeasible,
    TimeConstraintViolated,
    TooLarge,
)
from .memmap import AccessModel, MemoryBank, MemoryMapping, validate_mapping


class Policy(enum.Enum):
    BASELINE = "baseline"
    MEMORY_AWARE = "memory_aware"


@_checked
class Allocation(NamedTuple):
    """How many operator instances exist per class."""

    counts: Mapping[str, int]

    def _check(self) -> None:
        for name, count in self.counts.items():
            if count < 1:
                raise ValueError(f"allocation for class {name!r} must be >= 1")

    def count(self, class_name: str) -> int:
        return self.counts.get(class_name, 0)


@_checked
class SchedulerConfig(NamedTuple):
    """Scheduling knobs: the deadline and how operations are ranked and bound."""

    time_constraint_cycles: int
    dynamic_mobility: bool = False
    positional_affinity: bool = False
    use_affinity: bool = True

    def _check(self) -> None:
        if self.time_constraint_cycles < 1:
            raise ValueError("time constraint must be >= 1 cycle")


class PortBooking(NamedTuple):
    """A half-open cycle interval reserved on one bank port."""

    bank_id: str
    port_index: int
    start: int
    end: int


class PortLedger:
    """Non-overlapping half-open interval bookings per (bank, port), kept
    as the set of busy cycles of each port: windows last a bank latency, so
    a check costs the window's length, not the number of bookings."""

    def __init__(self):
        self._busy: dict[tuple[str, int], set[int]] = {}

    def is_free(self, bank_id: str, port_index: int, start: int, end: int) -> bool:
        busy = self._busy.get((bank_id, port_index))
        return busy is None or busy.isdisjoint(range(start, end))

    def free_ports(self, bank: MemoryBank, start: int, end: int) -> list[int]:
        """Port indices of ``bank`` free over [start, end), ascending."""
        return [p for p in range(bank.ports) if self.is_free(bank.id, p, start, end)]

    def book(self, bank_id: str, port_index: int, start: int, end: int) -> None:
        if not self.is_free(bank_id, port_index, start, end):
            raise ValueError(
                f"overlapping booking on {bank_id} port {port_index}: [{start},{end})"
            )
        self._busy.setdefault((bank_id, port_index), set()).update(range(start, end))


class ScheduleEntry(NamedTuple):
    """Placement of one operation: when it runs, on which instance, and the
    port intervals reserved for its fetches and its store."""

    op_id: str
    start_cycle: int
    end_cycle: int
    class_name: str
    instance_index: int
    read_bookings: tuple[PortBooking, ...] = ()
    write_booking: PortBooking | None = None
    shared_inputs: int = 0

    @property
    def is_model2(self) -> bool:
        """Whether the operation shares an input with its instance's last."""
        return self.shared_inputs >= 1


class Schedule:
    """Complete schedule for one graph under one configuration.

    ``model`` is the access model the entries obey: the mapping's for a
    memory-aware schedule, the register-only one for a memory-blind one, and
    None for a schedule built by hand. It is the model ``metrics.analyze``
    replays a schedule against, and it never goes into ``schedule.json``;
    equality ignores it. The makespan and the policy are read off the
    entries and the model, so they always describe what the schedule holds.
    """

    __slots__ = ("entries", "config", "model")

    def __init__(self, entries: dict[str, ScheduleEntry], config: SchedulerConfig,
                 model: AccessModel | None = None):
        self.entries = entries
        self.config = config
        self.model = model

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.config) == (other.entries, other.config)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Schedule(entries={self.entries!r}, config={self.config!r})"

    @property
    def makespan_cycles(self) -> int:
        """The latest cycle at which an entry's result is usable, its store's
        end or else its own; 0 when there are none."""
        return max((e.write_booking.end if e.write_booking else e.end_cycle
                    for e in self.entries.values()), default=0)

    @property
    def policy(self) -> Policy:
        """MEMORY_AWARE when the entries obey a mapping's access model,
        otherwise BASELINE."""
        if self.model is None or self.model.mapping is None:
            return Policy.BASELINE
        return Policy.MEMORY_AWARE

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


def _affinity(
    operands: tuple[DataRef, ...],
    last: tuple[DataRef, ...] | None,
    positional: bool,
) -> int:
    """How many of ``operands`` an instance shares with the operands ``last``
    of its previous operation (0 on a fresh instance, ``last`` None).

    By default sharing is positional-agnostic: the size of the multiset
    intersection of the two operand lists. With ``positional`` only matching
    port positions count.
    """
    if last is None:
        return 0
    if positional:
        return sum(1 for a, b in zip(operands, last) if a == b)
    rest = list(last)
    shared = 0
    for ref in operands:
        if ref in rest:
            rest.remove(ref)
            shared += 1
    return shared


def compute_min_allocation(g: Dfg, time_constraint_cycles: int) -> Allocation:
    """Average-parallelism lower bound on instance counts: for each class of
    the graph's library, ceil(ops * latency / deadline), at least one.

    Only arithmetic: whether the deadline fits the critical path is
    :func:`compute_timing`'s rule. A deadline below one cycle on a graph with
    operations raises ValueError.
    """
    per_class = Counter(g.class_of(op).name for op in g.operations)
    if per_class and time_constraint_cycles < 1:
        raise ValueError("time constraint must be >= 1 cycle")
    return Allocation({
        name: max(1, -(-n_ops * g.library.class_named(name).latency_cycles
                       // time_constraint_cycles))
        for name, n_ops in sorted(per_class.items())
    })


# ---------------------------------------------------------------------------
# list-scheduling engine

class _Engine:
    def __init__(self, g: Dfg, alloc: Allocation, cfg: SchedulerConfig,
                 timing: TimingAnalysis, model: AccessModel):
        self.g = g
        self.cfg = cfg
        self.timing = timing
        self.model = model
        # each op's class, latency, completion offset and windows at start 0
        self.plans = model.plans
        self.operands = {op.id: op.operands for op in g.operations}
        used = sorted({p.operator_class.name for p in self.plans.values()})
        for name in used:
            if alloc.count(name) < 1:
                raise ValueError(f"allocation covers no instances of class {name!r}")
        # per class, indexed by instance: the cycle it is busy until and
        # the operands of its last operation (None while it is fresh)
        self.busy_until: dict[str, list[int]] = {
            name: [0] * alloc.count(name) for name in used
        }
        self.last_operands: dict[str, list[tuple[DataRef, ...] | None]] = {
            name: [None] * alloc.count(name) for name in used
        }

    def run(self) -> tuple[dict[str, ScheduleEntry], set[str]]:
        g, model = self.g, self.model
        T = self.cfg.time_constraint_cycles
        affinity = self.cfg.use_affinity
        # optimistic static key (module docs): shared inputs never exceed
        # the operands
        slack = self.timing.alap if self.cfg.dynamic_mobility else self.timing.mobility
        prio = {
            op.id: (slack[op.id], -len(op.operands) if affinity else 0, op.id)
            for op in g.operations
        }
        plans = self.plans
        ledger = PortLedger()
        entries: dict[str, ScheduleEntry] = {}
        finish: dict[str, int] = {}
        succs = g.successors()
        # unplaced predecessors per op; at 0 its earliest start is fixed and
        # it waits in `arrivals` until that cycle, then joins its group's heap
        waiting = {op.id: len(g.predecessors(op.id)) for op in g.operations}
        arrivals = [(model.earliest_start(oid, finish), oid)
                    for oid, n in waiting.items() if n == 0]
        heapq.heapify(arrivals)
        # ready ops wait in one heap per group (module docs), interned from
        # the class, the completion offset and the windows at start 0
        shapes: dict[tuple, int] = {}
        group: dict[str, int] = {}
        for oid, p in plans.items():
            shape = (p.operator_class.name, p.done, p.windows)
            group[oid] = shapes.setdefault(shape, len(shapes))
        heaps: list[list[tuple]] = [[] for _ in shapes]
        # (group, completion offset) per class
        groups_of_class: dict[str, list[tuple[int, int]]] = {n: [] for n in self.busy_until}
        for (name, done, _), gid in shapes.items():
            groups_of_class[name].append((gid, done))

        t = 0
        while t < T and len(entries) < len(waiting):
            while arrivals and arrivals[0][0] <= t:
                oid = heapq.heappop(arrivals)[1]
                heapq.heappush(heaps[group[oid]], prio[oid])
            free = {
                name: [i for i, until in enumerate(busy) if until <= t]
                for name, busy in self.busy_until.items()
            }
            # entries (key, shared, instance); a group's head stays in its
            # heap and enters unbound, with its optimistic key
            queue = [
                (heaps[gid][0], 0, None)
                for name, pool in free.items() if pool
                for gid, done in groups_of_class[name]
                if heaps[gid] and t + done <= T
            ]
            if not queue:
                # idle until an op arrives or an instance frees (module docs)
                wake = [until for busy in self.busy_until.values()
                        for until in busy if until > t]
                if arrivals:
                    wake.append(arrivals[0][0])
                t = min(wake, default=T)
                continue
            heapq.heapify(queue)
            deferred: list[str] = []  # bound ops blocked later in the cycle
            while queue:
                key, shared, inst = heapq.heappop(queue)
                oid = key[-1]
                name = plans[oid].operator_class.name
                pool = free[name]
                ports = self._gate(oid, t, ledger) if pool else None
                if ports is None:
                    # the group is blocked for the rest of the cycle: an
                    # unbound head stays in its heap and pulls no successor
                    if inst is not None:
                        deferred.append(oid)
                    continue
                if inst is None:
                    # pull the group's next head before binding, so the
                    # queue's minimum stays the global one
                    heap = heaps[group[oid]]
                    heapq.heappop(heap)
                    if heap:
                        heapq.heappush(queue, (heap[0], 0, None))
                if inst is None or self.busy_until[name][inst] > t:
                    # unbound, or its instance was taken this cycle: bind,
                    # and requeue unless the exact key is still the best
                    shared, inst = self._bind(oid, name, pool)
                    key = (key[0], -shared if affinity else 0, oid)
                    if queue and queue[0][0] < key:
                        heapq.heappush(queue, (key, shared, inst))
                        continue
                self._place(oid, t, shared, inst, ports, ledger, entries, finish)
                pool.remove(inst)
                for s in succs[oid]:
                    waiting[s] -= 1
                    if not waiting[s]:
                        heapq.heappush(arrivals, (model.earliest_start(s, finish), s))
            for oid in deferred:
                heapq.heappush(heaps[group[oid]], prio[oid])
            t += 1
        return entries, {oid for oid in waiting if oid not in entries}

    def _bind(self, oid: str, name: str, pool: list[int]):
        """(shared inputs, instance) for ``oid`` among the free instances
        ``pool`` of its class ``name`` (ascending): the one sharing the most
        inputs, lowest index on ties; the lowest index when affinity is off."""
        operands = self.operands[oid]
        last = self.last_operands[name]
        positional = self.cfg.positional_affinity
        if not self.cfg.use_affinity:
            pool = pool[:1]
        shared, inst = max((_affinity(operands, last[i], positional), -i) for i in pool)
        return shared, -inst

    def _gate(self, oid: str, t: int, ledger: PortLedger):
        """The lowest free ports of each access window of ``oid`` started
        at t, or None when a bank has too few free."""
        ports = []
        for bank, count, first, end, _ in self.plans[oid].windows:
            free = ledger.free_ports(bank, t + first, t + end)
            if len(free) < count:
                return None
            ports.append(free[:count])
        return ports

    def _place(self, oid, t, shared, inst, ports, ledger, entries, finish) -> None:
        """Start ``oid`` at t on instance ``inst`` of its class, booking
        ``ports[k]`` for its k-th access window. Windows come by bank id and
        their ports ascending, so the read bookings come out in (bank, port)
        order."""
        plan = self.plans[oid]
        name = plan.operator_class.name
        reads: list[PortBooking] = []
        write = None
        for (bank, _, first, last, is_store), chosen in zip(plan.windows, ports):
            first += t
            last += t
            for p in chosen:
                ledger.book(bank.id, p, first, last)
                booking = PortBooking(bank.id, p, first, last)
                if is_store:
                    write = booking
                else:
                    reads.append(booking)
        end = t + plan.latency
        entries[oid] = ScheduleEntry(
            op_id=oid,
            start_cycle=t,
            end_cycle=end,
            class_name=name,
            instance_index=inst,
            read_bookings=tuple(reads),
            write_booking=write,
            shared_inputs=shared,
        )
        finish[oid] = t + plan.done
        self.busy_until[name][inst] = end
        self.last_operands[name][inst] = self.operands[oid]


def _run_or_raise(
    g: Dfg,
    alloc: Allocation,
    cfg: SchedulerConfig,
    timing: TimingAnalysis,
    model: AccessModel,
) -> Schedule:
    if timing.critical_path_cycles > cfg.time_constraint_cycles:
        raise InfeasibleConstraint(timing.critical_path_cycles, cfg.time_constraint_cycles)
    entries, unscheduled = _Engine(g, alloc, cfg, timing, model).run()
    if unscheduled:
        # One run at 8T answers for 2T and 4T too (see module docs).
        T = cfg.time_constraint_cycles
        relaxed, left = _Engine(
            g, alloc, cfg._replace(time_constraint_cycles=8 * T), timing, model
        ).run()
        suggestion = None
        if not left:
            makespan = Schedule(relaxed, cfg).makespan_cycles
            suggestion = next(k * T for k in (2, 4, 8) if k * T >= makespan)
        raise TimeConstraintViolated(sorted(unscheduled), T, suggestion)
    return Schedule(entries, cfg, model)


def schedule_baseline(
    g: Dfg, alloc: Allocation, cfg: SchedulerConfig, timing: TimingAnalysis
) -> Schedule:
    """Priority-list scheduling that ignores memory placement entirely."""
    return _run_or_raise(g, alloc, cfg, timing, AccessModel(g))


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
    # building the model raises UnmappedData at the first unmapped item, in
    # the order validate_mapping reports them, and walks the operands once
    model = AccessModel(g, mapping)
    problems = validate_mapping(mapping, g, model)
    if problems:
        raise MappingInfeasible(
            "; ".join(str(d) for d in problems), diagnostics=problems
        )
    return _run_or_raise(g, alloc, cfg, timing, model)


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
    if len(g.operations) > _BRUTEFORCE_MAX_OPS:
        raise TooLarge(f"{len(g.operations)} operations exceed the oracle guard of "
                       f"{_BRUTEFORCE_MAX_OPS}")
    try:
        timing = compute_timing(g, T_max)
    except InfeasibleConstraint:
        raise Infeasible(f"no schedule fits within {T_max} cycles") from None
    engine = _Engine(g, alloc, SchedulerConfig(T_max), timing, AccessModel(g, mapping))
    plans, model = engine.plans, engine.model
    # longest path from an op's start to the end of the graph
    tail = {oid: T_max - alap for oid, alap in timing.alap.items()}
    order = list(timing.asap)  # topological

    # what an op holds relative to its start, as (resource, first cycle,
    # end cycle, amount): one instance of its class over its latency and the
    # ports of each access window. Resources are indices because a class
    # and a bank may share a name.
    capacity = [len(busy) for busy in engine.busy_until.values()]
    rid = {("class", name): r for r, name in enumerate(engine.busy_until)}
    for bank in mapping.banks if mapping is not None else ():
        rid["bank", bank.id] = len(capacity)
        capacity.append(bank.ports)
    holds = {
        oid: [(rid["class", plans[oid].operator_class.name], 0, plans[oid].latency, 1)]
        + [(rid["bank", w.bank.id], w.start, w.end, w.count) for w in plans[oid].windows]
        for oid in order
    }

    # admissible global lower bound: critical path, and per resource its
    # total occupancy spread over its capacity
    work = [0] * len(capacity)
    for held in holds.values():
        for r, first, end, amount in held:
            work[r] += amount * (end - first)
    lower = max([timing.critical_path_cycles]
                + [-(-w // cap) for w, cap in zip(work, capacity)])

    usage: Counter[tuple[int, int]] = Counter()
    starts: dict[str, int] = {}
    finish: dict[str, int] = {}
    best = T_max + 1
    best_starts: dict[str, int] | None = None

    def fits(oid: str, s: int) -> bool:
        for r, first, end, amount in holds[oid]:
            room = capacity[r] - amount
            for c in range(s + first, s + end):
                if usage[(r, c)] > room:
                    return False
        return True

    def hold(oid: str, s: int, sign: int) -> None:
        for r, first, end, amount in holds[oid]:
            for c in range(s + first, s + end):
                usage[(r, c)] += sign * amount

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
        hi = T_max - plans[oid].done
        for s in range(lo, hi + 1):
            if s + tail[oid] >= best:  # best may have dropped in a child
                break
            if not fits(oid, s):
                continue
            hold(oid, s, +1)
            starts[oid] = s
            finish[oid] = s + plans[oid].done
            dfs(i + 1)
            del starts[oid], finish[oid]
            hold(oid, s, -1)

    dfs(0)
    if best_starts is None:
        raise Infeasible(f"no schedule fits within {T_max} cycles")
    return best, _witness_schedule(engine, best_starts)


def _witness_schedule(engine: _Engine, starts: Mapping[str, int]) -> Schedule:
    """Place a feasible start assignment with the engine's own step, in
    (start, id) order: each op on the lowest-index instance free at its
    start, each access on the lowest port whose last window ended by the
    access's start. Both are exact interval partitions when the per-cycle
    occupancy fits, which the search guaranteed, and the ledger re-checks
    every booking."""
    accesses = sorted(
        (s + w.start, s + w.end, oid, k, w.bank.id, w.bank.ports)
        for oid, s in starts.items()
        for k, w in enumerate(engine.plans[oid].windows)
        for _ in range(w.count)
    )
    ports = {oid: [[] for _ in engine.plans[oid].windows] for oid in starts}
    port_ends: dict[str, list[int]] = {}  # end of each port's last window
    for start, end, oid, k, bank_id, n_ports in accesses:
        ends = port_ends.setdefault(bank_id, [0] * n_ports)
        port = next(p for p, e in enumerate(ends) if e <= start)
        ends[port] = end
        ports[oid][k].append(port)

    ledger = PortLedger()
    entries: dict[str, ScheduleEntry] = {}
    finish: dict[str, int] = {}
    for oid in sorted(starts, key=lambda o: (starts[o], o)):
        start = starts[oid]
        name = engine.plans[oid].operator_class.name
        inst = next(i for i, until in enumerate(engine.busy_until[name]) if until <= start)
        shared = _affinity(engine.operands[oid], engine.last_operands[name][inst], False)
        engine._place(oid, start, shared, inst, ports[oid], ledger, entries, finish)
    return Schedule(entries, engine.cfg, engine.model)
