"""Resource-constrained list scheduling with optional memory-port gating.

Two policies share one engine and one ``SchedulerConfig``; the mapping
decides which one runs. BASELINE (no mapping) treats every data item as
register-resident and packs operations onto a fixed pool of operator
instances, highest priority first (least mobility, then input-sharing
affinity, then id). MEMORY_AWARE (a mapping) gates on bank capacity: an
operation may only start at cycle t if it is legal under the mapping's
access model (``memmap.AccessModel``) and, in every cycle of each of its
fetch and store windows, the accesses booked on the bank plus its own fit
the bank's ports. An operation joins the ready list at its earliest legal
start; each cycle the engine queues the best ready operation of each group
the cycle names (below), pops the best, binds it to its best free instance
and places it if its banks have room, otherwise its group sleeps until the
first cycle at which the missing resource can be had. Ports are bound once
the run is over, by one left-edge pass (``_Engine.entries``).

The engine is incremental; these facts keep it equal to re-sorting every
candidate after every placement:

- An operation's earliest start is fixed once all its predecessors are
  placed: it depends only on their completion cycles. So each operation
  counts its unplaced predecessors, and when the count reaches 0 its
  earliest start is computed once and it waits on the timeline for it.
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
- Operations of one class with the same access windows relative to their
  start form a group, interned to an int once per run. At one cycle every
  member of a group finds a free instance or none, and finds room on its
  banks or none, together. Ready operations wait in one heap per group
  under their static key, and a cycle queues only the head of each
  non-empty group it names (below), once.
- One heap, the timeline, holds every wait as (cycle, group, key): an
  operation at its earliest start with its static key, and a blocked group
  at its wake cycle with key (). Within a run instances only get busier
  and banks only gain bookings, so a wake cycle is a lower bound on the
  group's next start: its full class's first release, or for the first
  window its bank has no room for, the ``Profile.clear`` answer of the
  bank's usage at the level that leaves room for the window's accesses
  (``fit``, the oracle's step too), less the window's offset. A cycle pops
  its entries and names their groups; one named early, by an arrival while
  it sleeps or by an older wake-up, finds the same block (resources only
  fill up) and sleeps again with no side effect, so no wake is checked.
  The run fails loudly if the timeline empties with operations left.
  Binding has no side effects, so a popped operation is gated first and,
  when blocked, waits without binding; a bound one goes straight back into
  its group's heap, which stays blocked for the rest of the cycle.
- A head that passes the gate is taken off its heap and the group's next
  head joins the queue before the head binds, so the queue's minimum is
  always the minimum over every candidate: the heap holds no key below its
  head's. Only an unbound queue entry is a head, so each group has at most
  one head queued.

The engine reads no deadline: it places every operation, and the deadline T
is checked once on the finished run. A run that stopped at T would choose
the same until it placed an operation completing after T, so every schedule
that meets T is the one built here. A miss names the operations completing
after T and suggests the smallest of 2T, 4T and 8T the makespan fits.

A branch-and-bound search over start cycles provides exact optimal makespans
for small instances, used as a test oracle and by the CLI ``--oracle`` flag.
It times the graph over its mapping's access model, so its bounds count
memory traffic, and builds the engine once over that model for its deadline,
taking the allocation check and the resource table from it. It adds each
class to the table (it places operations out of start order), and checks and
holds every resource through the engine's one step, ``fit`` and ``hold``. The
witness schedule is placed by the engine's own placement step, in (start, id)
order, which checks it too, and its ports are bound by the engine's binder.
"""

from __future__ import annotations

import enum
import heapq
import json
from collections import Counter
from typing import Mapping, NamedTuple

from .dfg import DataRef, Dfg, _checked
from .errors import (
    Infeasible,
    InfeasibleConstraint,
    MappingInfeasible,
    TimeConstraintViolated,
    TooLarge,
)
from .memmap import (AccessModel, MemoryMapping, Profile, TimingAnalysis, compute_timing,
                     validate_mapping)


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

    def to_json(self) -> str:
        """schedule.json, written in one pass: the bytes of
        ``json.dumps(doc, indent=2) + "\\n"`` for the document README shows."""
        q = json.dumps
        entries = []
        for e in self.sorted_entries():
            reads = ",\n        ".join(_booking_json(b, "        ") for b in e.read_bookings)
            fields = f"[\n        {reads}\n      ]" if reads else "[]"
            if e.write_booking is not None:
                fields += f',\n      "write": {_booking_json(e.write_booking, "      ")}'
            entries.append(
                f'    {{\n      "op": {q(e.op_id)},\n      "start": {e.start_cycle},\n'
                f'      "end": {e.end_cycle},\n      "class": {q(e.class_name)},\n'
                f'      "instance": {e.instance_index},\n      "reads": {fields},\n'
                f'      "model2": {"true" if e.is_model2 else "false"}\n    }}')
        listed = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
        return (f'{{\n  "policy": {q(self.policy.value)},\n'
                f'  "time_constraint": {self.config.time_constraint_cycles},\n'
                f'  "makespan": {self.makespan_cycles},\n  "entries": {listed}\n}}\n')


def _booking_json(b: PortBooking, pad: str) -> str:
    """One booking's object, its closing brace at ``pad``."""
    return (f'{{\n{pad}  "bank": {json.dumps(b.bank_id)},\n{pad}  "port": {b.port_index},\n'
            f'{pad}  "from": {b.start},\n{pad}  "to": {b.end}\n{pad}}}')


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
        used = sorted(Counter(p.operator_class.name for p in self.plans.values()).items())
        for name, _ in used:
            if alloc.count(name) < 1:
                raise ValueError(f"allocation covers no instances of class {name!r}")
        # per class, indexed by instance: the cycle it is busy until and
        # the operands of its last operation (None while it is fresh). A
        # class of n operations gets at most n instances: a fresh instance
        # is bound only while every lower-indexed one is busy.
        self.busy_until = {name: [0] * min(alloc.count(name), n) for name, n in used}
        self.last_operands: dict[str, list[tuple[DataRef, ...] | None]] = {
            name: [None] * len(busy) for name, busy in self.busy_until.items()
        }
        # the resource table: per resource, its capacity and usage (`rid`
        # keeps a bank and a class of one name apart); per op, its holds
        # (resource, first, end, amount) from its start. Each window holds
        # its bank; a bank of n accesses never serves more than n at once.
        accesses = Counter(w.bank for p in self.plans.values()
                           for w in p.windows for _ in range(w.count))
        self.rid = {("bank", bank.id): r for r, bank in enumerate(accesses)}
        self.capacity = [min(bank.ports, n) for bank, n in accesses.items()]
        self.usage = [Profile() for _ in self.capacity]
        self.holds = {oid: [(self.rid["bank", w.bank.id], w.start, w.end, w.count)
                            for w in p.windows] for oid, p in self.plans.items()}
        self.placed: dict[str, tuple[int, int, int]] = {}  # op -> (start, instance, shared)
        self.finish: dict[str, int] = {}  # op -> cycle its result is usable

    def run(self) -> None:
        """Place every operation (module docs)."""
        g, model = self.g, self.model
        affinity = self.cfg.use_affinity
        # optimistic static key (module docs): shared inputs never exceed
        # the operands
        slack = self.timing.alap if self.cfg.dynamic_mobility else self.timing.mobility
        prio = {
            op.id: (slack[op.id], -len(op.operands) if affinity else 0, op.id)
            for op in g.operations
        }
        plans, placed, finish = self.plans, self.placed, self.finish
        succs = g.successors()
        # ready ops wait in one heap per group (module docs), interned from
        # the class and the windows at start 0
        shapes: dict[tuple, int] = {}
        group: dict[str, int] = {}
        for oid, p in plans.items():
            shape = (p.operator_class.name, p.windows)
            group[oid] = shapes.setdefault(shape, len(shapes))
        heaps: list[list[tuple]] = [[] for _ in shapes]
        # unplaced predecessors per op; at 0 it goes on the timeline `due`
        # at its earliest start (module docs)
        waiting = {op.id: len(g.predecessors(op.id)) for op in g.operations}
        due = [(model.earliest_start(oid, finish), group[oid], prio[oid])
               for oid, n in waiting.items() if n == 0]
        heapq.heapify(due)

        while due:
            t, named = due[0][0], set()
            while due and due[0][0] == t:
                _, gid, key = heapq.heappop(due)
                if key:
                    heapq.heappush(heaps[gid], key)
                named.add(gid)
            # entries (key, shared, instance); a group's head stays in its
            # heap and enters unbound, with its optimistic key
            queue = [(heaps[gid][0], 0, None) for gid in named if heaps[gid]]
            heapq.heapify(queue)
            free: dict[str, list[int]] = {}  # per class, built at its first pop
            while queue:
                key, shared, inst = heapq.heappop(queue)
                oid = key[-1]
                name = plans[oid].operator_class.name
                if name not in free:
                    free[name] = [i for i, until in enumerate(self.busy_until[name]) if until <= t]
                pool = free[name]
                at = self.fit(oid, t) if pool else min(self.busy_until[name])  # a full class
                if at > t:
                    # the group waits until `at`: an unbound head stays in
                    # its heap and pulls no successor, a bound one goes back
                    heapq.heappush(due, (at, group[oid], ()))
                    if inst is not None:
                        heapq.heappush(heaps[group[oid]], prio[oid])
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
                self._place(oid, t, shared, inst)
                pool.remove(inst)
                for s in succs[oid]:
                    waiting[s] -= 1
                    if not waiting[s]:
                        heapq.heappush(due, (model.earliest_start(s, finish), group[s], prio[s]))
        if len(placed) < len(waiting):  # the timeline ran dry (module docs)
            raise RuntimeError("no operation left can start")

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

    def hold_classes(self) -> None:
        """Add each class to the table, held over each op's latency, for a
        caller that places ops out of start order (no ``busy_until`` wake)."""
        for name, busy in self.busy_until.items():
            self.rid["class", name] = len(self.capacity)
            self.capacity.append(len(busy))
            self.usage.append(Profile())
        for oid, p in self.plans.items():
            self.holds[oid].append((self.rid["class", p.operator_class.name], 0, p.latency, 1))

    def fit(self, oid: str, t: int) -> int:
        """t when every hold of ``oid`` started at t fits its resource's
        capacity; otherwise a later start before which it cannot fit, the
        answer of the first hold that does not (module docs)."""
        for r, first, end, amount in self.holds[oid]:
            at = self.usage[r].clear(t + first, t + end, self.capacity[r] - amount)
            if at > t + first:
                return at - first
        return t

    def hold(self, oid: str, t: int, sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) the holds of ``oid`` started at t."""
        for r, first, end, amount in self.holds[oid]:
            self.usage[r].add(t + first, t + end, sign * amount)

    def _place(self, oid: str, t: int, shared: int, inst: int) -> None:
        """Start ``oid`` at t on instance ``inst`` of its class and add its
        holds (ValueError when they do not fit)."""
        if self.fit(oid, t) != t:
            raise ValueError(f"{oid} over-subscribes a resource at cycle {t}")
        self.hold(oid, t, 1)
        plan = self.plans[oid]
        name = plan.operator_class.name
        self.placed[oid] = (t, inst, shared)
        self.finish[oid] = t + plan.done
        self.busy_until[name][inst] = t + plan.latency
        self.last_operands[name][inst] = self.operands[oid]

    def entries(self) -> dict[str, ScheduleEntry]:
        """The placed operations as schedule entries, each access bound to a
        port by one left-edge pass: windows in (start, end, op, bank) order,
        each access on the lowest port of its bank whose last window has
        ended, so the accesses of one window take ascending ports. The ports
        busy when a window starts all hold an access in its first cycle, so
        a bank never gets more ports than its peak usage, which the
        placement kept within its capacity. An entry's read bookings are in
        (bank, port) order."""
        plans = self.plans
        windows = sorted([(s + w.start, s + w.end, oid, w)
                          for oid, (s, _, _) in self.placed.items()
                          for w in plans[oid].windows])
        reads: dict[str, list[PortBooking]] = {}
        writes: dict[str, PortBooking] = {}
        ends: dict[str, list[int]] = {}  # per bank, by port: when its last window ends
        for start, end, oid, w in windows:
            ports = ends.setdefault(w.bank.id, [])
            for _ in range(w.count):
                for p, until in enumerate(ports):
                    if until <= start:
                        ports[p] = end
                        break
                else:
                    p = len(ports)
                    ports.append(end)
                booking = PortBooking(w.bank.id, p, start, end)
                if w.is_store:
                    writes[oid] = booking
                else:
                    reads.setdefault(oid, []).append(booking)
        return {
            oid: ScheduleEntry(oid, s, s + plans[oid].latency, plans[oid].operator_class.name,
                               inst, tuple(sorted(reads.get(oid, ()))), writes.get(oid), shared)
            for oid, (s, inst, shared) in self.placed.items()
        }


def _run_or_raise(
    g: Dfg,
    alloc: Allocation,
    cfg: SchedulerConfig,
    timing: TimingAnalysis,
    model: AccessModel,
) -> Schedule:
    if timing.critical_path_cycles > cfg.time_constraint_cycles:
        raise InfeasibleConstraint(timing.critical_path_cycles, cfg.time_constraint_cycles)
    engine = _Engine(g, alloc, cfg, timing, model)
    engine.run()
    T, makespan = cfg.time_constraint_cycles, max(engine.finish.values(), default=0)
    if makespan > T:  # the deadline's one check (module docs)
        late = sorted(oid for oid, done in engine.finish.items() if done > T)
        suggestion = next((k * T for k in (2, 4, 8) if k * T >= makespan), None)
        raise TimeConstraintViolated(late, T, suggestion)
    return Schedule(engine.entries(), cfg, model)


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
    try:  # the bounds below read the mapping's timing
        timing = compute_timing(g, T_max, model := AccessModel(g, mapping))
    except InfeasibleConstraint:
        raise Infeasible(f"no schedule fits within {T_max} cycles") from None
    engine = _Engine(g, alloc, SchedulerConfig(T_max), timing, model)
    engine.hold_classes()  # the search places ops out of start order
    plans, holds, capacity = engine.plans, engine.holds, engine.capacity
    # longest path from an op's start to the end of the graph, memory-aware
    tail = {oid: T_max - alap for oid, alap in timing.alap.items()}
    order = list(timing.asap)  # topological

    # admissible global lower bound: critical path, and per resource its
    # total occupancy spread over its capacity
    work = [0] * len(capacity)
    for held in holds.values():
        for r, first, end, amount in held:
            work[r] += amount * (end - first)
    lower = max([timing.critical_path_cycles]
                + [-(-w // cap) for w, cap in zip(work, capacity)])

    starts: dict[str, int] = {}
    finish: dict[str, int] = {}
    best = T_max + 1
    best_starts: dict[str, int] | None = None

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
        s = model.earliest_start(oid, finish)
        # best <= T_max + 1, so every start tried completes by T_max
        while s + tail[oid] < best:  # best may have dropped in a child
            at = engine.fit(oid, s)
            if at == s:
                engine.hold(oid, s, +1)
                starts[oid] = s
                finish[oid] = s + plans[oid].done
                dfs(i + 1)
                del starts[oid], finish[oid]
                engine.hold(oid, s, -1)
                at += 1
            s = at

    if all(amount <= capacity[r] for held in holds.values() for r, _, _, amount in held):
        dfs(0)  # an op needing more ports than its bank has fits nowhere
    if best_starts is None:
        raise Infeasible(f"no schedule fits within {T_max} cycles")
    return best, _witness_schedule(engine, best_starts)


def _witness_schedule(engine: _Engine, starts: Mapping[str, int]) -> Schedule:
    """Place a feasible start assignment with the engine's own step, in
    (start, id) order, each op on the lowest-index instance free at its
    start, and bind its ports with the engine's binder. Taking the lowest
    free instance is an exact interval partition when the class's occupancy
    fits at every cycle, which the search guaranteed, and the placement
    re-checks every hold, of the op's class as of its banks."""
    for oid in sorted(starts, key=lambda o: (starts[o], o)):
        start = starts[oid]
        name = engine.plans[oid].operator_class.name
        inst = next(i for i, until in enumerate(engine.busy_until[name]) if until <= start)
        shared = _affinity(engine.operands[oid], engine.last_operands[name][inst], False)
        engine._place(oid, start, shared, inst)
    return Schedule(engine.entries(), engine.cfg, engine.model)
