"""Independent oracles and invariant checkers used by the test suite.

Everything here deliberately avoids the package's scheduling, timing and
placement code paths: timing is checked by explicit path enumeration and
against the latency-only rule ``compute_timing`` used to state, small
memory cases by exhaustive start-tuple search, and schedules by a
from-scratch invariant checker that restates the README's placement and
access rules itself.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict

from memsched import (
    Allocation,
    DataRef,
    Dfg,
    InfeasibleConstraint,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    Schedule,
    TimingAnalysis,
    scalar,
    topological_order,
    validate_mapping,
)


# ---------------------------------------------------------------------------
# timing oracle: explicit enumeration of every dependency path

def enumerate_timing(latency: dict[str, int], preds: dict[str, set[str]], T: int):
    """ASAP/ALAP by brute-force path enumeration (exponential, tiny graphs)."""
    succs: dict[str, set[str]] = {v: set() for v in latency}
    for v, ps in preds.items():
        for p in ps:
            succs[p].add(v)

    def paths_into(v):
        if not preds[v]:
            yield (v,)
            return
        for p in preds[v]:
            for path in paths_into(p):
                yield path + (v,)

    def paths_outof(v):
        if not succs[v]:
            yield (v,)
            return
        for s in succs[v]:
            for path in paths_outof(s):
                yield (v,) + path

    asap = {
        v: max(sum(latency[u] for u in path[:-1]) for path in paths_into(v))
        for v in latency
    }
    alap = {
        v: T - max(sum(latency[u] for u in path) for path in paths_outof(v))
        for v in latency
    }
    critical = max((asap[v] + latency[v] for v in latency), default=0)
    return asap, alap, critical


def latency_timing(g: Dfg, time_constraint_cycles: int) -> TimingAnalysis:
    """The latency-only timing rule that ``compute_timing`` stated before it
    read the access model's plans, kept as the reference its register-only
    timing must equal: ASAP is the forward longest path over class
    latencies, ALAP is anchored so every operation finishes by the deadline,
    mobility is their difference. Raises InfeasibleConstraint when the
    critical path does not fit the deadline."""
    latency = {op.id: g.class_of(op).latency_cycles for op in g.operations}
    order = topological_order(g)

    asap: dict[str, int] = {}
    for op_id in order:
        asap[op_id] = max((asap[p] + latency[p] for p in g.predecessors(op_id)), default=0)
    critical = max((asap[o] + latency[o] for o in asap), default=0)
    if critical > time_constraint_cycles:
        raise InfeasibleConstraint(critical, time_constraint_cycles)

    succs = g.successors()
    alap: dict[str, int] = {}
    for op_id in reversed(order):
        if succs[op_id]:
            alap[op_id] = min(alap[s] for s in succs[op_id]) - latency[op_id]
        else:
            alap[op_id] = time_constraint_cycles - latency[op_id]

    mobility = {o: alap[o] - asap[o] for o in asap}
    return TimingAnalysis(asap, alap, mobility, critical)


# ---------------------------------------------------------------------------
# exhaustive start search for tiny memory-contention cases

def enumerate_independent_starts(ops, alloc_counts, banks, horizon):
    """All feasible start tuples for independent operations under port rules.

    ``ops``: list of (op_id, class_name, latency, reads) where reads maps a
    bank id to the number of simultaneous fetches. Fetches occupy the window
    [start - read_latency, start) and may not start before cycle
    read_latency; per-cycle port demand may not exceed the bank's ports and
    per-cycle running operations of a class may not exceed its allocation.
    Returns a list of (starts tuple, makespan).
    """
    bank_by_id = {b.id: b for b in banks}
    feasible = []
    for starts in itertools.product(range(horizon + 1), repeat=len(ops)):
        class_use: Counter = Counter()
        port_use: Counter = Counter()
        ok = True
        for (op_id, cls, lat, reads), s in zip(ops, starts):
            for c in range(s, s + lat):
                class_use[(cls, c)] += 1
                if class_use[(cls, c)] > alloc_counts[cls]:
                    ok = False
            for bank_id, k in reads.items():
                bank = bank_by_id[bank_id]
                w0 = s - bank.read_latency_cycles
                if w0 < 0:
                    ok = False
                    break
                for c in range(w0, s):
                    port_use[(bank_id, c)] += k
                    if port_use[(bank_id, c)] > bank.ports:
                        ok = False
            if not ok:
                break
        if ok:
            makespan = max(s + lat for (_, _, lat, _), s in zip(ops, starts))
            feasible.append((starts, makespan))
    return feasible


# ---------------------------------------------------------------------------
# placement and access rules, restated from the README

def _bank_of(ref: DataRef, mapping: MemoryMapping | None) -> MemoryBank | None:
    """The bank holding ``ref``, None for a register or without a mapping: an
    element entry overrides its array's entry, then the REGISTER default
    applies."""
    if mapping is None:
        return None
    target = mapping.placement.get(ref.name)
    if target is None and ref.array is not None:
        target = mapping.placement.get(ref.array)
    if target is None:
        assert mapping.default_register, f"{ref.name} is unmapped"
        return None
    return None if target == "REGISTER" else next(b for b in mapping.banks if b.id == target)


def _fetches(op: Operation, mapping: MemoryMapping | None) -> Counter:
    """Fetches per bank: each distinct operand is fetched once."""
    banks = [_bank_of(ref, mapping) for ref in set(op.operands)]
    return Counter(bank for bank in banks if bank is not None)


# ---------------------------------------------------------------------------
# schedule invariant checker

def check_schedule_safety(
    g: Dfg,
    s: Schedule,
    mapping: MemoryMapping | None,
    alloc: Allocation,
) -> list[str]:
    """All safety violations of a schedule; empty means safe.

    Checks dependency and operand-arrival order, per-cycle operator-instance
    limits, port bookings (shape, index range, per-port non-overlap) and the
    makespan bookkeeping.
    """
    errors: list[str] = []
    cls = {op.id: g.class_of(op) for op in g.operations}

    if set(s.entries) != {op.id for op in g.operations}:
        return [f"entry set mismatch: {sorted(s.entries)}"]

    for op in g.operations:
        e = s.entries[op.id]
        lat = cls[op.id].latency_cycles
        if e.start_cycle < 0:
            errors.append(f"{op.id}: negative start {e.start_cycle}")
        if e.end_cycle - e.start_cycle != lat:
            errors.append(f"{op.id}: span {e.end_cycle - e.start_cycle} != latency {lat}")

    # a result is usable at its store's end, otherwise at its execution end
    writer = {op.result: op.id for op in g.operations}
    finish = {}
    for op in g.operations:
        wbank = _bank_of(op.result, mapping)
        finish[op.id] = s.entries[op.id].end_cycle + (wbank.write_latency_cycles if wbank else 0)
    for op in g.operations:
        e = s.entries[op.id]
        for pred in g.predecessors(op.id):
            if finish[pred] > e.start_cycle:
                errors.append(
                    f"dependency {pred}->{op.id}: finish {finish[pred]} "
                    f"> start {e.start_cycle}"
                )
        for ref in set(op.operands):
            bank = _bank_of(ref, mapping)
            if bank is None:
                continue
            w0 = e.start_cycle - bank.read_latency_cycles
            if w0 < 0:
                errors.append(f"{op.id}: read window before cycle 0 on {bank.id}")
            producer = writer.get(ref)
            if producer is not None and finish[producer] > w0:
                errors.append(
                    f"{op.id}: operand {ref.name} arrives at "
                    f"{finish[producer]}, window starts {w0}"
                )

    # per-cycle operator occupancy
    usage: Counter = Counter()
    for e in s.entries.values():
        for c in range(e.start_cycle, e.end_cycle):
            usage[(e.class_name, c)] += 1
    for (name, c), n in usage.items():
        if n > alloc.count(name):
            errors.append(f"class {name} runs {n} ops at cycle {c}, has {alloc.count(name)}")

    # port bookings
    per_port = defaultdict(list)
    for op in g.operations:
        e = s.entries[op.id]
        for b in e.read_bookings:
            if b.end != e.start_cycle:
                errors.append(f"{op.id}: read booking ends at {b.end}, start is {e.start_cycle}")
            per_port[(b.bank_id, b.port_index)].append((b.start, b.end, op.id))
        if e.write_booking is not None:
            b = e.write_booking
            if b.start != e.end_cycle:
                errors.append(f"{op.id}: write booking starts at {b.start}, end is {e.end_cycle}")
            per_port[(b.bank_id, b.port_index)].append((b.start, b.end, op.id))
        if mapping is not None:
            want_reads = {bank.id: n for bank, n in _fetches(op, mapping).items()}
            got_reads: Counter = Counter(b.bank_id for b in e.read_bookings)
            if dict(got_reads) != want_reads:
                errors.append(f"{op.id}: read bookings {dict(got_reads)} != required {want_reads}")
            wbank = _bank_of(op.result, mapping)
            if (wbank is None) != (e.write_booking is None):
                errors.append(f"{op.id}: write booking does not match result placement")
            elif wbank is not None:
                b = e.write_booking
                if b.bank_id != wbank.id or b.end - b.start != wbank.write_latency_cycles:
                    errors.append(f"{op.id}: write booking window wrong")

    for (bank_id, port), intervals in per_port.items():
        if mapping is None:
            errors.append(f"bookings on {bank_id} without a mapping")
            continue
        bank = next((b for b in mapping.banks if b.id == bank_id), None)
        if bank is None:
            errors.append(f"booking on unknown bank {bank_id}")
            continue
        if not 0 <= port < bank.ports:
            errors.append(f"port index {port} out of range on {bank_id}")
        ordered = sorted(intervals)
        for (s1, e1, op1), (s2, e2, op2) in zip(ordered, ordered[1:]):
            if s2 < e1:
                errors.append(
                    f"overlap on {bank_id}.p{port}: {op1}[{s1},{e1}) vs {op2}[{s2},{e2})"
                )

    expected_makespan = max(finish.values(), default=0)
    if s.makespan_cycles != expected_makespan:
        errors.append(
            f"makespan {s.makespan_cycles} != max finish {expected_makespan}"
        )
    if s.makespan_cycles > s.config.time_constraint_cycles:
        errors.append("makespan exceeds the time constraint")
    return errors


# ---------------------------------------------------------------------------
# reference schedule.json document

def schedule_doc(s: Schedule) -> dict:
    """The document ``s.to_json()`` writes, as plain JSON values: the
    entries in start order, each with its reads, its store when it has one,
    and whether it shares an input."""
    def booking(b):
        return {"bank": b.bank_id, "port": b.port_index, "from": b.start, "to": b.end}

    entries = []
    for e in sorted(s.entries.values(), key=lambda e: (e.start_cycle, e.op_id)):
        entry = {
            "op": e.op_id,
            "start": e.start_cycle,
            "end": e.end_cycle,
            "class": e.class_name,
            "instance": e.instance_index,
            "reads": [booking(b) for b in e.read_bookings],
        }
        if e.write_booking is not None:
            entry["write"] = booking(e.write_booking)
        entry["model2"] = e.shared_inputs >= 1
        entries.append(entry)
    return {
        "policy": s.policy.value,
        "time_constraint": s.config.time_constraint_cycles,
        "makespan": s.makespan_cycles,
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# random problem generator (seeded, deterministic)

def make_library(rng: random.Random, n_classes: int) -> OperatorLibrary:
    energies = (0.5, 1.0, 2.0, 4.0, 8.0)
    classes = [
        OperatorClass(
            name=f"c{k}",
            opcodes=frozenset({f"f{k}"}),
            latency_cycles=rng.randint(1, 3),
            base_energy=rng.choice(energies),
        )
        for k in range(n_classes)
    ]
    return OperatorLibrary(classes)


def random_dfg(rng: random.Random, n_ops: int, library: OperatorLibrary) -> Dfg:
    """Random DAG: operands come from earlier results or a small input pool,
    so the graph is acyclic by construction."""
    inputs = [scalar(f"in{i}") for i in range(6)]
    results: list[DataRef] = []
    ops = []
    class_list = list(library)
    for i in range(n_ops):
        cls = rng.choice(class_list)
        opcode = sorted(cls.opcodes)[0]
        arity = rng.randint(1, 2)
        operands = []
        for _ in range(arity):
            if results and rng.random() < 0.6:
                operands.append(rng.choice(results[-8:]))
            else:
                operands.append(rng.choice(inputs))
        result = scalar(f"d{i:03d}")
        extra = frozenset()
        if ops and rng.random() < 0.1:
            extra = frozenset({rng.choice(ops).id})
        ops.append(Operation(f"op{i:03d}", opcode, tuple(operands), result, extra))
        results.append(result)
    return Dfg.build(ops, library)


def random_mapping(rng: random.Random, g: Dfg, n_banks: int) -> MemoryMapping:
    """Random placement over ``n_banks`` banks, repaired so no single
    operation demands more ports than a bank owns."""
    banks = [
        MemoryBank(
            id=f"B{j}",
            ports=rng.randint(1, 2),
            read_latency_cycles=rng.randint(1, 2),
            write_latency_cycles=rng.randint(1, 2),
            level=0,
        )
        for j in range(n_banks)
    ]
    placement: dict[str, str] = {}
    if banks:
        for name in sorted(ref.name for ref in g.data_items()):
            if rng.random() < 0.6:
                placement[name] = rng.choice(banks).id
    mapping = MemoryMapping(banks, placement, default_register=True)
    for _ in range(4):
        problems = [d for d in validate_mapping(mapping, g) if d.code == "PortOverSubscribed"]
        if not problems:
            break
        widen = {}
        for diag in problems:
            bank_id = diag.details["bank"]
            widen[bank_id] = max(widen.get(bank_id, 0), diag.details["need"])
        banks = [
            MemoryBank(
                id=b.id,
                ports=max(b.ports, widen.get(b.id, 0)),
                read_latency_cycles=b.read_latency_cycles,
                write_latency_cycles=b.write_latency_cycles,
                level=b.level,
            )
            for b in banks
        ]
        mapping = MemoryMapping(banks, placement, default_register=True)
    assert not validate_mapping(mapping, g)
    return mapping


def one_instance_per_op(g: Dfg) -> Allocation:
    """One instance per operation of each class: no operation waits for an
    instance."""
    return Allocation(dict(Counter(g.class_of(op).name for op in g.operations)))


def generous_deadline(g: Dfg, mapping: MemoryMapping | None = None) -> int:
    """A deadline that always admits a fully serialized schedule."""
    total = 0
    for op in g.operations:
        total += g.class_of(op).latency_cycles
        total += sum(bank.read_latency_cycles for bank in _fetches(op, mapping))
        wbank = _bank_of(op.result, mapping)
        if wbank is not None:
            total += wbank.write_latency_cycles
    return total + 4
