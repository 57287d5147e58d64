"""Memory-aware scheduling: port gating, fetch/store windows, engine work."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from memsched import (
    Allocation,
    Dfg,
    MappingInfeasible,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    SchedulerConfig,
    UnmappedData,
    compute_min_allocation,
    compute_timing,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched import fixtures
from memsched.memmap import AccessModel
from memsched.scheduler import _Engine
from oracles import (
    check_schedule_safety,
    enumerate_independent_starts,
    generous_deadline,
)

ALU = OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0)
LIB = OperatorLibrary([ALU, OperatorClass("mul", frozenset({"mul"}), 2, 8.0)])


def bank(bank_id, ports=1, rl=1, wl=1):
    return MemoryBank(bank_id, ports, rl, wl, 0)


def two_adds(place):
    ops = [
        Operation("r1", "add", (scalar("a"), scalar("x")), scalar("u")),
        Operation("r2", "add", (scalar("b"), scalar("y")), scalar("v")),
    ]
    g = Dfg.build(ops, LIB)
    banks = [bank("M0"), bank("M1")]
    mapping = MemoryMapping(banks, place, default_register=True)
    return g, mapping


def run_aware(g, mapping, counts, T, **cfg_kwargs):
    cfg = SchedulerConfig(T, **cfg_kwargs)
    timing = compute_timing(g, T)
    return schedule_memory_aware(g, Allocation(counts), mapping, cfg, timing)


def test_shared_single_port_bank_serializes_fetches():
    g, mapping = two_adds({"a": "M0", "b": "M0"})
    s = run_aware(g, mapping, {"alu": 2}, 4)
    assert s.entries["r1"].start_cycle == 1
    assert s.entries["r2"].start_cycle == 2
    assert s.makespan_cycles == 3
    (b1,) = s.entries["r1"].read_bookings
    (b2,) = s.entries["r2"].read_bookings
    assert (b1.start, b1.end, b1.bank_id, b1.port_index) == (0, 1, "M0", 0)
    assert (b2.start, b2.end, b2.bank_id, b2.port_index) == (1, 2, "M0", 0)

    # exhaustive start search agrees: both fetches cannot share the window,
    # and 3 cycles is the best any schedule can do
    spec = [("r1", "alu", 1, {"M0": 1}), ("r2", "alu", 1, {"M0": 1})]
    feasible = enumerate_independent_starts(spec, {"alu": 2}, [bank("M0")], 4)
    assert all(starts[0] != starts[1] for starts, _ in feasible)
    assert min(makespan for _, makespan in feasible) == 3


def test_disjoint_banks_do_not_conflict():
    g, mapping = two_adds({"a": "M0", "b": "M1"})
    s = run_aware(g, mapping, {"alu": 2}, 4)
    assert s.entries["r1"].start_cycle == 1
    assert s.entries["r2"].start_cycle == 1

    spec = [("r1", "alu", 1, {"M0": 1}), ("r2", "alu", 1, {"M1": 1})]
    feasible = enumerate_independent_starts(
        spec, {"alu": 2}, [bank("M0"), bank("M1")], 4
    )
    assert ((1, 1), 2) in feasible


def test_write_booking_and_memory_dependency_chain():
    # producer stores to M, consumer fetches from M: start(consumer) must be
    # at least write-end + read-latency after the producer finishes
    ops = [
        Operation("p", "add", (scalar("i"),), scalar("d")),
        Operation("q", "add", (scalar("d"), scalar("j")), scalar("r")),
    ]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([bank("M0", wl=2, rl=1)], {"d": "M0"}, default_register=True)
    s = run_aware(g, mapping, {"alu": 1}, 10)
    p, q = s.entries["p"], s.entries["q"]
    assert (p.start_cycle, p.end_cycle) == (0, 1)
    assert p.write_booking is not None
    assert (p.write_booking.start, p.write_booking.end) == (1, 3)
    # fetch window [start-1, start) must begin at or after write end (3)
    assert q.start_cycle == 4
    assert s.makespan_cycles == 5


def test_reads_cannot_start_before_read_latency():
    ops = [Operation("r1", "add", (scalar("a"),), scalar("u"))]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([bank("M0", rl=3)], {"a": "M0"}, default_register=True)
    s = run_aware(g, mapping, {"alu": 1}, 8)
    assert s.entries["r1"].start_cycle == 3


def test_oversubscribed_mapping_raises_mapping_infeasible():
    g, _ = two_adds({})
    mapping = MemoryMapping(
        [bank("M0", ports=1)], {"a": "M0", "x": "M0"}, default_register=True
    )
    with pytest.raises(MappingInfeasible) as err:
        run_aware(g, mapping, {"alu": 2}, 8)
    assert "M0" in str(err.value)


def test_unmapped_data_raises():
    g, _ = two_adds({})
    mapping = MemoryMapping([bank("M0")], {"a": "M0"})
    with pytest.raises(UnmappedData):
        run_aware(g, mapping, {"alu": 2}, 8)


def test_blocked_op_yields_to_later_ready_op():
    # q0 and q1 (highest priority by id) are fetch-blocked at t=0 because a
    # read needs a full latency window; the scanner walks past them and runs
    # register-only q2 instead of idling the instance
    ops = [
        Operation("q0", "add", (scalar("a"), scalar("c")), scalar("u0")),
        Operation("q1", "add", (scalar("a"), scalar("d")), scalar("u1")),
        Operation("q2", "add", (scalar("e"),), scalar("u2")),
    ]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping(
        [bank("M0", ports=1)], {"a": "M0"}, default_register=True
    )
    s = run_aware(g, mapping, {"alu": 1}, 8)
    assert s.entries["q2"].start_cycle == 0
    # then q0 takes the port window [0,1), q1 the next one
    assert s.entries["q0"].start_cycle == 1
    assert s.entries["q1"].start_cycle == 2


def test_a_busy_store_port_blocks_only_ops_storing_there():
    # s0..s2 read registers only and are ready at 0 with equal slack; s0
    # and s1 store to the 1-port bank W0, s2 to W1. Without affinity each
    # op is placed as soon as it binds, so s0 takes W0 over [1, 2) before
    # s1 pops. s1 waits a cycle, but s2 still starts at 0: ops that
    # differ only in their store bank are gated apart
    ops = [Operation(f"s{i}", "add", (scalar(f"x{i}"),), scalar(f"u{i}")) for i in range(3)]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([bank("W0"), bank("W1")], {"u0": "W0", "u1": "W0", "u2": "W1"},
                            default_register=True)
    s = run_aware(g, mapping, {"alu": 3}, 8, use_affinity=False)
    assert [s.entries[f"s{i}"].start_cycle for i in range(3)] == [0, 1, 0]


def test_port_blocked_ops_are_not_bound(calls):
    # r0..r3 each fetch their own input from the 1-port bank M0, so one of
    # them gets the port per cycle; chains of 3..0 muls give them distinct
    # slack. An op that finds the port taken is dropped for the cycle before
    # any binding, so each r_i is bound once, against the 4 free alus.
    import memsched.scheduler as scheduler

    log = calls((scheduler, "_affinity"))
    ops = []
    for i in range(4):
        ops.append(Operation(f"r{i}", "add", (scalar(f"x{i}"),), scalar(f"u{i}_0")))
        for k in range(3 - i):
            ops.append(Operation(f"m{i}_{k}", "mul", (scalar(f"u{i}_{k}"),),
                                 scalar(f"u{i}_{k + 1}")))
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([bank("M0")], {f"x{i}": "M0" for i in range(4)},
                            default_register=True)
    s = run_aware(g, mapping, {"alu": 4, "mul": 4}, 20)
    assert [s.entries[f"r{i}"].start_cycle for i in range(4)] == [1, 2, 3, 4]
    bound = Counter(operands for _, (operands, *_) in log)
    assert [bound[(scalar(f"x{i}"),)] for i in range(4)] == [4, 4, 4, 4]


def store_contended():
    """a0..a3 fetch from banks of their own but store into one 1-port bank
    W: at each cycle every waiting op finds its fetch port free and only
    the first finds W free too. Returns the graph and a mem-aware run."""
    ops = [Operation(f"a{i}", "add", (scalar(f"x{i}"),), scalar(f"u{i}")) for i in range(4)]
    g = Dfg.build(ops, LIB)
    place = {f"x{i}": f"M{i}" for i in range(4)}
    place.update({f"u{i}": "W" for i in range(4)})
    mapping = MemoryMapping([bank(f"M{i}") for i in range(4)] + [bank("W")], place)
    return g, lambda: run_aware(g, mapping, {"alu": 4}, 20)


def test_gating_builds_no_booking_it_does_not_keep(calls):
    # a gate only picks port indices; the bookings are built when the op
    # is placed, so every one built ends up in the schedule
    import memsched.scheduler as scheduler

    built = calls((scheduler, "PortBooking"))
    _, run = store_contended()
    s = run()
    kept = [b for e in s.entries.values() for b in e.read_bookings + (e.write_booking,)]
    assert [s.entries[f"a{i}"].start_cycle for i in range(4)] == [1, 2, 3, 4]
    assert len(built) == len(kept) == 8


def test_engine_derives_each_ops_windows_once(calls):
    # the access model builds each op's windows once, at start 0, and the
    # engine reads them from the op's plan instead of building them again
    import memsched.memmap as memmap

    built = calls((memmap, "AccessWindow"))
    g, run = store_contended()
    run()
    assert len(built) == 2 * len(g.operations)  # one fetch and one store each


@pytest.mark.parametrize("kernel", fixtures.KERNELS)
def test_engine_adds_each_window_once(calls, kernel):
    # the engine holds bank windows only, as a full class waits for its
    # instances' first release: one usage add per placed window, and none
    # without a mapping
    from memsched import memmap

    added = calls((memmap.Profile, "add"))
    g, mapping = fixtures.load_dfg(kernel), fixtures.load_mapping(kernel)
    T = generous_deadline(g, mapping)
    alloc, cfg, timing = compute_min_allocation(g, T), SchedulerConfig(T), compute_timing(g, T)
    s = schedule_memory_aware(g, alloc, mapping, cfg, timing)
    windows = sum(len(s.model.plans[oid].windows) for oid in s.entries)
    assert len(s.entries) == len(g.operations) and len(added) == windows > 0
    added.clear()
    schedule_baseline(g, alloc, cfg, timing)
    assert added == []


def test_port_table_half_open_intervals():
    # four fetches from a 6-port M0: the bank never serves more than four
    ops = [Operation("r", "add", (scalar("a"), scalar("b")), scalar("u")),
           Operation("s", "add", (scalar("c"), scalar("d")), scalar("v"))]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([bank("M0", ports=6)], dict.fromkeys("abcd", "M0"),
                            default_register=True)
    engine = _Engine(g, Allocation({"alu": 2}), SchedulerConfig(9),
                     compute_timing(g, 9), AccessModel(g, mapping))
    assert engine.rid == {("bank", "M0"): 0} and engine.capacity == [4]
    assert engine.holds == {"r": [(0, -1, 0, 2)], "s": [(0, -1, 0, 2)]}
    usage = engine.usage[0]
    usage.add(2, 4, 3)  # three accesses over [2, 4)
    engine._place("r", 5, 0, 0)  # its two fetches over [4, 5) only touch [2, 4)
    assert usage.clear(0, 2) == 0 and usage.clear(5, 9) == 5
    assert usage.clear(3, 4, 2) == 4 and usage.clear(4, 5, 2) == 4
    with pytest.raises(ValueError, match="over-subscribes a resource at cycle 4"):
        engine._place("s", 4, 0, 1)  # fetches over [3, 4): five accesses

    # a blocked step answers the first cycle at which the bank has room
    assert engine.fit("s", 4) == 5
    assert engine.fit("s", 5) == 5
    engine._place("s", 5, 0, 1)

    # the binder gives each window the lowest ports whose last window has
    # ended, ascending; the hold added by hand above is no placed window
    entries = engine.entries()
    assert [b.port_index for b in entries["r"].read_bookings] == [0, 1]
    assert [b.port_index for b in entries["s"].read_bookings] == [2, 3]


def test_a_full_class_answers_its_first_release():
    # three muls on two instances, m0 fetching from a bank named like the
    # class. Once the classes are resources too, as the oracle makes them,
    # a start that finds both instances held waits for the first release
    ops = [Operation(f"m{i}", "mul", (scalar(f"x{i}"),), scalar(f"p{i}")) for i in range(3)]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([bank("mul")], {"x0": "mul"}, default_register=True)
    engine = _Engine(g, Allocation({"mul": 2}), SchedulerConfig(9),
                     compute_timing(g, 9), AccessModel(g, mapping))
    engine.hold_classes()
    assert engine.rid == {("bank", "mul"): 0, ("class", "mul"): 1}
    assert engine.capacity == [1, 2]
    assert engine.holds["m0"] == [(0, -1, 0, 1), (1, 0, 2, 1)]
    assert engine.holds["m2"] == [(1, 0, 2, 1)]
    engine.hold("m0", 1, 1)
    assert engine.fit("m2", 2) == 2
    engine.hold("m1", 2, 1)
    assert engine.fit("m2", 2) == 3  # m0 releases its instance at 3
    assert engine.fit("m2", 0) == 0 and engine.fit("m2", 4) == 4
    engine.hold("m0", 1, -1)
    assert engine.fit("m2", 2) == 2


# one step: whether to remove a held op (when one is held) instead of
# adding one, the op and its start, and a query op and start
STEP = st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 10),
                 st.integers(0, 3), st.integers(-2, 12))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(STEP, max_size=14))
def test_fit_matches_a_per_cycle_count(steps):
    # ops held and released in any order, past capacity too; the plain
    # per-cycle count of each resource is the reference
    ops = [Operation("a0", "add", (scalar("x"),), scalar("r0")),
           Operation("a1", "add", (scalar("x"), scalar("y")), scalar("r1")),
           Operation("m0", "mul", (scalar("z"),), scalar("w")),
           Operation("m1", "mul", (scalar("x"),), scalar("r2"))]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([bank("M0", ports=2, rl=2), bank("M1")],
                            {"x": "M0", "y": "M0", "w": "M0", "z": "M1"},
                            default_register=True)
    engine = _Engine(g, Allocation({"alu": 2, "mul": 1}), SchedulerConfig(20),
                     compute_timing(g, 20), AccessModel(g, mapping))
    engine.hold_classes()
    M0, M1, alu, mul = (engine.rid[k] for k in (("bank", "M0"), ("bank", "M1"),
                                                 ("class", "alu"), ("class", "mul")))
    assert [engine.capacity[r] for r in (M0, M1, alu, mul)] == [2, 1, 2, 1]
    assert {oid: sorted(held) for oid, held in engine.holds.items()} == {
        "a0": sorted([(M0, -2, 0, 1), (alu, 0, 1, 1)]),
        "a1": sorted([(M0, -2, 0, 2), (alu, 0, 1, 1)]),
        "m0": sorted([(M1, -1, 0, 1), (M0, 2, 3, 1), (mul, 0, 2, 1)]),
        "m1": sorted([(M0, -2, 0, 1), (mul, 0, 2, 1)]),
    }
    names = [op.id for op in ops]
    usage, held = Counter(), []

    def fits(oid, t):
        return all(usage[r, c] + amount <= engine.capacity[r]
                   for r, first, end, amount in engine.holds[oid]
                   for c in range(t + first, t + end))

    for remove, op, start, query, t in steps:
        sign = 1
        if remove and held:
            oid, start = held.pop(op % len(held))
            sign = -1
        else:
            oid = names[op]
            held.append((oid, start))
        engine.hold(oid, start, sign)
        for r, first, end, amount in engine.holds[oid]:
            for c in range(start + first, start + end):
                usage[r, c] += sign * amount
        oid = names[query]
        answer = engine.fit(oid, t)
        assert (answer == t) == fits(oid, t)
        assert answer >= t and not any(fits(oid, s) for s in range(t, answer))


def test_capacity_admits_what_a_pinned_port_would_delay():
    # M0 has two ports, 2-cycle fetches and 1-cycle stores. o4's fetch of a
    # over [3, 5) meets o3's fetch at cycle 3 and o0's store at cycle 4:
    # one access in each cycle, so the bank has room. Had each access been
    # pinned to a port when its op was placed, o3's fetch and o0's store
    # would hold different ports and o4 would wait until cycle 6.
    ops = [Operation("o0", "mul", (scalar("b"),), scalar("r0")),
           Operation("o1", "add", (scalar("c"),), scalar("r1")),
           Operation("o2", "mul", (scalar("c"),), scalar("r2")),
           Operation("o3", "add", (scalar("b"),), scalar("r3")),
           Operation("o4", "add", (scalar("a"),), scalar("r4"))]
    g = Dfg.build(ops, LIB)
    place = dict.fromkeys(["a", "b", "r0", "r1", "r2", "r3", "r4"], "M0")
    mapping = MemoryMapping([bank("M0", ports=2, rl=2, wl=1)], place, default_register=True)
    alloc = Allocation({"alu": 3, "mul": 2})
    s = run_aware(g, mapping, alloc.counts, 60)
    assert {oid: e.start_cycle for oid, e in s.entries.items()} == {
        "o0": 2, "o1": 0, "o2": 0, "o3": 4, "o4": 5}
    assert s.makespan_cycles == 7
    assert check_schedule_safety(g, s, mapping, alloc) == []


def test_schedule_json_is_bit_exact():
    # golden serialization: key order and entry order are part of the format
    import json

    g, mapping = two_adds({"a": "M0", "b": "M0"})
    s = run_aware(g, mapping, {"alu": 2}, 4)
    expected = json.dumps(
        {
            "policy": "memory_aware",
            "time_constraint": 4,
            "makespan": 3,
            "entries": [
                {
                    "op": "r1", "start": 1, "end": 2, "class": "alu", "instance": 0,
                    "reads": [{"bank": "M0", "port": 0, "from": 0, "to": 1}],
                    "model2": False,
                },
                {
                    "op": "r2", "start": 2, "end": 3, "class": "alu", "instance": 0,
                    "reads": [{"bank": "M0", "port": 0, "from": 1, "to": 2}],
                    "model2": False,
                },
            ],
        },
        indent=2,
    ) + "\n"
    assert s.to_json() == expected


def test_mem_aware_can_finish_before_baseline(golden):
    # no rule bounds mem-aware below baseline: golden random/128 is shorter
    _, g, mapping, T, alloc = next(i for i in golden.instances if i[0] == "random/128")
    base = schedule_baseline(g, alloc, SchedulerConfig(T), compute_timing(g, T))
    aware = schedule_memory_aware(g, alloc, mapping, SchedulerConfig(T), compute_timing(g, T))
    assert (base.makespan_cycles, aware.makespan_cycles) == (60, 58)
    assert check_schedule_safety(g, aware, mapping, alloc) == []
