"""Memory-aware scheduling: port gating, fetch/store windows, degeneracy."""

import random
from collections import Counter

import pytest

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
    all_registers,
    compute_min_allocation,
    compute_timing,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched import fixtures
from memsched.scheduler import PortLedger
from oracles import (
    check_schedule_safety,
    enumerate_independent_starts,
    generous_deadline,
    make_library,
    random_dfg,
    random_mapping,
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


def test_all_registers_degenerates_to_baseline():
    lib = fixtures.load_library()
    for kernel in ("fir4", "fft8_stage", "iir_biquad"):
        g = fixtures.load_dfg(kernel, lib)
        T = generous_deadline(g)
        timing = compute_timing(g, T)
        alloc = compute_min_allocation(g, T)
        base = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
        aware = schedule_memory_aware(
            g, alloc, all_registers(), SchedulerConfig(T), timing
        )
        assert aware.entries == base.entries
        assert aware.makespan_cycles == base.makespan_cycles


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


def test_port_blocked_ops_are_not_bound(monkeypatch):
    # r0..r3 each fetch their own input from the 1-port bank M0, so one of
    # them gets the port per cycle; chains of 3..0 muls give them distinct
    # slack. An op that finds the port taken is dropped for the cycle before
    # any binding, so each r_i is bound once, against the 4 free alus.
    import memsched.scheduler as scheduler

    calls = Counter()
    original = scheduler._affinity

    def counting(operands, last, positional):
        calls[operands] += 1
        return original(operands, last, positional)

    monkeypatch.setattr(scheduler, "_affinity", counting)
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
    assert [calls[(scalar(f"x{i}"),)] for i in range(4)] == [4, 4, 4, 4]


def test_port_ledger_half_open_intervals():
    ledger = PortLedger()
    ledger.book("M0", 0, 2, 4)
    ledger.book("M0", 0, 4, 5)  # [2,4) and [4,5) only touch
    assert not ledger.is_free("M0", 0, 3, 4)
    with pytest.raises(ValueError):
        ledger.book("M0", 0, 3, 4)
    assert ledger.is_free("M0", 0, 0, 2) and ledger.is_free("M0", 0, 5, 9)
    ledger.book("M0", 2, 3, 4)
    assert ledger.free_ports(bank("M0", ports=4), 3, 4) == [1, 3]
    assert ledger.free_ports(bank("M0", ports=4), 5, 6) == [0, 1, 2, 3]


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


def test_policy_monotone_and_safe_on_random_instances():
    rng = random.Random(23)
    for _ in range(20):
        lib = make_library(rng, rng.randint(1, 3))
        g = random_dfg(rng, rng.randint(5, 18), lib)
        mapping = random_mapping(rng, g, rng.randint(0, 3))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        timing = compute_timing(g, T)
        base = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
        aware = schedule_memory_aware(
            g, alloc, mapping, SchedulerConfig(T), timing
        )
        assert check_schedule_safety(g, base, None, alloc) == []
        assert check_schedule_safety(g, aware, mapping, alloc) == []
        assert aware.makespan_cycles >= base.makespan_cycles
