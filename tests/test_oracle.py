"""Exact branch-and-bound makespan oracle."""

import random

import pytest

from memsched import (
    Allocation,
    Dfg,
    Infeasible,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    Policy,
    SchedulerConfig,
    TooLarge,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    compute_timing,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched import fixtures
from oracles import (
    check_schedule_safety,
    enumerate_independent_starts,
    generous_deadline,
    make_library,
    random_dfg,
    random_mapping,
)

ALU = OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0)
MUL = OperatorClass("mul", frozenset({"mul"}), 2, 8.0)
LIB = OperatorLibrary([ALU, MUL])


def unit_chain(n):
    ops = [Operation("n0", "add", (scalar("i"),), scalar("d0"))]
    for i in range(1, n):
        ops.append(Operation(f"n{i}", "add", (scalar(f"d{i-1}"),), scalar(f"d{i}")))
    return Dfg.build(ops, LIB)


def test_chain_is_serial():
    g = unit_chain(3)
    best, witness = bruteforce_optimal_makespan(g, Allocation({"alu": 1}), None, 8)
    assert best == 3
    assert check_schedule_safety(g, witness, None, Allocation({"alu": 1})) == []


def test_four_muls_two_instances_matches_pigeonhole():
    ops = [Operation(f"m{i}", "mul", (scalar(f"x{i}"),), scalar(f"p{i}")) for i in range(4)]
    g = Dfg.build(ops, LIB)
    best, witness = bruteforce_optimal_makespan(g, Allocation({"mul": 2}), None, 12)
    assert best == 4 == -(-4 // 2) * 2
    assert witness.makespan_cycles == 4


def test_port_contention_case():
    ops = [
        Operation("r1", "add", (scalar("a"), scalar("x")), scalar("u")),
        Operation("r2", "add", (scalar("b"), scalar("y")), scalar("v")),
    ]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping(
        [MemoryBank("M0", 1, 1, 1, 0)], {"a": "M0", "b": "M0"}, default_register=True
    )
    best, witness = bruteforce_optimal_makespan(g, Allocation({"alu": 2}), mapping, 6)
    assert best == 3  # fetches at cycles 0 and 1, unit adds end at 2 and 3
    assert check_schedule_safety(g, witness, mapping, Allocation({"alu": 2})) == []


def test_guard_and_infeasible():
    ops = [Operation(f"m{i}", "mul", (scalar(f"x{i}"),), scalar(f"p{i}")) for i in range(11)]
    g = Dfg.build(ops, LIB)
    with pytest.raises(TooLarge):
        bruteforce_optimal_makespan(g, Allocation({"mul": 1}), None, 30)

    with pytest.raises(Infeasible):
        bruteforce_optimal_makespan(unit_chain(3), Allocation({"alu": 1}), None, 2)


def test_witness_policy_tracks_mapping():
    g = unit_chain(2)
    best, w = bruteforce_optimal_makespan(g, Allocation({"alu": 1}), None, 4)
    assert w.policy is Policy.BASELINE
    mapping = MemoryMapping([MemoryBank("M0", 1, 1, 1, 0)], {}, default_register=True)
    _, w2 = bruteforce_optimal_makespan(g, Allocation({"alu": 1}), mapping, 4)
    assert w2.policy is Policy.MEMORY_AWARE


def test_oracle_never_beaten_by_list_scheduler():
    rng = random.Random(5)
    for _ in range(12):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(3, 7), lib)
        mapping = random_mapping(rng, g, rng.randint(0, 2))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        timing = compute_timing(g, T)
        aware = schedule_memory_aware(
            g, alloc, mapping, SchedulerConfig(T), timing
        )
        best, witness = bruteforce_optimal_makespan(g, alloc, mapping, T)
        assert best <= aware.makespan_cycles
        assert check_schedule_safety(g, witness, mapping, alloc) == []

        base = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
        best_reg, _ = bruteforce_optimal_makespan(g, alloc, None, T)
        assert best_reg <= base.makespan_cycles


def test_oracle_work_does_not_grow_with_the_horizon(monkeypatch):
    import memsched.memmap as memmap

    calls = []
    original = memmap.AccessModel.windows

    def counting(self, op_id, start):
        calls.append(op_id)
        return original(self, op_id, start)

    monkeypatch.setattr(memmap.AccessModel, "windows", counting)
    lib = fixtures.load_library()
    g = fixtures.load_dfg("fir4", lib)
    mapping = fixtures.load_mapping("fir4")
    alloc = compute_min_allocation(g, 12)
    results, counts = [], []
    for T_max in (12, 12000):
        calls.clear()
        best, witness = bruteforce_optimal_makespan(g, alloc, mapping, T_max)
        results.append((best, witness.entries))
        counts.append(len(calls))
    assert results[0] == results[1]
    assert counts[1] <= 2 * counts[0]


def test_oracle_checks_the_allocation_like_the_engine():
    lib = fixtures.load_library()
    g = fixtures.load_dfg("fir4", lib)
    with pytest.raises(ValueError, match="allocation covers no instances of class 'mul'"):
        bruteforce_optimal_makespan(g, Allocation({"alu": 1}), None, 12)


def test_search_proves_a_resource_bound():
    # the critical path is 2 cycles, but one instance runs the muls in turn
    ops = [Operation(f"m{i}", "mul", (scalar(f"x{i}"),), scalar(f"p{i}")) for i in range(4)]
    g = Dfg.build(ops, LIB)
    with pytest.raises(Infeasible):
        bruteforce_optimal_makespan(g, Allocation({"mul": 1}), None, 7)
    best, witness = bruteforce_optimal_makespan(g, Allocation({"mul": 1}), None, 8)
    assert best == witness.makespan_cycles == 8


def test_a_bank_may_share_a_class_name():
    ops = [
        Operation("r1", "add", (scalar("a"),), scalar("u")),
        Operation("r2", "add", (scalar("b"),), scalar("v")),
    ]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping([MemoryBank("alu", 1, 1, 1, 0)], {"a": "alu"}, default_register=True)
    best, witness = bruteforce_optimal_makespan(g, Allocation({"alu": 1}), mapping, 4)
    assert best == 2  # r2 runs while r1 fetches from the bank
    assert check_schedule_safety(g, witness, mapping, Allocation({"alu": 1})) == []


@pytest.mark.parametrize("seed", range(10))
def test_oracle_matches_exhaustive_search_on_independent_ops(seed):
    rng = random.Random(seed)
    banks = [MemoryBank(f"M{i}", rng.randint(1, 2), rng.randint(1, 2), 1, 0) for i in range(2)]
    ops, spec, placement = [], [], {}
    for i in range(rng.randint(2, 4)):
        cls = rng.choice([ALU, MUL])
        fetched = rng.sample(banks, rng.randint(1, 2))
        placement.update({f"x{i}{b.id}": b.id for b in fetched})
        operands = tuple(scalar(f"x{i}{b.id}") for b in fetched)
        ops.append(Operation(f"o{i}", min(cls.opcodes), operands, scalar(f"r{i}")))
        spec.append((f"o{i}", cls.name, cls.latency_cycles, {b.id: 1 for b in fetched}))
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping(banks, placement, default_register=True)
    alloc = Allocation({name: rng.randint(1, 2) for name in sorted({s[1] for s in spec})})
    # starts 2, 4, 6, 8 in turn always fit, so no optimum ends after cycle 10
    feasible = enumerate_independent_starts(spec, alloc.counts, banks, horizon=8)
    best, witness = bruteforce_optimal_makespan(g, alloc, mapping, 10)
    assert best == min(makespan for _, makespan in feasible)
    assert check_schedule_safety(g, witness, mapping, alloc) == []
