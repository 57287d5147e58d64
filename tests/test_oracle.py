"""Exact branch-and-bound makespan oracle."""

import hashlib
import random

import pytest

from memsched import (
    AccessModel,
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

    # two fetches from a one-port bank at once fit at no start
    g = Dfg.build([Operation("r", "add", (scalar("a"), scalar("b")), scalar("u"))], LIB)
    mapping = MemoryMapping([MemoryBank("M0", 1, 1, 1, 0)], {"a": "M0", "b": "M0"},
                            default_register=True)
    with pytest.raises(Infeasible):
        bruteforce_optimal_makespan(g, Allocation({"alu": 1}), mapping, 30)


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


def test_oracle_work_does_not_grow_with_the_horizon(line_budget):
    import memsched.scheduler as scheduler

    lib = fixtures.load_library()
    g = fixtures.load_dfg("fir4", lib)
    mapping = fixtures.load_mapping("fir4")
    alloc = compute_min_allocation(g, 12)
    with line_budget(scheduler, 10000) as ran:
        best, witness = bruteforce_optimal_makespan(g, alloc, mapping, 12)
    # a thousandfold horizon may at most double the lines the search runs
    with line_budget(scheduler, 2 * ran[0]):
        longer, again = bruteforce_optimal_makespan(g, alloc, mapping, 12000)
    assert (longer, again.entries) == (best, witness.entries)


@pytest.mark.parametrize("kernel, T_max, alloc, mapping, search, best", [
    ("fir4", 10, None, "fixture", 116, 10),
    ("fir4", 51, None, "fixture", 116, 10),
    ("two_adds_one_bank", 4, None, "fixture", 8, 3),
    ("iir_biquad", 20, None, "fixture", 244, 12),
    # the optimum meets the lower bound, which ends the search
    ("iir_biquad", 20, {"mul": 5, "alu": 4}, "registers", 24, 6),
    # no schedule fits: every start from which the memory-aware longest
    # path still completes by T_max is tried (426 under the latency-only one)
    ("fir4", 10, None, "store y", 108, None),
])
def test_oracle_node_count_per_fixture(monkeypatch, kernel, T_max, alloc, mapping, search, best):
    # each node of the search adds and then removes its op's holds: a
    # search that visits more starts, or prunes fewer, changes the count.
    # The witness then adds each op's holds once: each of its windows and
    # its class (15, 15, 4, 19 and 9 adds on the feasible cases)
    import memsched.scheduler as scheduler
    from memsched import memmap

    added, searched = [], []
    original, place = memmap.Profile.add, scheduler._witness_schedule

    def counting(self, *args):
        added.append(args)
        return original(self, *args)

    def placing(engine, starts):
        searched.append(len(added))
        return place(engine, starts)

    monkeypatch.setattr(memmap.Profile, "add", counting)
    monkeypatch.setattr(scheduler, "_witness_schedule", placing)
    g = fixtures.load_dfg(kernel, fixtures.load_library())
    alloc = Allocation(alloc) if alloc else compute_min_allocation(g, T_max)
    m = fixtures.load_mapping(kernel) if mapping != "registers" else None
    if mapping == "store y":
        m = MemoryMapping(m.banks, {**m.placement, "y": "M0"}, default_register=True)
    if best is None:
        with pytest.raises(Infeasible):
            bruteforce_optimal_makespan(g, alloc, m, T_max)
        assert (searched, len(added)) == ([], search)
    else:
        makespan, witness = bruteforce_optimal_makespan(g, alloc, m, T_max)
        assert makespan == witness.makespan_cycles == best
        plans = witness.model.plans
        holds = sum(len(plans[oid].windows) + 1 for oid in witness.entries)
        assert (searched, len(added)) == ([search], search + holds)


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


def seeded_case(seed):
    """ROADMAP item 6's seeded 10-op instance: (graph, allocation, mapping,
    deadline)."""
    rng = random.Random(seed)
    g = random_dfg(rng, 10, make_library(rng, 2))
    mapping = random_mapping(rng, g, 2)
    T = generous_deadline(g, mapping)
    return g, compute_min_allocation(g, T), mapping, T


# seed -> (optimum, sha256 of the witness's schedule.json, first 16 digits).
# The memory-aware bounds solve these within 0.2 s in all; seeds 3, 5 and 6
# still take seconds each.
SEEDED = {
    0: (9, "3215f90d89b6148e"),
    1: (16, "83a02970e27fb0e1"),
    2: (20, "efa00d53f1da471d"),
    4: (13, "409f39596ad45926"),
    7: (19, "d58754de5817e824"),
    8: (11, "f934bbbdb6f45280"),
    9: (15, "2ef81e7e83a44e6f"),
}


@pytest.mark.parametrize("seed", sorted(SEEDED))
def test_oracle_on_the_seeded_ten_op_set(seed):
    g, alloc, mapping, T = seeded_case(seed)
    best, witness = bruteforce_optimal_makespan(g, alloc, mapping, T)
    digest = hashlib.sha256(witness.to_json().encode("utf-8")).hexdigest()[:16]
    assert (best, digest) == SEEDED[seed]
    assert check_schedule_safety(g, witness, mapping, alloc) == []


def oracle_cases():
    """(name, graph, allocation, mapping, T_max) of this file's feasible
    oracle cases: the hand-built ones, the node-count fixtures, the list
    scheduler's random family and the seeded set."""
    yield "chain", unit_chain(3), Allocation({"alu": 1}), None, 8
    muls = Dfg.build([Operation(f"m{i}", "mul", (scalar(f"x{i}"),), scalar(f"p{i}"))
                      for i in range(4)], LIB)
    yield "muls", muls, Allocation({"mul": 1}), None, 8
    ops = [Operation("r1", "add", (scalar("a"), scalar("x")), scalar("u")),
           Operation("r2", "add", (scalar("b"), scalar("y")), scalar("v"))]
    mapping = MemoryMapping([MemoryBank("M0", 1, 1, 1, 0)], {"a": "M0", "b": "M0"},
                            default_register=True)
    yield "ports", Dfg.build(ops, LIB), Allocation({"alu": 2}), mapping, 6
    lib = fixtures.load_library()
    for kernel, T_max in (("fir4", 10), ("two_adds_one_bank", 4), ("iir_biquad", 20)):
        g = fixtures.load_dfg(kernel, lib)
        yield kernel, g, compute_min_allocation(g, T_max), fixtures.load_mapping(kernel), T_max
    rng = random.Random(5)
    for i in range(12):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(3, 7), lib)
        mapping = random_mapping(rng, g, rng.randint(0, 2))
        T = generous_deadline(g, mapping)
        yield f"random/{i}", g, compute_min_allocation(g, T), mapping, T
    for seed in sorted(SEEDED):
        g, alloc, mapping, T = seeded_case(seed)
        yield f"seeded/{seed}", g, alloc, mapping, T


def test_memory_aware_critical_path_is_at_most_the_optimum():
    longer = 0
    for name, g, alloc, mapping, T_max in oracle_cases():
        best, _ = bruteforce_optimal_makespan(g, alloc, mapping, T_max)
        critical = compute_timing(g, T_max, AccessModel(g, mapping)).critical_path_cycles
        assert critical <= best, name
        longer += critical > compute_timing(g, T_max).critical_path_cycles
    assert longer == 19
