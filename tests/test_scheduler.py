"""Baseline list scheduling: allocation, priorities, binding, determinism."""

import random

import pytest
from hypothesis import given, strategies as st

from memsched import (
    Allocation,
    ClassMismatch,
    Dfg,
    InfeasibleConstraint,
    Operation,
    OperatorClass,
    OperatorInstanceState,
    OperatorLibrary,
    Policy,
    SchedulerConfig,
    TimeConstraintViolated,
    ample_allocation,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    compute_timing,
    model2_affinity,
    scalar,
    schedule_baseline,
)
from memsched import fixtures
from oracles import check_schedule_safety, generous_deadline, make_library, random_dfg

MUL = OperatorClass("mul", frozenset({"mul"}), 2, 8.0)
ALU = OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0)
LIB = OperatorLibrary([MUL, ALU])


def muls(n, shared=None):
    ops = []
    for i in range(n):
        operands = (scalar(f"x{i}"), scalar(f"y{i}")) if shared is None else shared[i]
        ops.append(Operation(f"m{i}", "mul", operands, scalar(f"p{i}")))
    return Dfg.build(ops, LIB)


def run_baseline(g, counts, T, **cfg_kwargs):
    cfg = SchedulerConfig(T, Policy.BASELINE, **cfg_kwargs)
    timing = compute_timing(g, g.library, T)
    return schedule_baseline(g, Allocation(counts), cfg, timing)


# -- allocation -----------------------------------------------------------------

def test_min_allocation_examples():
    assert compute_min_allocation(muls(4), LIB, 4).counts == {"mul": 2}

    g1 = Dfg.build([Operation("a0", "add", (scalar("u"),), scalar("r0"))], LIB)
    assert compute_min_allocation(g1, LIB, 100).counts == {"alu": 1}

    adds = Dfg.build(
        [Operation(f"a{i}", "add", (scalar(f"u{i}"),), scalar(f"r{i}")) for i in range(5)],
        LIB,
    )
    assert compute_min_allocation(adds, LIB, 2).counts == {"alu": 3}


def test_min_allocation_infeasible_deadline():
    g = muls(1)
    with pytest.raises(InfeasibleConstraint):
        compute_min_allocation(g, LIB, 1)


# -- core behaviour ----------------------------------------------------------------

def test_four_muls_two_instances_is_optimal():
    g = muls(4)
    s = run_baseline(g, {"mul": 2}, 4)
    starts = sorted(e.start_cycle for e in s.entries.values())
    assert starts == [0, 0, 2, 2]
    assert s.makespan_cycles == 4
    # exact search confirms 4 is optimal; pigeonhole agrees: ceil(4/2)*2
    best, witness = bruteforce_optimal_makespan(g, Allocation({"mul": 2}), None, 8)
    assert best == 4
    assert -(-4 // 2) * 2 == 4
    assert check_schedule_safety(g, witness, None, Allocation({"mul": 2})) == []


def test_serial_chain_single_instance():
    ops = [Operation("a", "add", (scalar("i"),), scalar("r0"))]
    ops.append(Operation("b", "add", (scalar("r0"),), scalar("r1")))
    ops.append(Operation("c", "add", (scalar("r1"),), scalar("r2")))
    g = Dfg.build(ops, LIB)
    s = run_baseline(g, {"alu": 1}, 3)
    assert [s.entries[o].start_cycle for o in ("a", "b", "c")] == [0, 1, 2]


def test_affinity_prefers_shared_input_and_flags_model2():
    a, b, c, d, e = (scalar(x) for x in "abcde")
    g = muls(3, shared=[(a, b), (a, c), (d, e)])
    s = run_baseline(g, {"mul": 1}, 10)
    # m1 shares "a" with m0, m2 shares nothing: m1 runs second
    assert s.entries["m0"].start_cycle == 0
    assert s.entries["m1"].start_cycle == 2
    assert s.entries["m2"].start_cycle == 4
    assert s.entries["m1"].is_model2 and s.entries["m1"].shared_inputs == 1
    assert not s.entries["m0"].is_model2 and not s.entries["m2"].is_model2


def test_affinity_disabled_binds_by_id_order():
    a, b, c, d, e = (scalar(x) for x in "abcde")
    g = muls(3, shared=[(a, b), (d, e), (a, c)])
    s_on = run_baseline(g, {"mul": 1}, 10)
    s_off = run_baseline(g, {"mul": 1}, 10, use_affinity=False)
    assert sum(e.is_model2 for e in s_on.entries.values()) == 1
    assert sum(e.is_model2 for e in s_off.entries.values()) == 0


def test_time_constraint_violated_reports_doubling_suggestion():
    g = muls(4)
    timing = compute_timing(g, LIB, 4)
    cfg = SchedulerConfig(4, Policy.BASELINE)
    with pytest.raises(TimeConstraintViolated) as err:
        schedule_baseline(g, Allocation({"mul": 1}), cfg, timing)
    assert err.value.suggested_time_constraint == 8
    assert set(err.value.unscheduled) <= {"m0", "m1", "m2", "m3"}


def test_deadline_miss_without_suggestion_runs_engine_twice(monkeypatch):
    import memsched.scheduler as scheduler

    runs = []
    original = scheduler._Engine.run

    def counting(self):
        runs.append(self.cfg.time_constraint_cycles)
        return original(self)

    monkeypatch.setattr(scheduler._Engine, "run", counting)
    g = muls(20)  # 40 cycles of work on one instance; 8x the deadline is 16
    with pytest.raises(TimeConstraintViolated) as err:
        run_baseline(g, {"mul": 1}, 2)
    assert err.value.suggested_time_constraint is None
    assert len(runs) <= 2


def test_infeasible_constraint_before_scheduling():
    g = muls(1)
    timing = compute_timing(g, LIB, 4)
    cfg = SchedulerConfig(1, Policy.BASELINE)
    with pytest.raises(InfeasibleConstraint):
        schedule_baseline(g, Allocation({"mul": 1}), cfg, timing)


def test_policy_guard():
    g = muls(1)
    timing = compute_timing(g, LIB, 4)
    with pytest.raises(ValueError):
        schedule_baseline(g, Allocation({"mul": 1}),
                          SchedulerConfig(4, Policy.MEMORY_AWARE), timing)


def test_scheduler_config_bounds():
    with pytest.raises(ValueError):
        SchedulerConfig(4, model2_reduction=0.2)
    with pytest.raises(ValueError):
        SchedulerConfig(4, model2_reduction=0.6)


# -- model2 affinity ------------------------------------------------------------

def inst(last=None):
    state = OperatorInstanceState(MUL, 0)
    if last is not None:
        state.last_operand_sources = tuple(scalar(x) for x in last)
    return state


def op_with(operands):
    return Operation("m", "mul", tuple(scalar(x) for x in operands), scalar("r"))


def test_affinity_examples():
    assert model2_affinity(op_with("ab"), inst("ac")) == 1
    assert model2_affinity(op_with("ab"), inst("ba")) == 2
    assert model2_affinity(op_with("ab"), inst()) == 0


def test_affinity_positional_mode():
    assert model2_affinity(op_with("ab"), inst("ba"), positional=True) == 0
    assert model2_affinity(op_with("ab"), inst("ac"), positional=True) == 1


def test_affinity_class_mismatch():
    add = Operation("a", "add", (scalar("x"),), scalar("r"))
    with pytest.raises(ClassMismatch):
        model2_affinity(add, inst())


@given(st.permutations(["a", "b", "c"]))
def test_affinity_invariant_under_operand_permutation(perm):
    reference = model2_affinity(op_with("abc"), inst("axb"))
    assert model2_affinity(op_with(perm), inst("axb")) == reference


# -- schedule-wide properties ------------------------------------------------------

def test_asap_degeneracy_on_fixtures():
    lib = fixtures.load_library()
    for kernel in ("fir4", "fft8_stage", "iir_biquad"):
        g = fixtures.load_dfg(kernel, lib)
        T = compute_timing(g, lib, 500).critical_path_cycles
        timing = compute_timing(g, lib, T)
        s = schedule_baseline(g, ample_allocation(g), SchedulerConfig(T), timing)
        for op in g.operations:
            assert s.entries[op.id].start_cycle == timing.asap[op.id], op.id
        assert s.makespan_cycles == T


def test_deterministic_serialization_across_runs():
    lib = fixtures.load_library()
    g = fixtures.load_dfg("fir16", lib)
    outs = set()
    for _ in range(3):
        s = run_baseline(g, {"mul": 2, "alu": 1}, 24)
        outs.add(s.to_json())
    assert len(outs) == 1


def test_random_baseline_schedules_are_safe():
    rng = random.Random(7)
    for _ in range(25):
        lib = make_library(rng, rng.randint(1, 3))
        g = random_dfg(rng, rng.randint(5, 20), lib)
        T = generous_deadline(g)
        alloc = compute_min_allocation(g, lib, T)
        s = run_baseline(g, dict(alloc.counts), T)
        assert check_schedule_safety(g, s, None, alloc) == []


def test_dynamic_mobility_still_safe():
    rng = random.Random(11)
    lib = make_library(rng, 2)
    g = random_dfg(rng, 12, lib)
    T = generous_deadline(g)
    alloc = compute_min_allocation(g, lib, T)
    s = run_baseline(g, dict(alloc.counts), T, dynamic_mobility=True)
    assert check_schedule_safety(g, s, None, alloc) == []
