"""Baseline list scheduling: allocation, priorities, binding, determinism."""

import heapq
import json
import random
import signal

import pytest
from hypothesis import given, strategies as st

from memsched import (
    AccessModel,
    Allocation,
    Dfg,
    InfeasibleConstraint,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    Policy,
    PortBooking,
    Schedule,
    ScheduleEntry,
    SchedulerConfig,
    SchedulingError,
    TimeConstraintViolated,
    all_registers,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    compute_timing,
    elem,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched import fixtures
from memsched.scheduler import _affinity
from golden_corpus import run
from oracles import (
    check_schedule_safety,
    generous_deadline,
    make_library,
    one_instance_per_op,
    random_dfg,
    schedule_doc,
)

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
    cfg = SchedulerConfig(T, **cfg_kwargs)
    timing = compute_timing(g, T)
    return schedule_baseline(g, Allocation(counts), cfg, timing)


# -- allocation -----------------------------------------------------------------

def test_min_allocation_examples():
    assert compute_min_allocation(muls(4), 4).counts == {"mul": 2}

    g1 = Dfg.build([Operation("a0", "add", (scalar("u"),), scalar("r0"))], LIB)
    assert compute_min_allocation(g1, 100).counts == {"alu": 1}

    adds = Dfg.build(
        [Operation(f"a{i}", "add", (scalar(f"u{i}"),), scalar(f"r{i}")) for i in range(5)],
        LIB,
    )
    assert compute_min_allocation(adds, 2).counts == {"alu": 3}


def test_min_allocation_infeasible_deadline():
    # the critical-path rule belongs to compute_timing; the allocation only
    # divides the work by the deadline
    g = muls(1)
    with pytest.raises(InfeasibleConstraint):
        compute_timing(g, 1)
    assert compute_min_allocation(g, 1).counts == {"mul": 2}


@pytest.mark.parametrize("deadline", [0, -1])
def test_min_allocation_rejects_a_deadline_below_one(deadline):
    # never a division by zero, never a silent allocation
    with pytest.raises((SchedulingError, ValueError)):
        compute_min_allocation(muls(2), deadline)


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


def test_displaced_candidate_rebinds_in_the_same_cycle():
    # Cycle 0 leaves (x, y) on alu instance 0 and (p, q) on instance 1. At
    # cycle 1, b0 and b1 both share two inputs with instance 0; b0 wins it on
    # id order, and b1 must bind again to instance 1 within the same cycle.
    x, y, p, q = (scalar(n) for n in "xypq")
    g = Dfg.build(
        [
            Operation("a0", "add", (x, y), scalar("r0")),
            Operation("a1", "add", (p, q), scalar("r1")),
            Operation("b0", "add", (x, y), scalar("r2")),
            Operation("b1", "add", (y, x), scalar("r3")),
        ],
        LIB,
    )
    s = run_baseline(g, {"alu": 2}, 10)
    placed = {oid: (e.start_cycle, e.instance_index, e.shared_inputs)
              for oid, e in s.entries.items()}
    assert placed == {
        "a0": (0, 0, 0), "a1": (0, 1, 0), "b0": (1, 0, 2), "b1": (1, 1, 0),
    }
    by_instance = sorted(
        (e.class_name, e.instance_index, e.start_cycle, e.end_cycle)
        for e in s.entries.values()
    )
    for (c1, i1, _, end), (c2, i2, start, _) in zip(by_instance, by_instance[1:]):
        assert (c1, i1) != (c2, i2) or end <= start


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_binding_work_is_bounded_by_placements(calls, policy):
    # fir16 on one mul and one alu: each cycle at most one op per class can
    # start, so an op is bound only when it may take the free instance (at
    # most twice per op, not once per op per cycle it waits)
    import memsched.scheduler as scheduler

    log = calls((scheduler, "_affinity"))
    lib = fixtures.load_library()
    g = fixtures.load_dfg("fir16", lib)
    s = run(g, fixtures.load_mapping("fir16"), Allocation({"mul": 1, "alu": 1}), policy, 200)
    assert len(s.entries) == len(g.operations) == 31
    assert len(log) <= 2 * 31


@pytest.mark.parametrize("kernel, binds", [
    ("fir4", 8), ("fir16", 32), ("fft8_stage", 22), ("iir_biquad", 10),
    ("two_adds_one_bank", 3),
])
def test_bind_calls_per_fixture(calls, kernel, binds):
    # baseline at minimum allocation under 8x the critical path: an op binds
    # when it pops unbound, and again only when another op took its
    # instance in this cycle, not when its instance frees exactly at t
    import memsched.scheduler as scheduler

    log = calls((scheduler._Engine, "_bind"))
    g = fixtures.load_dfg(kernel)
    T = 8 * compute_timing(g, 10**6).critical_path_cycles
    schedule_baseline(g, compute_min_allocation(g, T), SchedulerConfig(T), compute_timing(g, T))
    assert len(log) == binds


@pytest.mark.parametrize("kernel, fits", [
    ("fir4", (9, 13)), ("fir16", (33, 49)), ("fft8_stage", (24, 59)), ("iir_biquad", (11, 16)),
    ("two_adds_one_bank", (4, 5)),
])
def test_fit_calls_per_fixture(calls, kernel, fits):
    # (baseline, mem-aware) at four instances per class under 8x the critical
    # path: a placement is checked once, by the fit that cleared its pop, and
    # every other call answers a pop that waits, under mem-aware mostly on a
    # bank
    import memsched.scheduler as scheduler

    log = calls((scheduler._Engine, "fit"))
    g, mapping = fixtures.load_dfg(kernel), fixtures.load_mapping(kernel)
    T = 8 * compute_timing(g, 10**6).critical_path_cycles
    alloc = Allocation({"mul": 4, "alu": 4})
    run(g, mapping, alloc, Policy.BASELINE, T)
    baseline = len(log)
    run(g, mapping, alloc, Policy.MEMORY_AWARE, T)
    assert (baseline, len(log) - baseline) == fits


def test_baseline_takes_only_a_register_only_model():
    g = fixtures.load_dfg("fir4")
    args = (g, compute_min_allocation(g, 40), SchedulerConfig(40), compute_timing(g, 40))
    with pytest.raises(ValueError, match="register-only"):
        schedule_baseline(*args, AccessModel(g, fixtures.load_mapping("fir4")))
    assert schedule_baseline(*args, AccessModel(g)) == schedule_baseline(*args)


def fir_chain(taps):
    """A direct-form FIR: ``taps`` products of x[i] and h[i], read from two
    different 1-port banks, summed by a serial adder chain."""
    ops = [Operation(f"m{i}", "mul", (elem("x", i), elem("h", i)), scalar(f"p{i}"))
           for i in range(taps)]
    acc = scalar("p0")
    for i in range(1, taps):
        ops.append(Operation(f"a{i}", "add", (acc, scalar(f"p{i}")), scalar(f"s{i}")))
        acc = scalar(f"s{i}")
    banks = [MemoryBank(f"M{b}", 1, 1, 1) for b in range(3)]
    place = {}
    for i in range(taps):
        place[f"x[{i}]"], place[f"h[{i}]"] = f"M{i % 3}", f"M{(i + 1) % 3}"
    return Dfg.build(ops, LIB), MemoryMapping(banks, place, default_register=True)


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_queue_work_grows_linearly_with_the_chain(calls, policy):
    # one mul and one alu under a deadline that runs every op and fetch
    # one after another: the ready set stays large for the whole run, so
    # re-queuing every ready op each cycle would cost ops squared. Each
    # count starts after the graph is built, so only the scheduler's heaps
    # pop in it
    log, pops = calls((heapq, "heappop")), {}
    for taps in (96, 192):
        g, mapping = fir_chain(taps)
        T = 4 + 4 * taps + (taps - 1)  # each mul with its two fetches, each add
        alloc = compute_min_allocation(g, T)
        assert alloc.counts == {"alu": 1, "mul": 1}
        log.clear()
        s = run(g, mapping, alloc, policy, T)
        assert len(s.entries) == len(g.operations)
        pops[taps] = len(log)
        assert pops[taps] <= 8 * len(g.operations), (taps, pops[taps])
    assert pops[192] <= 2.2 * pops[96], pops


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_each_test_runs_under_a_time_limit():
    # conftest.py arms an alarm per test, so an engine loop that never
    # ends fails its test instead of stalling the suite
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= 60


def test_time_constraint_violated_reports_doubling_suggestion():
    g = muls(4)
    timing = compute_timing(g, 4)
    cfg = SchedulerConfig(4)
    with pytest.raises(TimeConstraintViolated) as err:
        schedule_baseline(g, Allocation({"mul": 1}), cfg, timing)
    assert err.value.suggested_time_constraint == 8
    # m0..m3 start at 0, 2, 4 and 6 on the one instance: two end after 4
    assert err.value.unscheduled == ["m2", "m3"]


@pytest.mark.parametrize("n, suggestion", [(4, 8), (20, None)])
def test_deadline_miss_runs_engine_once(calls, n, suggestion):
    import memsched.scheduler as scheduler

    log = calls((scheduler._Engine, "run"))
    g = muls(n)  # 2n cycles of work on one instance; 8x the deadline is 16
    with pytest.raises(TimeConstraintViolated) as err:
        run_baseline(g, {"mul": 1}, 2)
    assert err.value.suggested_time_constraint == suggestion
    assert [engine.cfg.time_constraint_cycles for _, (engine,) in log] == [2]


def test_engine_fails_loudly_when_nothing_is_pending(monkeypatch):
    # an op whose predecessor never readies it is left with nothing to wait
    # for: the run must raise, not revisit the same cycle forever
    g = Dfg.build([Operation("a", "add", (scalar("x"),), scalar("u")),
                   Operation("b", "add", (scalar("u"),), scalar("v"))], LIB)
    monkeypatch.setattr(Dfg, "successors", lambda self: {"a": (), "b": ()})
    with pytest.raises(RuntimeError, match="no operation left can start"):
        run_baseline(g, {"alu": 1}, 4)


def test_idle_cycles_cost_no_work(line_budget):
    import memsched.scheduler as scheduler

    slow = OperatorLibrary([OperatorClass("mul", frozenset({"mul"}), 200000, 8.0), ALU])
    # fir4 at its minimum allocation: two muls at a time, 200000 cycles each;
    # a few thousand lines of engine work, where a walk over every idle
    # cycle runs millions
    g = fixtures.load_dfg("fir4", slow)
    T = 400100
    timing = compute_timing(g, T)
    alloc = compute_min_allocation(g, T)
    with line_budget(scheduler, 5000):
        base = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
    with line_budget(scheduler, 5000):
        aware = schedule_memory_aware(
            g, alloc, fixtures.load_mapping("fir4"), SchedulerConfig(T), timing
        )
    assert (base.makespan_cycles, aware.makespan_cycles) == (400002, 400003)

    # one instance: the second mul starts at 200000 and ends after the
    # deadline, which is checked once the run has placed both
    g = Dfg.build(
        [Operation(f"m{i}", "mul", (scalar(f"x{i}"),), scalar(f"p{i}")) for i in range(2)],
        slow,
    )
    with pytest.raises(TimeConstraintViolated) as err, line_budget(scheduler, 5000):
        run_baseline(g, {"mul": 1}, 300000)
    assert err.value.suggested_time_constraint == 600000


def test_infeasible_constraint_before_scheduling():
    g = muls(1)
    timing = compute_timing(g, 4)
    cfg = SchedulerConfig(1)
    with pytest.raises(InfeasibleConstraint):
        schedule_baseline(g, Allocation({"mul": 1}), cfg, timing)


@pytest.mark.parametrize("mapping", ["fixture", "registers"])
def test_one_config_drives_both_policies(mapping):
    # the mapping, not the config, decides the policy a schedule reports
    lib = fixtures.load_library()
    g = fixtures.load_dfg("fir16", lib)
    m = fixtures.load_mapping("fir16") if mapping == "fixture" else all_registers()
    cfg = SchedulerConfig(24)
    timing = compute_timing(g, 24)
    alloc = compute_min_allocation(g, 24)
    base = schedule_baseline(g, alloc, cfg, timing)
    aware = schedule_memory_aware(g, alloc, m, cfg, timing)
    assert (base.policy, aware.policy) == (Policy.BASELINE, Policy.MEMORY_AWARE)
    assert base.config is aware.config is cfg
    assert json.loads(base.to_json())["policy"] == "baseline"
    assert json.loads(aware.to_json())["policy"] == "memory_aware"


def test_scheduler_config_bounds():
    # the deadline is the config's only bounded field
    assert SchedulerConfig(1).time_constraint_cycles == 1
    for T in (0, -1):
        with pytest.raises(ValueError, match="time constraint must be >= 1 cycle"):
            SchedulerConfig(T)


# -- model2 affinity ------------------------------------------------------------

def refs(names):
    return tuple(scalar(x) for x in names)


def test_affinity_examples():
    assert _affinity(refs("ab"), refs("ac"), False) == 1
    assert _affinity(refs("ab"), refs("ba"), False) == 2
    assert _affinity(refs("ab"), None, False) == 0


def test_affinity_positional_mode():
    assert _affinity(refs("ab"), refs("ba"), True) == 0
    assert _affinity(refs("ab"), refs("ac"), True) == 1


@given(st.permutations(["a", "b", "c"]))
def test_affinity_invariant_under_operand_permutation(perm):
    reference = _affinity(refs("abc"), refs("axb"), False)
    assert _affinity(refs(perm), refs("axb"), False) == reference


# -- schedule-wide properties ------------------------------------------------------

def test_asap_degeneracy_on_fixtures():
    lib = fixtures.load_library()
    for kernel in ("fir4", "fft8_stage", "iir_biquad"):
        g = fixtures.load_dfg(kernel, lib)
        T = compute_timing(g, 500).critical_path_cycles
        timing = compute_timing(g, T)
        s = schedule_baseline(g, one_instance_per_op(g), SchedulerConfig(T), timing)
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


def _fixture_schedules():
    lib = fixtures.load_library()
    for kernel in ("fir4", "fir16", "fft8_stage", "iir_biquad", "two_adds_one_bank"):
        g, mapping = fixtures.load_dfg(kernel, lib), fixtures.load_mapping(kernel)
        T = generous_deadline(g, mapping)
        alloc, cfg, timing = compute_min_allocation(g, T), SchedulerConfig(T), compute_timing(g, T)
        yield f"{kernel} baseline", schedule_baseline(g, alloc, cfg, timing)
        yield f"{kernel} mem-aware", schedule_memory_aware(g, alloc, mapping, cfg, timing)


def _hand_built_schedules():
    m0, m1 = PortBooking("M0", 0, 0, 1), PortBooking("M1", 1, 0, 2)
    cfg = SchedulerConfig(9)
    yield "empty graph", Schedule({}, cfg)
    entries = {
        "no reads, no store": ScheduleEntry("a", 0, 1, "alu", 0),
        "two banks and a store": ScheduleEntry("b", 2, 4, "mul", 1, (m0, m1),
                                               PortBooking("M0", 0, 4, 5), 2),
        "a read, no store": ScheduleEntry("c", 2, 3, "alu", 0, (m0,)),
        "escaped names": ScheduleEntry("\u00e9\"q", 1, 2, "alu", 1, (),
                                       PortBooking("M\u00e9", 0, 2, 3), 1),
    }
    for name, e in entries.items():
        yield name, Schedule({e.op_id: e}, cfg)
    yield "all of them", Schedule({e.op_id: e for e in entries.values()}, cfg)


@pytest.mark.parametrize("s", [pytest.param(s, id=name) for name, s in
                               [*_fixture_schedules(), *_hand_built_schedules()]])
def test_schedule_json_is_json_dumps_of_its_document(s):
    assert s.to_json() == json.dumps(schedule_doc(s), indent=2) + "\n"


def test_random_baseline_schedules_are_safe():
    rng = random.Random(7)
    for _ in range(25):
        lib = make_library(rng, rng.randint(1, 3))
        g = random_dfg(rng, rng.randint(5, 20), lib)
        T = generous_deadline(g)
        alloc = compute_min_allocation(g, T)
        s = run_baseline(g, dict(alloc.counts), T)
        assert check_schedule_safety(g, s, None, alloc) == []


def test_dynamic_mobility_still_safe():
    rng = random.Random(11)
    lib = make_library(rng, 2)
    g = random_dfg(rng, 12, lib)
    T = generous_deadline(g)
    alloc = compute_min_allocation(g, T)
    s = run_baseline(g, dict(alloc.counts), T, dynamic_mobility=True)
    assert check_schedule_safety(g, s, None, alloc) == []


# -- derived facts ----------------------------------------------------------------

@pytest.mark.parametrize("model, policy", [
    (None, Policy.BASELINE),
    ("no mapping", Policy.BASELINE),
    ("fixture", Policy.MEMORY_AWARE),
    ("registers", Policy.MEMORY_AWARE),
])
def test_policy_is_read_off_the_model(model, policy):
    g = fixtures.load_dfg("fir4")
    models = {
        None: None,
        "no mapping": AccessModel(g),
        "fixture": AccessModel(g, fixtures.load_mapping("fir4")),
        "registers": AccessModel(g, all_registers()),
    }
    assert Schedule({}, SchedulerConfig(8), models[model]).policy is policy


@pytest.mark.parametrize("shared", [0, 1, 2, 3])
def test_is_model2_means_an_input_is_shared(shared):
    entry = ScheduleEntry("m0", 0, 2, "mul", 0, shared_inputs=shared)
    assert entry.is_model2 == (shared >= 1)
