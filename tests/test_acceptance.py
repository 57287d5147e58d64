"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are exact: integer equalities and exact float arithmetic on
binary-representable energy values.
"""

import random
import time
from contextlib import contextmanager

from memsched import (
    Allocation,
    Dfg,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    SchedulerConfig,
    all_registers,
    analyze,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    compute_timing,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched import fixtures
from memsched.cli import main
from oracles import (
    check_schedule_safety,
    generous_deadline,
    make_library,
    one_instance_per_op,
    random_dfg,
    random_mapping,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL  {name}")
        raise
    print(f"[ACCEPTANCE] PASS  {name}")


def run_both(g, alloc, mapping, T, **cfg_kwargs):
    timing = compute_timing(g, T)
    base = schedule_baseline(
        g, alloc, SchedulerConfig(T, **cfg_kwargs), timing
    )
    aware = schedule_memory_aware(
        g, alloc, mapping, SchedulerConfig(T, **cfg_kwargs), timing
    )
    return base, aware


# -- 1. safety ---------------------------------------------------------------------

def test_safety_suite_200_random_dags():
    with criterion("safety: 200 random DAGs, zero invariant violations, < 60 s"):
        rng = random.Random(2024)
        t0 = time.time()
        graphs = 0
        for _ in range(200):
            lib = make_library(rng, rng.randint(1, 3))
            g = random_dfg(rng, rng.randint(5, 50), lib)
            mapping = random_mapping(rng, g, rng.randint(0, 3))
            T = generous_deadline(g, mapping)
            alloc = compute_min_allocation(g, T)
            base, aware = run_both(g, alloc, mapping, T)
            assert check_schedule_safety(g, base, None, alloc) == []
            assert check_schedule_safety(g, aware, mapping, alloc) == []
            graphs += 1
        elapsed = time.time() - t0
        assert graphs == 200
        assert elapsed < 60.0, f"safety suite took {elapsed:.1f}s"


# -- 2. oracle sandwich --------------------------------------------------------------

ALU = OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0)
MUL = OperatorClass("mul", frozenset({"mul"}), 2, 8.0)
LIB2 = OperatorLibrary([ALU, MUL])


def _chain(n, opcode):
    ops = [Operation("n0", opcode, (scalar("i0"),), scalar("d0"))]
    for i in range(1, n):
        ops.append(Operation(f"n{i}", opcode, (scalar(f"d{i-1}"),), scalar(f"d{i}")))
    return Dfg.build(ops, LIB2)


def _independent(n, opcodes):
    ops = [
        Operation(f"n{i}", opcodes[i % len(opcodes)],
                  (scalar(f"x{i}"), scalar(f"y{i}")), scalar(f"d{i}"))
        for i in range(n)
    ]
    return Dfg.build(ops, LIB2)


def _diamond(opcode):
    ops = [
        Operation("a", opcode, (scalar("i"),), scalar("ra")),
        Operation("b", opcode, (scalar("ra"),), scalar("rb")),
        Operation("c", opcode, (scalar("ra"),), scalar("rc")),
        Operation("d", opcode, (scalar("rb"), scalar("rc")), scalar("rd")),
    ]
    return Dfg.build(ops, LIB2)


def _contention(n_ops, ports, with_writes=False):
    ops = []
    place = {}
    for i in range(n_ops):
        ops.append(
            Operation(f"r{i}", "add", (scalar(f"a{i}"), scalar(f"x{i}")),
                      scalar(f"u{i}"))
        )
        place[f"a{i}"] = "M0"
        if with_writes:
            place[f"u{i}"] = "M0"
    g = Dfg.build(ops, LIB2)
    mapping = MemoryMapping(
        [MemoryBank("M0", ports, 1, 1, 0)], place, default_register=True
    )
    return g, mapping


def _sandwich_family():
    """(name, graph, allocation, mapping, subfamily) cases; >= 50 of them,
    every case with at most 7 operations and at most 2 instances per class."""
    cases = []
    for n in range(2, 8):
        for opcode in ("add", "mul"):
            g = _chain(n, opcode)
            cls = "alu" if opcode == "add" else "mul"
            cases.append((f"chain-{opcode}-{n}", g, Allocation({cls: 1}), None, "serial"))
    # ample subfamily: instance counts equal the per-class parallelism need
    ample_cases = [
        ("ample-add-2", _independent(2, ("add",)), Allocation({"alu": 2})),
        ("ample-mul-2", _independent(2, ("mul",)), Allocation({"mul": 2})),
        ("ample-mix-3", _independent(3, ("add", "mul")), Allocation({"alu": 2, "mul": 1})),
        ("ample-mix-4", _independent(4, ("add", "mul")), Allocation({"alu": 2, "mul": 2})),
        ("ample-diamond-add", _diamond("add"), Allocation({"alu": 2})),
        ("ample-diamond-mul", _diamond("mul"), Allocation({"mul": 2})),
    ]
    cases.extend((name, g, alloc, None, "ample") for name, g, alloc in ample_cases)
    for n in range(3, 8):
        for count in (1, 2):
            g = _independent(n, ("add",))
            cases.append((f"packed-add-{n}x{count}", g, Allocation({"alu": count}),
                          None, "general"))
            g2 = _independent(n, ("mul",))
            cases.append((f"packed-mul-{n}x{count}", g2, Allocation({"mul": count}),
                          None, "general"))
    for opcode in ("add", "mul"):
        g = _diamond(opcode)
        cls = "alu" if opcode == "add" else "mul"
        cases.append((f"diamond-{opcode}-1", g, Allocation({cls: 1}), None, "general"))
    for n_ops in (2, 3, 4):
        for ports in (1, 2):
            for with_writes in (False, True):
                g, mapping = _contention(n_ops, ports, with_writes)
                cases.append(
                    (f"contention-{n_ops}ops-{ports}p{'-w' if with_writes else ''}",
                     g, Allocation({"alu": 2}), mapping, "memory")
                )
    for _, g, alloc, _, _ in cases:
        assert len(g.operations) <= 7
        assert all(c <= 2 for c in alloc.counts.values())
    return cases


def test_oracle_sandwich_family():
    with criterion("oracle sandwich: exact optimum <= list makespan on >= 50 instances"):
        cases = _sandwich_family()
        assert len(cases) >= 50
        for name, g, alloc, mapping, subfamily in cases:
            T = generous_deadline(g, mapping)
            timing = compute_timing(g, T)
            if mapping is None:
                sched = schedule_baseline(
                    g, alloc, SchedulerConfig(T), timing
                )
            else:
                sched = schedule_memory_aware(
                    g, alloc, mapping, SchedulerConfig(T), timing
                )
            best, witness = bruteforce_optimal_makespan(
                g, alloc, mapping, sched.makespan_cycles
            )
            assert best <= sched.makespan_cycles, name
            assert check_schedule_safety(g, witness, mapping, alloc) == [], name
            assert check_schedule_safety(g, sched, mapping, alloc) == [], name
            if subfamily == "serial":
                serial = sum(g.class_of(op).latency_cycles for op in g.operations)
                assert best == sched.makespan_cycles == serial, name
            elif subfamily == "ample":
                cp = timing.critical_path_cycles
                assert best == sched.makespan_cycles == cp, name


# -- 3. port gating ------------------------------------------------------------------

def test_port_gating_two_adds_fixture():
    with criterion("port gating: contention fixture starts {1,2}, replay sees a conflict"):
        lib = fixtures.load_library()
        g = fixtures.load_dfg("two_adds_one_bank", lib)
        mapping = fixtures.load_mapping("two_adds_one_bank")
        alloc = Allocation({"alu": 2})
        base, aware = run_both(g, alloc, mapping, 4)
        starts = {e.op_id: e.start_cycle for e in aware.sorted_entries()}
        assert starts == {"r1": 1, "r2": 2}
        m_aware = analyze(aware, g, aware.model)
        m_base = analyze(base, g, aware.model)
        assert m_aware.total_conflicts == 0
        assert m_base.total_conflicts >= 1


# -- 4. degeneracy -------------------------------------------------------------------

def test_degeneracy_equivalences():
    with criterion("degeneracy: registers-only == baseline; ample allocation == ASAP"):
        lib = fixtures.load_library()
        rng = random.Random(99)
        subjects = [fixtures.load_dfg(k, lib) for k in fixtures.KERNELS]
        for _ in range(20):
            rlib = make_library(rng, rng.randint(1, 3))
            subjects.append(random_dfg(rng, rng.randint(5, 20), rlib))
        for g in subjects:
            T = generous_deadline(g)
            alloc = compute_min_allocation(g, T)
            base, aware = run_both(g, alloc, all_registers(), T)
            assert aware.entries == base.entries
            assert aware.makespan_cycles == base.makespan_cycles

            timing = compute_timing(g, T)
            ample = one_instance_per_op(g)
            base_a, aware_a = run_both(g, ample, all_registers(), T)
            for op in g.operations:
                assert base_a.entries[op.id].start_cycle == timing.asap[op.id]
                assert aware_a.entries[op.id].start_cycle == timing.asap[op.id]


# -- 5. energy model -----------------------------------------------------------------

def test_model2_economics():
    with criterion("energy: formula matches independent sums; affinity never loses to id-order"):
        lib = fixtures.load_library()
        # formula vs independently computed sums on three kernels
        for kernel in ("fir4", "fft8_stage", "iir_biquad"):
            g = fixtures.load_dfg(kernel, lib)
            T = generous_deadline(g)
            timing = compute_timing(g, T)
            alloc = compute_min_allocation(g, T)
            cfg = SchedulerConfig(T)
            s = schedule_baseline(g, alloc, cfg, timing)
            m = analyze(s, g)
            expected = 0.0
            for e in s.sorted_entries():
                base_energy = lib.class_for(g.operation(e.op_id).opcode).base_energy
                expected += base_energy * (0.75 if e.is_model2 else 1.0)
            assert m.datapath_energy == expected, kernel

        # frozen micro-case: one shared input on a single instance
        mul_lib = OperatorLibrary([OperatorClass("mul", frozenset({"mul"}), 2, 8.0)])
        a, b, c, d, e = (scalar(x) for x in "abcde")
        g = Dfg.build(
            [
                Operation("m0", "mul", (a, b), scalar("p0")),
                Operation("m1", "mul", (a, c), scalar("p1")),
                Operation("m2", "mul", (d, e), scalar("p2")),
            ],
            mul_lib,
        )
        cfg = SchedulerConfig(10)
        s = schedule_baseline(g, Allocation({"mul": 1}), cfg,
                              compute_timing(g, 10))
        m = analyze(s, g)
        assert m.model2_count == 1
        assert m.datapath_energy == 8.0 + 6.0 + 8.0  # m1 shares "a", 25% off

        # affinity-driven binding never yields fewer sharing ops than id-order
        for kernel in fixtures.KERNELS:
            g = fixtures.load_dfg(kernel, lib)
            mapping = fixtures.load_mapping(kernel)
            T = generous_deadline(g, mapping)
            alloc = compute_min_allocation(g, T)
            for use_mapping in (False, True):
                timing = compute_timing(g, T)
                if use_mapping:
                    on = schedule_memory_aware(
                        g, alloc, mapping,
                        SchedulerConfig(T), timing)
                    off = schedule_memory_aware(
                        g, alloc, mapping,
                        SchedulerConfig(T, use_affinity=False),
                        timing)
                else:
                    on = schedule_baseline(
                        g, alloc, SchedulerConfig(T), timing)
                    off = schedule_baseline(
                        g, alloc,
                        SchedulerConfig(T, use_affinity=False),
                        timing)
                m2_on = sum(1 for x in on.entries.values() if x.is_model2)
                m2_off = sum(1 for x in off.entries.values() if x.is_model2)
                assert m2_on >= m2_off, (kernel, use_mapping)


# -- 6. reduction sweep ---------------------------------------------------------------

def test_energy_reduction_sweep_exact():
    with criterion("sweep: reduction 0.25 -> 0.50 shifts energy by 0.25 * model2 base"):
        lib = fixtures.load_library()
        for kernel in fixtures.KERNELS:
            g = fixtures.load_dfg(kernel, lib)
            T = generous_deadline(g)
            timing = compute_timing(g, T)
            alloc = compute_min_allocation(g, T)
            s = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
            m_low = analyze(s, g, reduction=0.25)
            m_high = analyze(s, g, reduction=0.50)
            model2_base = sum(
                lib.class_for(g.operation(e.op_id).opcode).base_energy
                for e in s.sorted_entries()
                if e.is_model2
            )
            assert m_low.datapath_energy - m_high.datapath_energy == 0.25 * model2_base


# -- 7. determinism -------------------------------------------------------------------

def test_compare_runs_are_byte_identical(tmp_path, capsys):
    with criterion("determinism: two compare runs on fir16 are byte-identical"):
        for name in ("dsp.lib.json", "fir16.dfg.json", "fir16.map.json"):
            (tmp_path / name).write_text(fixtures.fixture_text(name), encoding="utf-8")

        def run(out_name):
            out = tmp_path / out_name
            rc = main(
                [
                    "compare",
                    "--dfg", str(tmp_path / "fir16.dfg.json"),
                    "--library", str(tmp_path / "dsp.lib.json"),
                    "--mapping", str(tmp_path / "fir16.map.json"),
                    "--T", "24",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            return capsys.readouterr().out, (out / "compare.json").read_bytes()

        first = run("run1")
        second = run("run2")
        assert first == second
