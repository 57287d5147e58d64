"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are exact: integer equalities and exact float arithmetic on
binary-representable energy values.
"""

import json
import random
from contextlib import contextmanager

from memsched import (
    Allocation,
    Dfg,
    Operation,
    OperatorClass,
    OperatorLibrary,
    Policy,
    SchedulerConfig,
    all_registers,
    analyze,
    compute_min_allocation,
    compute_timing,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched import fixtures
from memsched.cli import main
from golden_corpus import run
from oracles import (
    generous_deadline,
    make_library,
    one_instance_per_op,
    random_dfg,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL  {name}")
        raise
    print(f"[ACCEPTANCE] PASS  {name}")


def run_both(g, alloc, mapping, T):
    return (run(g, mapping, alloc, Policy.BASELINE, T),
            run(g, mapping, alloc, Policy.MEMORY_AWARE, T))


# -- 1. safety ---------------------------------------------------------------------

def _schedules(golden, corpus):
    return [part for key, parts in golden.records.items() if key.startswith(f"{corpus}/")
            for part in parts if "schedule" in part]


def test_safety_suite_200_random_dags(golden):
    # the random corpus of golden_corpus.py, drawn, scheduled under both
    # policies and checked once per session
    with criterion("safety: 200 random DAGs, zero invariant violations, < 60 s"):
        schedules = _schedules(golden, "random")
        assert len(schedules) == 2 * 200
        assert [part["unsafe"] for part in schedules if part["unsafe"]] == []
        elapsed = golden.seconds["random"]
        assert elapsed < 60.0, f"safety suite took {elapsed:.1f}s"


# -- 2. oracle sandwich --------------------------------------------------------------

def test_oracle_sandwich_family(golden):
    # golden_corpus.py's oracle corpus: every case with at most 7 operations
    # and at most 2 instances per class
    with criterion("oracle sandwich: exact optimum <= list makespan on >= 50 instances"):
        cases = [instance for instance in golden.instances if instance[0].startswith("oracle/")]
        assert len(cases) >= 50
        assert len(_schedules(golden, "oracle")) == 2 * len(cases)
        for key, g, mapping, T, alloc in cases:
            assert len(g.operations) <= 7 and all(c <= 2 for c in alloc.counts.values()), key
            optimum, witness, sched = golden.records[key]
            best, makespan = int(optimum["text"]), json.loads(sched["schedule"])["makespan"]
            assert best <= makespan, key
            assert witness["unsafe"] == sched["unsafe"] == [], key
            if key.startswith("oracle/chain-"):  # one instance: serial
                serial = sum(g.class_of(op).latency_cycles for op in g.operations)
                assert best == makespan == serial, key
            elif key.startswith("oracle/ample-"):
                cp = compute_timing(g, T).critical_path_cycles
                assert best == makespan == cp, key


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
