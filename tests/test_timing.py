"""One timing rule: ``compute_timing`` over the access model's plans.

Without a model it reads the register-only plans and equals the latency-only
rule it replaced (``oracles.latency_timing``) on every instance the golden
tests schedule and on the benchmark's kernels. Under a mapping's model each
operation's ASAP is the engine's start when no instance or port is short,
its ALAP is the latest start every path allows, and the critical path is at
most every memory-aware makespan.
"""

import random
import sys
from pathlib import Path

import pytest

from memsched import (
    AccessModel,
    Allocation,
    CycleDetected,
    Dfg,
    InfeasibleConstraint,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    SchedulerConfig,
    UnknownOpcode,
    compute_min_allocation,
    compute_timing,
    fixtures,
    parse_dfg,
    parse_library,
    parse_mapping,
    scalar,
    schedule_memory_aware,
)
from oracles import (
    generous_deadline,
    latency_timing,
    make_library,
    one_instance_per_op,
    random_dfg,
    random_mapping,
)
from test_acceptance import _sandwich_family
from test_golden import FIXTURE_RUNS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generators as gen  # from bench/, put on the path above


def golden_instances():
    """(key, graph, mapping, deadline, allocation) of every instance the
    golden tests schedule, drawn from the seeds and in the order
    ``tests/test_golden*.py`` draw them."""
    lib = fixtures.load_library()
    for kernel, (deadline, alloc) in FIXTURE_RUNS.items():
        g, mapping = fixtures.load_dfg(kernel, lib), fixtures.load_mapping(kernel)
        T = deadline or generous_deadline(g, mapping)
        counts = dict(compute_min_allocation(g, T).counts)
        counts.update((a.split("=")[0], int(a.split("=")[1])) for a in alloc[1::2])
        yield f"fixture/{kernel}", g, mapping, T, Allocation(counts)
    rng = random.Random(2024)
    for i in range(200):
        lib = make_library(rng, rng.randint(1, 3))
        g = random_dfg(rng, rng.randint(5, 50), lib)
        mapping = random_mapping(rng, g, rng.randint(0, 3))
        T = generous_deadline(g, mapping)
        yield f"random/{i:03d}", g, mapping, T, compute_min_allocation(g, T)
    for name, g, alloc, mapping, _ in _sandwich_family():
        yield f"oracle/{name}", g, mapping, generous_deadline(g, mapping), alloc
    rng = random.Random(7)
    for i in range(40):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(6, 24), lib)
        mapping = random_mapping(rng, g, rng.randint(1, 2))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        if rng.random() < 0.5:
            alloc = Allocation({name: n + 1 for name, n in alloc.counts.items()})
        yield f"flags/{i:03d}", g, mapping, T, alloc
    rng = random.Random(2)
    for i in range(40):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(6, 20), lib)
        mapping = random_mapping(rng, g, 1)
        T = latency_timing(g, generous_deadline(g, mapping)).critical_path_cycles
        alloc = compute_min_allocation(g, T)
        if rng.random() < 0.5:
            alloc = Allocation(dict.fromkeys(alloc.counts, 1))
        yield f"failure/{i:03d}", g, mapping, T, alloc


def bench_kernels():
    """(name, graph, mapping) of the benchmark's generated kernels, dsp-narrow's
    and fixtures-cli's, and two larger ones."""
    rng = random.Random(1)
    dsp = parse_library(gen.dump(gen.DSP_LIBRARY))
    random_lib = gen.random_library((1, 2))
    for name, (dfg, mapping), lib in [
        ("fir48", gen.fir(rng, 48), gen.DSP_LIBRARY),
        ("fft16", gen.fft(rng, 16), gen.DSP_LIBRARY),
        ("biquad11", gen.biquads(rng, 11), gen.DSP_LIBRARY),
        ("fft128", gen.fft(rng, 128), gen.DSP_LIBRARY),
        ("fir512", gen.fir(rng, 512), gen.DSP_LIBRARY),
        ("dag64", gen.random_dag(rng, 64, 2, window=4), random_lib),
    ]:
        library = dsp if lib is gen.DSP_LIBRARY else parse_library(gen.dump(lib))
        yield name, parse_dfg(gen.dump(dfg), library), parse_mapping(gen.dump(mapping))


@pytest.fixture(scope="module")
def instances():
    return list(golden_instances())


def test_register_only_timing_is_the_latency_rule(instances):
    kernels = [(name, g, mapping, 10**6, None) for name, g, mapping in bench_kernels()]
    assert len(instances) == 5 + 200 + len(_sandwich_family()) + 40 + 40
    for key, g, _, T, _ in instances + kernels:
        critical = latency_timing(g, T).critical_path_cycles
        for deadline in (T, critical):
            timing, reference = compute_timing(g, deadline), latency_timing(g, deadline)
            assert timing == reference, key
            assert list(timing.asap) == list(reference.asap), key  # topological
        with pytest.raises(InfeasibleConstraint) as err:
            compute_timing(g, critical - 1)
        assert err.value.critical_path_cycles == critical, key


def test_memory_aware_asap_is_the_engine_start_without_contention(instances):
    # one instance per operation, and every bank with a port per access:
    # an operation starts at the first cycle the access model allows
    checked = 0
    for key, g, mapping, _, _ in instances:
        if mapping is None or not mapping.banks:
            continue
        ports = sum(len(op.operands) + 1 for op in g.operations)  # every access at once
        unlimited = MemoryMapping([b._replace(ports=ports) for b in mapping.banks],
                                  mapping.placement, mapping.default_register)
        T = generous_deadline(g, mapping)  # admits a serialized schedule
        s = schedule_memory_aware(g, one_instance_per_op(g), unlimited, SchedulerConfig(T),
                                  compute_timing(g, T))
        asap = compute_timing(g, T, AccessModel(g, mapping)).asap
        assert {oid: e.start_cycle for oid, e in s.entries.items()} == dict(asap), key
        checked += 1
    assert checked == 262


def test_memory_aware_alap_is_the_latest_start_every_path_allows(instances):
    # every wait holds between ALAP starts, and each operation either
    # completes at the deadline or has a successor whose wait it meets exactly
    for key, g, mapping, _, _ in instances:
        model, T = AccessModel(g, mapping), generous_deadline(g, mapping)
        plans, alap = model.plans, compute_timing(g, T, model).alap
        slack = {oid: T - alap[oid] - p.done for oid, p in plans.items()}
        for oid, p in plans.items():
            for pred, lag in p.waits:
                gap = alap[oid] - (alap[pred] + plans[pred].done + lag)
                assert gap >= 0, key
                slack[pred] = min(slack[pred], gap)
        assert set(slack.values()) == {0}, key


def test_memory_aware_critical_path_bounds_every_mem_aware_makespan(instances):
    longer = 0
    for key, g, mapping, T, alloc in instances:
        if mapping is None:
            continue
        model = AccessModel(g, mapping)
        aware = compute_timing(g, 10**6, model)
        blind = compute_timing(g, 10**6)
        # the plans only add to the latency rule: completions, waits, floor
        assert all(aware.asap[o] >= blind.asap[o] for o in blind.asap), key
        longer += aware.critical_path_cycles > blind.critical_path_cycles
        deadline = generous_deadline(g, mapping)  # admits a serialized schedule
        s = schedule_memory_aware(g, alloc, mapping, SchedulerConfig(deadline),
                                  compute_timing(g, deadline))
        assert aware.critical_path_cycles <= s.makespan_cycles, key
    assert longer == 262  # every instance with a bank


def test_a_fetch_lengthens_the_critical_path():
    # FFT-16 of the benchmark on its 1-port banks: the blind critical path
    # would admit a deadline that no schedule meets
    name, g, mapping = next(k for k in bench_kernels() if k[0] == "fft16")
    blind = compute_timing(g, 10**6).critical_path_cycles
    aware = compute_timing(g, 10**6, AccessModel(g, mapping)).critical_path_cycles
    assert (blind, aware) == (12, 17)
    with pytest.raises(InfeasibleConstraint):
        compute_timing(g, blind, AccessModel(g, mapping))


def test_an_unknown_opcode_reports_before_a_cycle():
    # the plans, and with them the opcode lookups, come before the order
    lib = OperatorLibrary([OperatorClass("alu", frozenset({"add"}), 1)])
    ops = [Operation("a", "xor", (scalar("i"), scalar("rb")), scalar("ra")),
           Operation("b", "add", (scalar("ra"),), scalar("rb"))]
    g = Dfg.build(ops, lib)
    with pytest.raises(UnknownOpcode, match="'xor'"):
        compute_timing(g, 10)
    with pytest.raises(UnknownOpcode):
        AccessModel(g)
    g = Dfg.build([ops[0]._replace(opcode="add"), ops[1]], lib)
    with pytest.raises(CycleDetected):
        compute_timing(g, 10)
    with pytest.raises(CycleDetected):
        compute_timing(g, 10, AccessModel(g))
