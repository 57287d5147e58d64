"""Differential test: the package's engine against the naive reference
scheduler in ``reference_engine.py``, placement by placement, on seeded
random instances under both policies and every scheduling flag."""

import random

import pytest

from memsched import (
    Allocation,
    Policy,
    TimeConstraintViolated,
    compute_min_allocation,
    compute_timing,
)
from golden_corpus import FLAGS, run
from oracles import generous_deadline, make_library, random_dfg, random_mapping
from reference_engine import reference_schedule


def _instances(seed: int, n: int):
    rng = random.Random(seed)
    for _ in range(n):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(3, 9), lib)
        mapping = random_mapping(rng, g, rng.randint(1, 2))
        critical = compute_timing(g, 10**6).critical_path_cycles
        T = rng.choice((critical, (critical + generous_deadline(g, mapping)) // 2,
                        generous_deadline(g, mapping)))
        extra = rng.randint(0, 2)
        counts = {k: v + extra for k, v in compute_min_allocation(g, T).counts.items()}
        yield g, mapping, counts, T


def _engine(g, mapping, counts, T, policy, flags):
    try:
        s = run(g, mapping, Allocation(counts), policy, T, flags)
    except TimeConstraintViolated as err:
        return None, err.unscheduled
    placed = {
        e.op_id: {
            "start": e.start_cycle,
            "instance": e.instance_index,
            "shared": e.shared_inputs,
            "reads": {(b.bank_id, b.port_index, b.start, b.end) for b in e.read_bookings},
            "write": (None if e.write_booking is None else
                      (e.write_booking.bank_id, e.write_booking.port_index,
                       e.write_booking.start, e.write_booking.end)),
        }
        for e in s.entries.values()
    }
    return placed, []


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_engine_matches_naive_reference(policy):
    outcomes = {"placed": 0, "missed": 0}
    for g, mapping, counts, T in _instances(2027, 100):
        for flags in FLAGS:
            dynamic, positional, affinity = flags
            want, want_left = reference_schedule(
                g, counts, mapping if policy is Policy.MEMORY_AWARE else None, T,
                dynamic_mobility=dynamic, positional_affinity=positional,
                use_affinity=affinity,
            )
            got, got_left = _engine(g, mapping, counts, T, policy, flags)
            assert got_left == want_left, (T, flags)
            if got is not None:
                assert got == want, (T, flags)
                outcomes["placed"] += 1
            else:
                outcomes["missed"] += 1
    # both outcomes occur, so neither path is compared vacuously
    assert outcomes["placed"] and outcomes["missed"], outcomes


def _crowded_instances(seed: int, n: int):
    """40-80-op instances at their minimum allocation, so that many ready ops
    wait at once, often several with one class and one window shape; the
    deadline cycles through the critical path, a midpoint and a generous
    one."""
    rng = random.Random(seed)
    for i in range(n):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(40, 80), lib)
        mapping = random_mapping(rng, g, rng.randint(1, 2))
        critical = compute_timing(g, 10**6).critical_path_cycles
        generous = generous_deadline(g, mapping)
        T = (critical, (critical + generous) // 2, generous)[i % 3]
        yield g, mapping, dict(compute_min_allocation(g, T).counts), T


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_engine_matches_naive_reference_on_crowded_instances(policy):
    outcomes = {"placed": 0, "missed": 0}
    for g, mapping, counts, T in _crowded_instances(4, 10):
        for flags in FLAGS:
            dynamic, positional, affinity = flags
            want, want_left = reference_schedule(
                g, counts, mapping if policy is Policy.MEMORY_AWARE else None, T,
                dynamic_mobility=dynamic, positional_affinity=positional,
                use_affinity=affinity,
            )
            got, got_left = _engine(g, mapping, counts, T, policy, flags)
            assert got_left == want_left, (len(g.operations), T, flags)
            if got is not None:
                assert got == want, (len(g.operations), T, flags)
            outcomes["placed" if got is not None else "missed"] += 1
    assert outcomes["placed"] and outcomes["missed"], outcomes
