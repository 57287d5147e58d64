"""Golden digests of the deadline-failure path: the ``TimeConstraintViolated``
message (the operations left unscheduled and the suggested deadline) on
seeded instances that miss their deadline, compared against
``golden_failure_digests.json``.

Each instance is a random graph from ``tests/oracles.py`` on one random
bank, at its critical path as the deadline, with the minimum allocation or
one instance per class. It is scheduled under both policies and every
combination of ``dynamic_mobility``, ``positional_affinity`` and
``use_affinity``; the digest covers the 16 outcomes in order ("ok" for a
run that fits). The family reaches every suggestion the error can carry:
2x, 4x and 8x the deadline, and none.

Refresh the file with ``PYTHONPATH=src:tests python tests/test_golden_failures.py``
only when a change of rule is intended and documented.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from memsched import (
    Allocation,
    Policy,
    SchedulerConfig,
    TimeConstraintViolated,
    compute_min_allocation,
    compute_timing,
    schedule_baseline,
    schedule_memory_aware,
)
from oracles import generous_deadline, make_library, random_dfg, random_mapping

GOLDEN = Path(__file__).with_name("golden_failure_digests.json")

# (dynamic_mobility, positional_affinity, use_affinity)
FLAGS = list(itertools.product((False, True), repeat=3))


def failure_digests() -> tuple[dict[str, str], Counter]:
    """Digest per instance, and how often each suggestion (as a multiple of
    the deadline, None for no suggestion) was made."""
    rng = random.Random(2)
    digests: dict[str, str] = {}
    suggestions: Counter = Counter()
    for i in range(40):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(6, 20), lib)
        mapping = random_mapping(rng, g, 1)
        T = compute_timing(g, generous_deadline(g, mapping)).critical_path_cycles
        alloc = compute_min_allocation(g, T)
        if rng.random() < 0.5:
            alloc = Allocation(dict.fromkeys(alloc.counts, 1))
        timing = compute_timing(g, T)
        outcomes = []
        for policy in Policy:
            for dynamic, positional, affinity in FLAGS:
                cfg = SchedulerConfig(
                    T, dynamic_mobility=dynamic,
                    positional_affinity=positional, use_affinity=affinity,
                )
                try:
                    if policy is Policy.BASELINE:
                        schedule_baseline(g, alloc, cfg, timing)
                    else:
                        schedule_memory_aware(g, alloc, mapping, cfg, timing)
                    outcomes.append("ok")
                except TimeConstraintViolated as e:
                    outcomes.append(e.message)
                    s = e.suggested_time_constraint
                    suggestions[None if s is None else s // T] += 1
        digests[f"failure/{i:03d}"] = hashlib.sha256(
            "\0".join(outcomes).encode("utf-8")
        ).hexdigest()
    return digests, suggestions


@pytest.fixture(scope="module")
def family():
    return failure_digests()


def test_deadline_failures_match_golden(family):
    digests, _ = family
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == 40
    assert sorted(k for k in expected.keys() | digests.keys()
                  if expected.get(k) != digests.get(k)) == []


def test_deadline_failure_family_hits_every_suggestion(family):
    _, suggestions = family
    assert set(suggestions) == {2, 4, 8, None}


if __name__ == "__main__":
    digests, _ = failure_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
