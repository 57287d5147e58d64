"""Golden digests of the deadline-failure path: the ``TimeConstraintViolated``
message (the operations that complete after the deadline and the suggested
deadline) on seeded instances that miss their deadline, compared against
``golden_failure_digests.json``, and the one-run rule that message follows.

Each instance is a random graph from ``tests/oracles.py`` on one random
bank, at its critical path as the deadline, with the minimum allocation or
one instance per class. It is scheduled under both policies and every
combination of ``dynamic_mobility``, ``positional_affinity`` and
``use_affinity``; the digest covers the 16 outcomes in order ("ok" for a
run that fits). The family reaches every suggestion the error can carry:
2x, 4x and 8x the deadline, and none. The engine places every operation
whatever the deadline, so a run at the suggested deadline builds the
schedule the failing run built, and the operations it completes after the
deadline are the ones the error names.

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


def run(g, alloc, mapping, policy, cfg, timing):
    if policy is Policy.BASELINE:
        return schedule_baseline(g, alloc, cfg, timing)
    return schedule_memory_aware(g, alloc, mapping, cfg, timing)


def family_outcomes():
    """Per seeded instance: its key, its (graph, allocation, mapping) and its
    16 outcomes (policy, config, the TimeConstraintViolated raised or None)."""
    rng = random.Random(2)
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
                    run(g, alloc, mapping, policy, cfg, timing)
                    outcomes.append((policy, cfg, None))
                except TimeConstraintViolated as e:
                    outcomes.append((policy, cfg, e))
        yield f"failure/{i:03d}", (g, alloc, mapping), outcomes


def failure_digests(family) -> tuple[dict[str, str], Counter]:
    """Digest per instance, and how often each suggestion (as a multiple of
    the deadline, None for no suggestion) was made."""
    digests: dict[str, str] = {}
    suggestions: Counter = Counter()
    for key, _, outcomes in family:
        for _, cfg, e in outcomes:
            if e is not None:
                s = e.suggested_time_constraint
                suggestions[None if s is None else s // cfg.time_constraint_cycles] += 1
        digests[key] = hashlib.sha256("\0".join(
            "ok" if e is None else e.message for _, _, e in outcomes
        ).encode("utf-8")).hexdigest()
    return digests, suggestions


@pytest.fixture(scope="module")
def family():
    return list(family_outcomes())


@pytest.fixture(scope="module")
def summary(family):
    return failure_digests(family)


def test_deadline_failures_match_golden(summary):
    digests, _ = summary
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == 40
    assert sorted(k for k in expected.keys() | digests.keys()
                  if expected.get(k) != digests.get(k)) == []


def test_deadline_failure_family_hits_every_suggestion(summary):
    # the exact count of each suggestion over the 640 outcomes, so a change
    # in how the suggestion is found that moves any of them shows here
    _, suggestions = summary
    assert dict(suggestions) == {2: 152, 4: 258, 8: 94, None: 32}


def test_failures_follow_the_one_run_rule(family):
    # at the suggested deadline S, with the timing computed at S as the CLI
    # computes it, the run succeeds, S is the smallest multiple that fits,
    # and the operations completing after T are exactly the ones the error
    # named; with no suggestion, 8T fails too
    checked: Counter = Counter()
    for key, (g, alloc, mapping), outcomes in family:
        for policy, cfg, err in outcomes:
            if err is None:
                continue
            T, S = cfg.time_constraint_cycles, err.suggested_time_constraint
            again = cfg._replace(time_constraint_cycles=S or 8 * T)
            timing = compute_timing(g, again.time_constraint_cycles)
            checked[S is not None] += 1
            if S is None:
                with pytest.raises(TimeConstraintViolated):
                    run(g, alloc, mapping, policy, again, timing)
                continue
            s = run(g, alloc, mapping, policy, again, timing)
            assert S == 2 * T or s.makespan_cycles > S // 2, (key, policy, cfg)
            late = sorted(e.op_id for e in s.entries.values()
                          if (e.write_booking.end if e.write_booking else e.end_cycle) > T)
            assert late == err.unscheduled, (key, policy, cfg)
    assert checked == {True: 504, False: 32}


if __name__ == "__main__":
    digests, _ = failure_digests(family_outcomes())
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
