"""Golden digests of successful schedules under every scheduling flag,
compared against ``golden_flag_digests.json``.

Each instance is a random graph from ``tests/oracles.py`` with a random
mapping, the minimum allocation (or that allocation plus one instance per
class, so that several free instances compete for the same operation),
scheduled under both policies and every combination of
``dynamic_mobility``, ``positional_affinity`` and ``use_affinity``. Each run
is made at the generous deadline and again at its own makespan, the
tightest deadline it meets. The digest covers, for all 32 runs in order,
``schedule.json`` and the sorted ``(op, shared_inputs)`` pairs, which
``schedule.json`` does not carry.

Refresh the file with ``PYTHONPATH=src:tests python tests/test_golden_flags.py``
only when a change of rule is intended and documented.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

from memsched import (
    Allocation,
    Policy,
    SchedulerConfig,
    compute_min_allocation,
    compute_timing,
    schedule_baseline,
    schedule_memory_aware,
)
from oracles import generous_deadline, make_library, random_dfg, random_mapping

GOLDEN = Path(__file__).with_name("golden_flag_digests.json")

# (dynamic_mobility, positional_affinity, use_affinity)
FLAGS = list(itertools.product((False, True), repeat=3))


def _run(g, alloc, mapping, policy, flags, T):
    dynamic, positional, affinity = flags
    cfg = SchedulerConfig(
        T, dynamic_mobility=dynamic,
        positional_affinity=positional, use_affinity=affinity,
    )
    timing = compute_timing(g, T)
    if policy is Policy.BASELINE:
        return schedule_baseline(g, alloc, cfg, timing)
    return schedule_memory_aware(g, alloc, mapping, cfg, timing)


def flag_digests() -> dict[str, str]:
    rng = random.Random(7)
    digests: dict[str, str] = {}
    for i in range(40):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(6, 24), lib)
        mapping = random_mapping(rng, g, rng.randint(1, 2))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        if rng.random() < 0.5:
            alloc = Allocation({name: n + 1 for name, n in alloc.counts.items()})
        parts = []
        for policy in Policy:
            for flags in FLAGS:
                loose = _run(g, alloc, mapping, policy, flags, T)
                tight = _run(g, alloc, mapping, policy, flags, loose.makespan_cycles)
                for s in (loose, tight):
                    shared = sorted((oid, e.shared_inputs) for oid, e in s.entries.items())
                    parts.extend((s.to_json(), json.dumps(shared)))
        digests[f"flags/{i:03d}"] = hashlib.sha256(
            "\0".join(parts).encode("utf-8")
        ).hexdigest()
    return digests


def test_flagged_schedules_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == 40
    digests = flag_digests()
    assert sorted(k for k in expected.keys() | digests.keys()
                  if expected.get(k) != digests.get(k)) == []


if __name__ == "__main__":
    digests = flag_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
