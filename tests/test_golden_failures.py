"""Golden digests of the deadline-failure path: the ``TimeConstraintViolated``
message (the operations that complete after the deadline and the suggested
deadline) on the failure corpus of ``golden_corpus.py``, compared against
``golden_failure_digests.json``, and the one-run rule that message follows.

Each instance is a random graph on one random bank, at its critical path as
the deadline, with the minimum allocation or one instance per class. It is
scheduled under both policies and every combination of
``dynamic_mobility``, ``positional_affinity`` and ``use_affinity``; the
digest covers the 16 outcomes in order ("ok" for a run that fits). The
family reaches every suggestion the error can carry: 2x, 4x and 8x the
deadline, and none. The engine places every operation whatever the
deadline, so a run at the suggested deadline builds the schedule the
failing run built, and the operations it completes after the deadline are
the ones the error names.
"""

from collections import Counter

import pytest

from memsched import TimeConstraintViolated
import golden_corpus
from golden_corpus import RUNS, run


@pytest.fixture(scope="module")
def failures(golden):
    """Per instance of the failure corpus: its key, (graph, mapping,
    deadline, allocation) and its 16 outcomes, one per ``RUNS`` entry."""
    return [(key, instance, golden.records[key]) for key, *instance in golden.instances
            if key.startswith("failure/")]


def test_deadline_failures_match_golden(golden):
    assert len(golden_corpus.committed("failure")) == 40
    assert golden_corpus.changed(golden.records, "failure") == []


def test_deadline_failure_family_hits_every_suggestion(failures):
    # the exact count of each suggestion, as a multiple of the deadline, over
    # the 640 outcomes, so a change in how the suggestion is found that moves
    # any of them shows here
    suggestions = Counter(None if p["suggested"] is None else p["suggested"] // T
                          for _, (_, _, T, _), outcomes in failures
                          for p in outcomes if "failure" in p)
    assert dict(suggestions) == {2: 152, 4: 258, 8: 94, None: 32}


def test_failures_follow_the_one_run_rule(failures):
    # at the suggested deadline S, with the timing computed at S as the CLI
    # computes it, the run succeeds, S is the smallest multiple that fits,
    # and the operations completing after T are exactly the ones the error
    # named; with no suggestion, 8T fails too
    checked: Counter = Counter()
    for key, (g, mapping, T, alloc), outcomes in failures:
        for (policy, flags), part in zip(RUNS, outcomes, strict=True):
            if "failure" not in part:
                continue
            S = part["suggested"]
            checked[S is not None] += 1
            if S is None:
                with pytest.raises(TimeConstraintViolated):
                    run(g, mapping, alloc, policy, 8 * T, flags)
                continue
            s = run(g, mapping, alloc, policy, S, flags)
            assert S == 2 * T or s.makespan_cycles > S // 2, (key, policy, flags)
            late = sorted(e.op_id for e in s.entries.values()
                          if (e.write_booking.end if e.write_booking else e.end_cycle) > T)
            assert late == part["late"], (key, policy, flags)
    assert checked == {True: 504, False: 32}
