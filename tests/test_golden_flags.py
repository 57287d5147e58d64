"""Golden digests of successful schedules under every scheduling flag: the
flags corpus of ``golden_corpus.py``, compared against
``golden_flag_digests.json``.

Each digest covers, for all 32 runs of an instance in order (both policies,
every combination of ``dynamic_mobility``, ``positional_affinity`` and
``use_affinity``, each at the generous deadline and at its own makespan),
``schedule.json`` and the sorted ``(op, shared_inputs)`` pairs, which
``schedule.json`` does not carry.
"""

import golden_corpus


def test_flagged_schedules_match_golden(golden):
    assert len(golden_corpus.committed("flags")) == 40
    assert golden_corpus.changed(golden.records, "flags") == []
