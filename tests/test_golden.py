"""Golden digests: the sha256 of every output document the scheduling rules
produce on the fixture, random and oracle corpora of ``golden_corpus.py``,
compared against ``golden_digests.json``; every golden schedule passes the
safety checker, and the corpus module rewrites the committed digest files
byte for byte.

A change that alters any digest here changes output; ``golden_corpus.py``
says how to refresh the files, which is done only when a change of rule is
intended and documented.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden_corpus


def test_fixture_outputs_match_golden(golden):
    assert len(golden_corpus.committed("fixture")) == 30
    assert golden_corpus.changed(golden.records, "fixture") == []


def test_random_schedules_match_golden(golden):
    assert len(golden_corpus.committed("random")) == 200
    assert golden_corpus.changed(golden.records, "random") == []


def test_oracle_witnesses_match_golden(golden):
    assert len(golden_corpus.committed("oracle")) >= 50
    assert golden_corpus.changed(golden.records, "oracle") == []


@pytest.mark.parametrize("corpus, schedules", [
    ("fixture", 10),  # both policies on five fixtures
    ("random", 400),  # both policies
    ("oracle", 104),  # the witness and the list schedule
    ("flags", 1280),  # 32 runs, each at T and at its makespan
])
def test_every_golden_schedule_is_safe(golden, corpus, schedules):
    parts = [(key, part["name"], part["unsafe"]) for key, parts in golden.records.items()
             if key.startswith(f"{corpus}/") for part in parts if "schedule" in part]
    assert len(parts) == schedules
    assert [found for found in parts if found[2]] == []


def test_the_writer_reproduces_the_committed_files(golden, tmp_path):
    golden_corpus.write(golden_corpus.digests(golden.records), tmp_path)
    for name in golden_corpus.FILES:
        assert (tmp_path / name).read_bytes() == (golden_corpus.HERE / name).read_bytes(), name


def test_the_corpus_imports_no_test_framework():
    # tools/golden_diff.py runs the corpus with the standard library alone
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    code = "import sys, golden_corpus; print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
