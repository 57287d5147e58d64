"""The golden classifier ``tools/golden_diff.py`` on the first instances of
each corpus: this checkout on both sides, and against copies of the package
with one change planted."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 2  # instances per corpus; one collection takes about 0.5 s

_spec = importlib.util.spec_from_file_location("golden_diff", ROOT / "tools" / "golden_diff.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


@pytest.fixture(scope="module")
def here():
    return tool.records_of(ROOT / "src", LIMIT)


def planted(tmp_path, module, anchor, change):
    """The records of a copy of the package with ``anchor`` in ``module``
    replaced by ``change``."""
    copy = tmp_path / "memsched"
    shutil.copytree(ROOT / "src" / "memsched", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / module
    text = path.read_text(encoding="utf-8")
    assert text.count(anchor) == 1, f"the plant's anchor moved: {anchor!r}"
    path.write_text(text.replace(anchor, change), encoding="utf-8")
    return tool.records_of(tmp_path, LIMIT)


def found(counts):
    """Per corpus, the classes that hold an instance."""
    return {corpus: {name for name in tool.CLASSES if c[name]} for corpus, c in counts.items()}


def test_the_same_tree_on_both_sides_is_identical_everywhere(capsys):
    assert tool.main([str(ROOT / "src"), "--limit", str(LIMIT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(tool.CORPORA)  # the table, and no changed instance
    for line, corpus in zip(lines[2:], tool.CORPORA):
        name, instances, identical, *others = [cell.strip() for cell in line.strip("|").split("|")]
        assert (name, instances, identical) == (corpus, str(LIMIT), str(LIMIT))
        assert others == ["0"] * len(others)


def test_the_rebuilt_corpora_are_the_golden_ones(here):
    golden = {}
    for name in ("golden_digests.json", "golden_flag_digests.json",
                 "golden_failure_digests.json"):
        golden.update(json.loads((ROOT / "tests" / name).read_text(encoding="utf-8")))
    digests = tool.golden_digests(here)
    # each fixture has six digests: both schedules and Gantt charts, the
    # mem-aware metrics and the comparison
    assert len(digests) == LIMIT * (6 + 4)
    assert {k: golden.get(k) for k in digests} == digests


def test_a_planted_port_swap_is_port_numbers_only(here, tmp_path):
    # the left-edge pass takes the highest free port instead of the lowest
    swapped = planted(tmp_path, "scheduler.py", "for p, until in enumerate(ports):",
                      "for p, until in reversed(list(enumerate(ports))):")
    counts, details = tool.compare(here, swapped)
    assert found(counts)["random"] == {"port numbers only"}
    assert all(classes <= {"identical", "port numbers only"} for classes in found(counts).values())
    assert all(c["unsafe"] == 0 for c in counts.values())
    assert len(details) == sum(c["port numbers only"] for c in counts.values())


def test_a_planted_start_shift_is_start_cycles_differ(here, tmp_path):
    # every entry reports one cycle later than it was placed, its port
    # bookings left where they were: unsafe wherever an op uses a bank
    shifted = planted(tmp_path, "scheduler.py", "ScheduleEntry(oid, s, s + plans[oid].latency",
                      "ScheduleEntry(oid, s + 1, s + 1 + plans[oid].latency")
    counts, details = tool.compare(here, shifted)
    for corpus in ("fixture", "random", "oracle", "flags"):
        assert found(counts)[corpus] == {"start cycles differ"}
    # the failure messages come from the engine's completions, not the entries
    assert found(counts)["failure"] == {"identical"}
    assert counts["random"]["unsafe"] > 0
    assert all("makespan" in line for line in details)
