#!/usr/bin/env python3
"""Explain how a change's golden outputs differ from its parent's.

    git worktree add ../parent HEAD~1    # or: git archive HEAD~1 | tar -x -C ../parent
    python3 tools/golden_diff.py ../parent/src

Rebuilds every corpus of ``tests/golden_corpus.py``, the instances the
golden digests pin, once under the parent's package and once under this
checkout's, each in a process of its own. Both processes build them with
this checkout's ``tests/golden_corpus.py``, so only the package differs.
Each instance falls into the first of these classes, from the bottom up,
that one of its outputs shows:

- identical;
- other fields differ: the same starts, binding and ports, but a report,
  a booking's bank or cycles, or another field differs;
- port numbers only: the schedules differ in port numbers alone;
- instances or shared inputs differ: same starts, another binding;
- start cycles differ, with the makespan change;
- failure message differs, with the change in the late operations.

The corpus puts every schedule either process builds through
``tests/oracles.check_schedule_safety``; the table counts the changed ones
that fail it. The tool prints a markdown table and one line per changed
instance, and exits 0 whatever it finds. It never writes a digest file: it
explains a refresh, it never makes one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
CLASSES = ("identical", "other fields differ", "port numbers only",
           "instances or shared inputs differ", "start cycles differ",
           "failure message differs")


# ---------------------------------------------------------------------------
# comparing the two trees' records

def _entries(text: str) -> dict[str, dict]:
    return {e["op"]: e for e in json.loads(text)["entries"]}


def _without_ports(entry: dict) -> dict:
    def unported(b):
        return {k: v for k, v in b.items() if k != "port"}
    return {**entry, "reads": sorted(map(json.dumps, map(unported, entry["reads"]))),
            "write": unported(entry["write"]) if "write" in entry else None}


def _late(part: dict) -> str:
    """The late operations a deadline failure names, else its message, or ``ok``."""
    if "late" in part:
        return f"late [{', '.join(part['late'])}]"
    return repr(part.get("failure", part.get("text")))


def _failure_change(old: dict, new: dict) -> str:
    """The change in the late operations, or in the whole message when
    they stay the same."""
    before, after = _late(old), _late(new)
    if before == after:
        before, after = (repr(p.get("failure", p.get("text"))) for p in (old, new))
    return f"{before} -> {after}"


def classify_part(old: dict, new: dict) -> tuple[int, str]:
    """(index into CLASSES, detail) for one output of an instance."""
    if {k: v for k, v in old.items() if k != "unsafe"} == \
            {k: v for k, v in new.items() if k != "unsafe"}:
        return 0, ""
    if "failure" in old or "failure" in new:
        return 5, _failure_change(old, new)
    if "schedule" not in old:
        return 1, "the report differs"
    a, b = _entries(old["schedule"]), _entries(new["schedule"])
    if {op: e["start"] for op, e in a.items()} != {op: e["start"] for op, e in b.items()}:
        makespans = [json.loads(p["schedule"])["makespan"] for p in (old, new)]
        return 4, f"makespan {makespans[0]} -> {makespans[1]}"
    if any(a[op][k] != b[op][k] for op in a for k in ("instance", "model2")) or \
            old.get("shared") != new.get("shared"):
        return 3, "the binding differs"
    if a != b and {op: _without_ports(e) for op, e in a.items()} == \
            {op: _without_ports(e) for op, e in b.items()}:
        return 2, "port numbers differ"
    return 1, "a field other than starts, binding and ports differs"


def compare(old: dict[str, list[dict]], new: dict[str, list[dict]]):
    """Per corpus, the count of instances in each class and of changed
    schedules that fail the safety checker, and per changed instance one
    line naming its class and its first output of that class. Both sides
    hold the same instances, each with the same runs, in corpus order."""
    counts: dict[str, Counter] = {}
    details = []
    for key, parts in new.items():
        count = counts.setdefault(key.split("/")[0], Counter())
        found = [(classify_part(p, q), q) for p, q in zip(old[key], parts, strict=True)]
        worst = max(cls for (cls, _), _ in found)
        count[CLASSES[worst]] += 1
        count["unsafe"] += sum(bool(q.get("unsafe")) for (cls, _), q in found if cls)
        if worst:
            detail, part = next((d, q) for (c, d), q in found if c == worst)
            details.append(f"- {key}: {CLASSES[worst]}; {part['name']}: {detail}")
    return counts, details


def table(counts: dict[str, Counter]) -> str:
    head = ["corpus", "instances", *CLASSES, "unsafe changed schedules"]
    rows = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for corpus, c in counts.items():
        total = sum(c[name] for name in CLASSES)
        rows.append("| " + " | ".join([corpus, str(total), *(str(c[name]) for name in CLASSES),
                                       str(c["unsafe"])]) + " |")
    return "\n".join(rows)


def records_of(src: Path, limit: int | None) -> dict[str, list[dict]]:
    """The records of the package under ``src``, built in a process of its
    own with this checkout's ``tests/`` on its path."""
    args = [sys.executable, str(Path(__file__).resolve()), str(src), "--collect"]
    if limit is not None:
        args += ["--limit", str(limit)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: collecting exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", type=Path, help="the parent's src directory")
    p.add_argument("--limit", type=int, help="instances per corpus (default: all)")
    p.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.collect:  # the process of the one tree under ``src``
        sys.path[:0] = [str(args.src), str(TESTS)]
        import golden_corpus

        json.dump(golden_corpus.build(args.limit).records, sys.stdout)
        return 0
    counts, details = compare(records_of(args.src, args.limit),
                              records_of(ROOT / "src", args.limit))
    print(table(counts))
    if details:
        print()
        print("\n".join(details))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
