#!/usr/bin/env python3
"""Explain how a change's golden outputs differ from its parent's.

    git worktree add ../parent HEAD~1    # or: git archive HEAD~1 | tar -x -C ../parent
    python3 tools/golden_diff.py ../parent/src

Rebuilds every corpus that ``tests/test_golden*.py`` digests, once under the
parent's package and once under this checkout's, each in a process of its
own. Both processes draw the instances from this checkout's ``tests/``, so
only the package differs. Each instance falls into the first of these
classes, from the bottom up, that one of its outputs shows:

- identical;
- other fields differ: the same starts, binding and ports, but a report,
  a booking's bank or cycles, or another field differs;
- port numbers only: the schedules differ in port numbers alone;
- instances or shared inputs differ: same starts, another binding;
- start cycles differ, with the makespan change;
- failure message differs, with the change in the late operations.

Every schedule either process builds goes through
``tests/oracles.check_schedule_safety``; the table counts the changed ones
that fail it. The tool prints a markdown table and one line per changed
instance, and exits 0 whatever it finds. It never writes a digest file: it
explains a refresh, it never makes one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
CORPORA = ("fixture", "random", "oracle", "flags", "failure")
CLASSES = ("identical", "other fields differ", "port numbers only",
           "instances or shared inputs differ", "start cycles differ",
           "failure message differs")


# ---------------------------------------------------------------------------
# rebuilding the corpora, in the process of one tree

def collect(limit: int | None) -> dict[str, list[dict]]:
    """Every instance of every corpus (the first ``limit`` of each) as its
    list of parts. A part has a ``name`` and one of: ``schedule`` (the
    ``schedule.json`` text, with ``unsafe``, the safety checker's findings,
    and for the flag corpus ``shared``), ``text`` (another output) or
    ``failure`` (the error message of a run that failed)."""
    import random
    from itertools import islice

    from memsched import (Allocation, Policy, SchedulerConfig, analyze,
                          bruteforce_optimal_makespan, compute_min_allocation, compute_timing,
                          metrics_to_json, schedule_baseline, schedule_memory_aware)
    from oracles import (check_schedule_safety, generous_deadline, make_library,
                         random_dfg, random_mapping)
    from test_acceptance import _sandwich_family
    from test_golden_failures import family_outcomes
    from test_golden_flags import FLAGS, _run

    def scheduled(name, s, g, mapping, alloc, shared=False):
        part = {"name": name, "schedule": s.to_json(),
                "unsafe": check_schedule_safety(g, s, mapping, alloc)}
        if shared:
            part["shared"] = sorted([oid, e.shared_inputs] for oid, e in s.entries.items())
        return part

    records = dict(islice(_fixture_records(), limit))  # test_golden.fixture_digests

    rng = random.Random(2024)  # test_golden.random_digests
    for i in range(200)[:limit]:
        lib = make_library(rng, rng.randint(1, 3))
        g = random_dfg(rng, rng.randint(5, 50), lib)
        mapping = random_mapping(rng, g, rng.randint(0, 3))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        cfg, timing = SchedulerConfig(T), compute_timing(g, T)
        base = schedule_baseline(g, alloc, cfg, timing)
        aware = schedule_memory_aware(g, alloc, mapping, cfg, timing)
        records[f"random/{i:03d}"] = [
            scheduled("baseline", base, g, None, alloc),
            scheduled("mem-aware", aware, g, mapping, alloc),
            {"name": "metrics.json", "text": metrics_to_json(analyze(aware, g, aware.model))},
        ]

    for name, g, alloc, mapping, _ in _sandwich_family()[:limit]:  # test_golden.oracle_digests
        T = generous_deadline(g, mapping)
        cfg, timing = SchedulerConfig(T), compute_timing(g, T)
        if mapping is None:
            sched = schedule_baseline(g, alloc, cfg, timing)
        else:
            sched = schedule_memory_aware(g, alloc, mapping, cfg, timing)
        best, witness = bruteforce_optimal_makespan(g, alloc, mapping, sched.makespan_cycles)
        records[f"oracle/{name}"] = [{"name": "optimum", "text": str(best)},
                                     scheduled("witness", witness, g, mapping, alloc)]

    rng = random.Random(7)  # test_golden_flags.flag_digests
    for i in range(40)[:limit]:
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(6, 24), lib)
        mapping = random_mapping(rng, g, rng.randint(1, 2))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        if rng.random() < 0.5:
            alloc = Allocation({name: n + 1 for name, n in alloc.counts.items()})
        parts = []
        for policy in Policy:
            runs_on = mapping if policy is Policy.MEMORY_AWARE else None
            for flags in FLAGS:
                tag = _run_name(policy, *flags)
                loose = _run(g, alloc, mapping, policy, flags, T)
                tight = _run(g, alloc, mapping, policy, flags, loose.makespan_cycles)
                parts += [scheduled(f"{tag} at T", loose, g, runs_on, alloc, True),
                          scheduled(f"{tag} at its makespan", tight, g, runs_on, alloc, True)]
        records[f"flags/{i:03d}"] = parts

    for key, _, outcomes in islice(family_outcomes(), limit):  # test_golden_failures
        records[key] = [
            {"name": _run_name(policy, *cfg[1:]),
             **({"text": "ok"} if e is None else {"failure": e.message})}
            for policy, cfg, e in outcomes
        ]
    return records


def _run_name(policy, dynamic: bool, positional: bool, affinity: bool) -> str:
    """A run's policy and its (dynamic_mobility, positional_affinity,
    use_affinity) flags as three digits, e.g. ``memory_aware 011``."""
    return f"{policy.value} {dynamic:d}{positional:d}{affinity:d}"


def _fixture_records():
    """(key, parts) per bundled fixture, run through the CLI as
    ``test_golden.fixture_digests`` runs it; a run that exits non-zero is a
    failure part with its last line of output."""
    from memsched import (Allocation, PortBooking, Schedule, ScheduleEntry, SchedulerConfig,
                          compute_min_allocation, fixtures)
    from memsched.cli import main
    from oracles import check_schedule_safety, generous_deadline
    from test_golden import FIXTURE_RUNS

    def cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(argv)
        return rc, (out.getvalue().strip().splitlines() or [""])[-1]

    lib = fixtures.load_library()
    with tempfile.TemporaryDirectory() as work:
        for kernel, (deadline, alloc_args) in FIXTURE_RUNS.items():
            g, mapping = fixtures.load_dfg(kernel, lib), fixtures.load_mapping(kernel)
            if deadline is None:
                deadline = generous_deadline(g, mapping)
            counts = dict(compute_min_allocation(g, deadline).counts)
            counts.update((a.split("=")[0], int(a.split("=")[1])) for a in alloc_args[1::2])
            alloc = Allocation(counts)
            common = ["--dfg", str(fixtures.fixture_path(f"{kernel}.dfg.json")),
                      "--library", str(fixtures.fixture_path("dsp.lib.json")),
                      "--mapping", str(fixtures.fixture_path(f"{kernel}.map.json")),
                      "--T", str(deadline), *alloc_args]
            parts = []
            for policy in ("baseline", "mem-aware"):
                d = Path(work) / kernel / policy
                rc, last = cli(["schedule", *common, "--policy", policy, "--out", str(d)])
                if rc != 0:
                    parts.append({"name": f"{policy}/schedule.json", "failure": last})
                    continue
                text = (d / "schedule.json").read_text(encoding="utf-8")
                doc = json.loads(text)
                entries = {e["op"]: ScheduleEntry(
                    e["op"], e["start"], e["end"], e["class"], e["instance"],
                    tuple(PortBooking(b["bank"], b["port"], b["from"], b["to"])
                          for b in e["reads"]),
                    PortBooking(*(e["write"][k] for k in ("bank", "port", "from", "to")))
                    if "write" in e else None, int(e["model2"])) for e in doc["entries"]}
                runs_on = mapping if policy == "mem-aware" else None
                s = Schedule(entries, SchedulerConfig(deadline))
                parts.append({"name": f"{policy}/schedule.json", "schedule": text,
                              "unsafe": check_schedule_safety(g, s, runs_on, alloc)})
                names = ["gantt.svg"] + (["metrics.json"] if policy == "mem-aware" else [])
                parts += [{"name": f"{policy}/{name}",
                           "text": (d / name).read_text(encoding="utf-8")} for name in names]
            d = Path(work) / kernel / "compare"
            rc, last = cli(["compare", *common, "--out", str(d)])
            parts.append({"name": "compare.json", "failure": last} if rc != 0 else
                         {"name": "compare.json",
                          "text": (d / "compare.json").read_text(encoding="utf-8")})
            yield f"fixture/{kernel}", parts


def golden_digests(records: dict[str, list[dict]]) -> dict[str, str]:
    """The digests ``tests/golden*_digests.json`` hold for these instances,
    recomputed from the records, so a test can check that the tool rebuilds
    the very corpora the golden tests digest."""
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    out = {}
    for key, parts in records.items():
        corpus = key.split("/")[0]
        texts = [p.get("schedule", p.get("text", p.get("failure"))) for p in parts]
        if corpus == "fixture":
            out.update((f"{key}/{p['name']}", sha(t)) for p, t in zip(parts, texts))
        elif corpus == "oracle":
            out[key] = sha(json.dumps([int(texts[0]), texts[1]]))
        elif corpus == "flags":
            out[key] = sha("\0".join(t for p in parts
                                     for t in (p["schedule"], json.dumps(p["shared"]))))
        else:
            out[key] = sha("\0".join(texts))
    return out


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
    """The late operations a failure names, else its message, or ``ok``."""
    message = part.get("failure", part.get("text"))
    found = re.search(r"deadline: ([^;]*);", message)
    return f"late [{found.group(1)}]" if found else repr(message)


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
    hold the same instances, each with the same runs."""
    counts = {corpus: Counter() for corpus in CORPORA}
    details = []
    for key, parts in new.items():
        corpus = key.split("/")[0]
        found = [(classify_part(p, q), q) for p, q in zip(old[key], parts, strict=True)]
        worst = max(cls for (cls, _), _ in found)
        counts[corpus][CLASSES[worst]] += 1
        counts[corpus]["unsafe"] += sum(bool(q.get("unsafe")) for (cls, _), q in found if cls)
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
        json.dump(collect(args.limit), sys.stdout)
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
