"""The golden corpus: every seeded instance that ``tests/golden*_digests.json``
pin, drawn, run, safety-checked and digested in one place. The golden
suites, the timing and acceptance tests and ``tools/golden_diff.py`` all
read it.

Five corpora, in this order:

- ``fixture``: every bundled fixture at the deadline the README, the demos
  or the CLI tests use (``iir_biquad``, which none of them schedules, at its
  generous deadline), run through the CLI: ``schedule.json`` and
  ``gantt.svg`` under both policies, mem-aware ``metrics.json`` and
  ``compare.json``;
- ``random``: 200 seeded DAGs of 5-50 operations, ``schedule.json`` under
  both policies and mem-aware ``metrics.json`` (baseline ``metrics.json`` is
  the conflict replay, whose rule is allowed to change);
- ``oracle``: the sandwich family of 52 graphs of at most 7 operations:
  the list schedule, and the exact oracle's optimum and witness searched
  below its makespan (the digest covers the optimum and the witness);
- ``flags``: random graphs with a random mapping and the minimum allocation
  (or one more instance per class, so that several free instances compete)
  under both policies and every combination of the three scheduling flags,
  each run at the generous deadline and again at its own makespan:
  ``schedule.json`` and the sorted ``(op, shared_inputs)`` pairs, which
  ``schedule.json`` does not carry;
- ``failure``: random graphs on one bank at their critical path, with the
  minimum allocation or one instance per class, under both policies and
  every flag combination: the ``TimeConstraintViolated`` message of each
  run, or "ok" for a run that fits.

Every schedule goes through ``oracles.check_schedule_safety``. The module
imports only memsched, ``tests/oracles.py`` and the standard library, so
the classifier can run it under any tree's package. When a change of rule
is intended and documented, rewrite the three digest files with

    PYTHONPATH=src:tests python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from memsched import (
    Allocation,
    Dfg,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    Policy,
    PortBooking,
    Schedule,
    ScheduleEntry,
    SchedulerConfig,
    TimeConstraintViolated,
    analyze,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    compute_timing,
    fixtures,
    metrics_to_json,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched.cli import main
from oracles import check_schedule_safety, generous_deadline, make_library, random_dfg, random_mapping

HERE = Path(__file__).resolve().parent
# digest file -> the corpora whose digests it holds
FILES = {
    "golden_digests.json": ("fixture", "random", "oracle"),
    "golden_flag_digests.json": ("flags",),
    "golden_failure_digests.json": ("failure",),
}

# kernel -> (deadline, None for the generous one; --alloc overrides)
FIXTURE_RUNS = {
    "fir4": (12, []),
    "fir16": (24, []),
    "fft8_stage": (12, []),
    "iir_biquad": (None, []),
    "two_adds_one_bank": (4, ["--alloc", "alu=2"]),
}

# (dynamic_mobility, positional_affinity, use_affinity)
FLAGS = list(itertools.product((False, True), repeat=3))
RUNS = [(policy, flags) for policy in Policy for flags in FLAGS]


class Corpus(NamedTuple):
    instances: list  # (key, graph, mapping, deadline, allocation)
    records: dict  # key -> the instance's outputs, see ``build``
    seconds: Counter  # corpus -> wall time to draw, run and check it


# ---------------------------------------------------------------------------
# drawing the instances

def _fixture():
    lib = fixtures.load_library()
    for kernel, (deadline, alloc_args) in FIXTURE_RUNS.items():
        g, mapping = fixtures.load_dfg(kernel, lib), fixtures.load_mapping(kernel)
        T = deadline or generous_deadline(g, mapping)
        counts = dict(compute_min_allocation(g, T).counts)
        counts.update((a.split("=")[0], int(a.split("=")[1])) for a in alloc_args[1::2])
        yield f"fixture/{kernel}", g, mapping, T, Allocation(counts)


def _random():
    rng = random.Random(2024)
    for i in range(200):
        lib = make_library(rng, rng.randint(1, 3))
        g = random_dfg(rng, rng.randint(5, 50), lib)
        mapping = random_mapping(rng, g, rng.randint(0, 3))
        T = generous_deadline(g, mapping)
        yield f"random/{i:03d}", g, mapping, T, compute_min_allocation(g, T)


ALU = OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0)
MUL = OperatorClass("mul", frozenset({"mul"}), 2, 8.0)
LIB2 = OperatorLibrary([ALU, MUL])


def _chain(n, opcode):
    ops = [Operation("n0", opcode, (scalar("i0"),), scalar("d0"))]
    for i in range(1, n):
        ops.append(Operation(f"n{i}", opcode, (scalar(f"d{i-1}"),), scalar(f"d{i}")))
    return Dfg.build(ops, LIB2)


def _independent(n, opcodes):
    ops = [
        Operation(f"n{i}", opcodes[i % len(opcodes)],
                  (scalar(f"x{i}"), scalar(f"y{i}")), scalar(f"d{i}"))
        for i in range(n)
    ]
    return Dfg.build(ops, LIB2)


def _diamond(opcode):
    ops = [
        Operation("a", opcode, (scalar("i"),), scalar("ra")),
        Operation("b", opcode, (scalar("ra"),), scalar("rb")),
        Operation("c", opcode, (scalar("ra"),), scalar("rc")),
        Operation("d", opcode, (scalar("rb"), scalar("rc")), scalar("rd")),
    ]
    return Dfg.build(ops, LIB2)


def _contention(n_ops, ports, with_writes=False):
    ops = []
    place = {}
    for i in range(n_ops):
        ops.append(
            Operation(f"r{i}", "add", (scalar(f"a{i}"), scalar(f"x{i}")),
                      scalar(f"u{i}"))
        )
        place[f"a{i}"] = "M0"
        if with_writes:
            place[f"u{i}"] = "M0"
    g = Dfg.build(ops, LIB2)
    mapping = MemoryMapping(
        [MemoryBank("M0", ports, 1, 1, 0)], place, default_register=True
    )
    return g, mapping


def _oracle():
    """The sandwich family: chains (``chain-``, one instance, so serial),
    independent operations and diamonds with as many instances as they can
    use (``ample-``), the same with fewer (``packed-``, ``diamond-``) and
    reads from one bank (``contention-``)."""
    for n in range(2, 8):
        for opcode in ("add", "mul"):
            cls = "alu" if opcode == "add" else "mul"
            yield f"chain-{opcode}-{n}", _chain(n, opcode), Allocation({cls: 1}), None
    yield "ample-add-2", _independent(2, ("add",)), Allocation({"alu": 2}), None
    yield "ample-mul-2", _independent(2, ("mul",)), Allocation({"mul": 2}), None
    yield "ample-mix-3", _independent(3, ("add", "mul")), Allocation({"alu": 2, "mul": 1}), None
    yield "ample-mix-4", _independent(4, ("add", "mul")), Allocation({"alu": 2, "mul": 2}), None
    yield "ample-diamond-add", _diamond("add"), Allocation({"alu": 2}), None
    yield "ample-diamond-mul", _diamond("mul"), Allocation({"mul": 2}), None
    for n in range(3, 8):
        for count in (1, 2):
            for opcode, cls in (("add", "alu"), ("mul", "mul")):
                yield (f"packed-{opcode}-{n}x{count}", _independent(n, (opcode,)),
                       Allocation({cls: count}), None)
    for opcode, cls in (("add", "alu"), ("mul", "mul")):
        yield f"diamond-{opcode}-1", _diamond(opcode), Allocation({cls: 1}), None
    for n_ops in (2, 3, 4):
        for ports in (1, 2):
            for with_writes in (False, True):
                g, mapping = _contention(n_ops, ports, with_writes)
                yield (f"contention-{n_ops}ops-{ports}p{'-w' if with_writes else ''}",
                       g, Allocation({"alu": 2}), mapping)


def _oracle_instances():
    for name, g, alloc, mapping in _oracle():
        yield f"oracle/{name}", g, mapping, generous_deadline(g, mapping), alloc


def _flags():
    rng = random.Random(7)
    for i in range(40):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(6, 24), lib)
        mapping = random_mapping(rng, g, rng.randint(1, 2))
        T = generous_deadline(g, mapping)
        alloc = compute_min_allocation(g, T)
        if rng.random() < 0.5:
            alloc = Allocation({name: n + 1 for name, n in alloc.counts.items()})
        yield f"flags/{i:03d}", g, mapping, T, alloc


def _failure():
    rng = random.Random(2)
    for i in range(40):
        lib = make_library(rng, rng.randint(1, 2))
        g = random_dfg(rng, rng.randint(6, 20), lib)
        mapping = random_mapping(rng, g, 1)
        T = compute_timing(g, generous_deadline(g, mapping)).critical_path_cycles
        alloc = compute_min_allocation(g, T)
        if rng.random() < 0.5:
            alloc = Allocation(dict.fromkeys(alloc.counts, 1))
        yield f"failure/{i:03d}", g, mapping, T, alloc


def instances(limit: int | None = None):
    """(key, graph, mapping, deadline, allocation) of every golden instance,
    or of the first ``limit`` of each corpus, in corpus order."""
    for draw in (_fixture, _random, _oracle_instances, _flags, _failure):
        yield from itertools.islice(draw(), limit)


# ---------------------------------------------------------------------------
# running them

def run(g, mapping, alloc, policy, T, flags=()):
    """``policy``'s schedule of ``g`` at deadline ``T`` under ``flags``
    (dynamic_mobility, positional_affinity, use_affinity; the config's
    defaults when omitted)."""
    cfg, timing = SchedulerConfig(T, *flags), compute_timing(g, T)
    if policy is Policy.BASELINE:
        return schedule_baseline(g, alloc, cfg, timing)
    return schedule_memory_aware(g, alloc, mapping, cfg, timing)


def run_name(policy, flags) -> str:
    """A run's policy and its flags as three digits, e.g. ``memory_aware 011``."""
    return f"{policy.value} {''.join(str(int(f)) for f in flags)}"


def _scheduled(name, s, g, mapping, alloc, shared=False):
    part = {"name": name, "schedule": s.to_json(),
            "unsafe": check_schedule_safety(g, s, mapping, alloc)}
    if shared:
        part["shared"] = sorted([oid, e.shared_inputs] for oid, e in s.entries.items())
    return part


def _cli(argv):
    """``main(argv)``'s exit code and the last line it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = main(argv)
    return rc, (out.getvalue().strip().splitlines() or [""])[-1]


def _fixture_outputs(key, g, mapping, T, alloc):
    kernel = key.split("/")[1]
    common = ["--dfg", str(fixtures.fixture_path(f"{kernel}.dfg.json")),
              "--library", str(fixtures.fixture_path("dsp.lib.json")),
              "--mapping", str(fixtures.fixture_path(f"{kernel}.map.json")),
              "--T", str(T), *FIXTURE_RUNS[kernel][1]]
    parts = []
    with tempfile.TemporaryDirectory() as work:
        for policy in ("baseline", "mem-aware"):
            d = Path(work) / policy
            rc, last = _cli(["schedule", *common, "--policy", policy, "--out", str(d)])
            if rc != 0:
                parts.append({"name": f"{policy}/schedule.json", "failure": last})
                continue
            text = (d / "schedule.json").read_bytes().decode("utf-8")
            entries = {e["op"]: ScheduleEntry(
                e["op"], e["start"], e["end"], e["class"], e["instance"],
                tuple(PortBooking(b["bank"], b["port"], b["from"], b["to"]) for b in e["reads"]),
                PortBooking(*(e["write"][k] for k in ("bank", "port", "from", "to")))
                if "write" in e else None, int(e["model2"])) for e in json.loads(text)["entries"]}
            runs_on = mapping if policy == "mem-aware" else None
            parts.append({"name": f"{policy}/schedule.json", "schedule": text,
                          "unsafe": check_schedule_safety(
                              g, Schedule(entries, SchedulerConfig(T)), runs_on, alloc)})
            names = ["gantt.svg"] + (["metrics.json"] if policy == "mem-aware" else [])
            parts += [{"name": f"{policy}/{name}",
                       "text": (d / name).read_bytes().decode("utf-8")} for name in names]
        d = Path(work) / "compare"
        rc, last = _cli(["compare", *common, "--out", str(d)])
        parts.append({"name": "compare.json", "failure": last} if rc != 0 else
                     {"name": "compare.json", "text": (d / "compare.json").read_bytes().decode("utf-8")})
    return parts


def _random_outputs(key, g, mapping, T, alloc):
    base = run(g, mapping, alloc, Policy.BASELINE, T)
    aware = run(g, mapping, alloc, Policy.MEMORY_AWARE, T)
    return [_scheduled("baseline", base, g, None, alloc),
            _scheduled("mem-aware", aware, g, mapping, alloc),
            {"name": "metrics.json", "text": metrics_to_json(analyze(aware, g, aware.model))}]


def _oracle_outputs(key, g, mapping, T, alloc):
    policy = Policy.BASELINE if mapping is None else Policy.MEMORY_AWARE
    sched = run(g, mapping, alloc, policy, T)
    best, witness = bruteforce_optimal_makespan(g, alloc, mapping, sched.makespan_cycles)
    return [{"name": "optimum", "text": str(best)},
            _scheduled("witness", witness, g, mapping, alloc),
            _scheduled("list schedule", sched, g, mapping, alloc)]


def _flag_outputs(key, g, mapping, T, alloc):
    parts = []
    for policy, flags in RUNS:
        runs_on = mapping if policy is Policy.MEMORY_AWARE else None
        loose = run(g, mapping, alloc, policy, T, flags)
        tight = run(g, mapping, alloc, policy, loose.makespan_cycles, flags)
        parts += [_scheduled(f"{run_name(policy, flags)} at T", loose, g, runs_on, alloc, True),
                  _scheduled(f"{run_name(policy, flags)} at its makespan", tight, g, runs_on,
                             alloc, True)]
    return parts


def _failure_outputs(key, g, mapping, T, alloc):
    parts = []
    for policy, flags in RUNS:
        try:
            run(g, mapping, alloc, policy, T, flags)
            parts.append({"name": run_name(policy, flags), "text": "ok"})
        except TimeConstraintViolated as e:
            parts.append({"name": run_name(policy, flags), "failure": e.message,
                          "late": e.unscheduled, "suggested": e.suggested_time_constraint})
    return parts


OUTPUTS = {"fixture": _fixture_outputs, "random": _random_outputs, "oracle": _oracle_outputs,
           "flags": _flag_outputs, "failure": _failure_outputs}


def build(limit: int | None = None) -> Corpus:
    """Every instance of every corpus (the first ``limit`` of each) and its
    record: a list of parts, each with a ``name`` and one of ``schedule``
    (the ``schedule.json`` text, with ``unsafe``, the safety checker's
    findings, and for the flag corpus ``shared``), ``text`` (another output)
    or ``failure`` (the message of a run that failed; a deadline failure
    also carries its ``late`` operations and ``suggested`` deadline)."""
    corpus = Corpus([], {}, Counter())
    start = time.perf_counter()
    for key, *instance in instances(limit):
        corpus.instances.append((key, *instance))
        corpus.records[key] = OUTPUTS[key.split("/")[0]](key, *instance)
        now = time.perf_counter()
        corpus.seconds[key.split("/")[0]] += now - start
        start = now
    return corpus


# ---------------------------------------------------------------------------
# digesting them

def digests(records: dict[str, list[dict]]) -> dict[str, str]:
    """The digests ``tests/golden*_digests.json`` hold for these records."""
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    out = {}
    for key, parts in records.items():
        corpus = key.split("/")[0]
        texts = [p.get("schedule", p.get("text", p.get("failure"))) for p in parts]
        if corpus == "fixture":
            out.update((f"{key}/{p['name']}", sha(t)) for p, t in zip(parts, texts))
        elif corpus == "oracle":  # the optimum and the witness
            out[key] = sha(json.dumps([int(texts[0]), texts[1]]))
        elif corpus == "flags":
            out[key] = sha("\0".join(t for p in parts
                                     for t in (p["schedule"], json.dumps(p["shared"]))))
        else:
            out[key] = sha("\0".join(texts))
    return out


def write(digests: dict[str, str], folder: Path = HERE) -> None:
    """Write the digest files into ``folder``, each holding its corpora."""
    for name, corpora in FILES.items():
        held = {k: v for k, v in digests.items() if k.split("/")[0] in corpora}
        (folder / name).write_text(json.dumps(held, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")


def committed(corpus: str) -> dict[str, str]:
    """The digests of ``corpus`` that its file in ``tests/`` holds."""
    name = next(name for name, corpora in FILES.items() if corpus in corpora)
    held = json.loads((HERE / name).read_text(encoding="utf-8"))
    return {k: v for k, v in held.items() if k.startswith(f"{corpus}/")}


def changed(records: dict[str, list[dict]], corpus: str) -> list[str]:
    """The keys of ``corpus`` whose built digest is not the committed one."""
    expected = committed(corpus)
    built = {k: v for k, v in digests(records).items() if k.startswith(f"{corpus}/")}
    return sorted(k for k in expected.keys() | built.keys() if expected.get(k) != built.get(k))


if __name__ == "__main__":
    built = digests(build().records)
    write(built)
    print(f"wrote {len(built)} digests to {', '.join(FILES)} in {HERE}", file=sys.stderr)
