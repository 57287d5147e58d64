"""Independent checks of memsched's output files.

The checks read the generated input documents and the written outputs
only; they share no code with memsched's scheduling, timing or replay. Each
function returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

from collections import Counter

from generators import location, critical_path


def check_schedule(doc: dict, metrics: dict, dfg: dict, mapping: dict | None,
                   library: dict, deadline: int, alloc: dict[str, int],
                   policy: str) -> list[str]:
    """schedule.json and metrics.json of one ``schedule`` call.

    Checks operand arrival after the producer's finish, fetch windows at
    cycle >= 0 ending at the op's start, store windows starting at its end,
    per-cycle instance occupancy within the allocation, per-port
    non-overlap, makespan <= deadline, and zero conflicts for mem-aware.
    """
    errors: list[str] = []
    cls = {code: c for c in library["classes"] for code in c["opcodes"]}
    ops = {op["id"]: op for op in dfg["ops"]}
    entries = {e["op"]: e for e in doc["entries"]}
    if doc["policy"] != policy or doc["time_constraint"] != deadline:
        errors.append(f"header {doc['policy']}/{doc['time_constraint']}")
    if set(entries) != set(ops):
        return errors + [f"entries cover {len(entries)} of {len(ops)} ops"]
    aware = policy == "memory_aware"
    banks = {b["id"]: b for b in mapping["banks"]} if aware else {}
    place = mapping["place"] if aware else {}

    finish = {}
    for oid, e in entries.items():
        c = cls[ops[oid]["opcode"]]
        if e["class"] != c["name"] or e["end"] - e["start"] != c["latency"]:
            errors.append(f"{oid}: class/latency {e['class']} [{e['start']},{e['end']})")
        if not 0 <= e["instance"] < alloc[c["name"]]:
            errors.append(f"{oid}: instance {e['instance']} outside allocation")
        finish[oid] = e["write"]["to"] if "write" in e else e["end"]

    producer = {op["result"]: oid for oid, op in ops.items()}
    port_use: dict[tuple[str, int], list[tuple[int, int, str]]] = {}
    for oid, op in ops.items():
        e = entries[oid]
        start = e["start"]
        for dep in [producer.get(a) for a in op["args"]] + op.get("deps", []):
            if dep is not None and finish[dep] > start:
                errors.append(f"{oid}: starts {start} before {dep} finishes {finish[dep]}")
        want_reads: Counter = Counter()
        for arg in dict.fromkeys(op["args"]):
            bank = location(place, arg)
            if bank is None:
                continue
            want_reads[bank] += 1
            window = start - banks[bank]["read_latency"]
            if arg in producer and finish[producer[arg]] > window:
                errors.append(f"{oid}: fetch of {arg} at {window} before it is ready")
        got_reads = Counter(r["bank"] for r in e["reads"])
        if got_reads != want_reads:
            errors.append(f"{oid}: reads {dict(got_reads)} != {dict(want_reads)}")
        for r in e["reads"]:
            bank = banks.get(r["bank"])
            if bank is None or r["from"] != start - bank["read_latency"] or r["to"] != start:
                errors.append(f"{oid}: fetch window {r}")
            elif r["from"] < 0:
                errors.append(f"{oid}: fetch window starts at {r['from']}")
            port_use.setdefault((r["bank"], r["port"]), []).append((r["from"], r["to"], oid))
        wbank = location(place, op["result"])
        w = e.get("write")
        if (wbank is None) != (w is None):
            errors.append(f"{oid}: store booking does not match placement")
        elif w is not None:
            if w["bank"] != wbank or w["from"] != e["end"] or \
                    w["to"] != e["end"] + banks[wbank]["write_latency"]:
                errors.append(f"{oid}: store window {w}")
            port_use.setdefault((w["bank"], w["port"]), []).append((w["from"], w["to"], oid))

    for (bank, port), spans in port_use.items():
        if not 0 <= port < banks[bank]["ports"]:
            errors.append(f"port {bank}.{port} does not exist")
        spans.sort()
        for (s1, e1, a), (s2, _, b) in zip(spans, spans[1:]):
            if s2 < e1:
                errors.append(f"port {bank}.{port}: {a} and {b} overlap at {s2}")

    running: Counter = Counter()
    per_instance: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for e in entries.values():
        per_instance.setdefault((e["class"], e["instance"]), []).append((e["start"], e["end"]))
        for cycle in range(e["start"], e["end"]):
            running[(e["class"], cycle)] += 1
    for (name, cycle), n in running.items():
        if n > alloc[name]:
            errors.append(f"{n} {name} ops run at cycle {cycle}, {alloc[name]} allocated")
    for key, spans in per_instance.items():
        spans.sort()
        if any(s2 < e1 for (_, e1), (s2, _) in zip(spans, spans[1:])):
            errors.append(f"instance {key} runs two ops at once")

    makespan = max(finish.values(), default=0)
    if doc["makespan"] != makespan or makespan > deadline:
        errors.append(f"makespan {doc['makespan']} (max finish {makespan}, T {deadline})")
    model2 = sum(1 for e in entries.values() if e["model2"])
    if (metrics["makespan"], metrics["op_count"], metrics["model2_count"]) != (
            makespan, len(ops), model2):
        errors.append("metrics.json disagrees with schedule.json")
    if aware and metrics["total_conflicts"] != 0:
        errors.append(f"mem-aware schedule has {metrics['total_conflicts']} conflicts")
    return errors


def check_compare(doc: dict, dfg: dict, library: dict, deadline: int,
                  oracle: bool) -> list[str]:
    """compare.json: both makespans within [critical path, deadline], zero
    conflicts for mem-aware, and critical path <= oracle <= mem-aware."""
    errors: list[str] = []
    cp = critical_path(dfg, library)
    n_ops = len(dfg["ops"])
    base, aware = doc["left"], doc["right"]
    for side, m in (("baseline", base), ("mem-aware", aware)):
        if not cp <= m["makespan"] <= deadline:
            errors.append(f"{side} makespan {m['makespan']} outside [{cp}, {deadline}]")
        if m["op_count"] != n_ops or not 0 <= m["model2_count"] <= n_ops:
            errors.append(f"{side} counts {m['op_count']}/{m['model2_count']}")
    if aware["total_conflicts"] != 0:
        errors.append(f"mem-aware has {aware['total_conflicts']} conflicts")
    if doc["makespan_delta"] != aware["makespan"] - base["makespan"]:
        errors.append("makespan_delta is not right minus left")
    if oracle:
        best = doc.get("oracle_makespan")
        if best is None or not cp <= best <= aware["makespan"]:
            errors.append(f"oracle {best} outside [{cp}, {aware['makespan']}]")
    return errors
