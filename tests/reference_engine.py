"""A deliberately naive list scheduler, written only from README's "Timing
model" and the priority rule, to check the package's engine against.

It derives dependencies, ASAP/ALAP timing, fetch and store windows, bank
occupancy and port binding itself and uses none of the package's scheduling
code: no ``_Engine``, ``AccessModel`` or ``Profile``. Every cycle it recomputes
every candidate from scratch, picks the best one, and places it or drops it
for the rest of the cycle; nothing is cached between picks.

The rules, as README states them:

- an operation occupies its instance over [start, start + latency);
- a bank serves at most ``ports`` accesses in each cycle;
- a fetch from bank B holds one B port over [start - read_latency(B),
  start); duplicate operands collapse to one fetch, and all fetches of one
  operation from one bank hold ports at once; the window may not begin
  before cycle 0, nor before the producer of the fetched value (its store
  included) has finished;
- a store to bank W holds one W port over [end, end + write_latency(W));
  dependents of a memory-resident result wait for the store to finish;
- register operands and explicit ``deps`` wait for their producer;
- priority: least slack (mobility, or ALAP start minus the cycle with
  dynamic mobility), then most inputs shared with the instance's previous
  operation, then operation id; the operation binds to the free instance
  sharing the most inputs, lowest index on ties (the lowest free index
  when affinity is off, which also drops sharing from the priority);
- ports are bound once the schedule is complete: every window in (start,
  end, op, bank id) order takes, for each of its accesses, the lowest port
  of its bank that is free over the whole window;
- the deadline places nothing: every operation is placed, and the makespan
  is checked against the deadline once the schedule is complete. When it
  misses, the error names the operations that complete (store end, else
  execution end) after the deadline.
"""

from __future__ import annotations


def _shared(operands, last, positional: bool) -> int:
    if last is None:
        return 0
    if positional:
        return sum(1 for a, b in zip(operands, last) if a == b)
    shared, rest = 0, list(last)
    for ref in operands:
        if ref in rest:
            rest.remove(ref)
            shared += 1
    return shared


def reference_schedule(g, counts, mapping, T, *, dynamic_mobility=False,
                       positional_affinity=False, use_affinity=True):
    """Schedule ``g`` with ``counts`` instances per class, ranked by timing
    at deadline ``T``.

    ``mapping`` None is the memory-blind policy. Returns (placements, ids of
    the operations completing after ``T``); a placement is a dict with
    start, instance, shared inputs, the set of read bookings (bank, port,
    from, to) and the write booking or None.
    """
    ops = {op.id: op for op in g.operations}
    latency = {oid: g.class_of(op).latency_cycles for oid, op in ops.items()}
    cls = {oid: g.class_of(op).name for oid, op in ops.items()}
    producer = {op.result: oid for oid, op in ops.items()}

    def bank(ref):
        return None if mapping is None else mapping.bank_of(ref)

    # predecessor -> cycles between its finish and our start
    lag: dict[str, dict[str, int]] = {}
    fetches: dict[str, dict] = {}  # op -> {bank: distinct refs fetched}
    for oid, op in ops.items():
        lag[oid] = {p: 0 for p in op.extra_deps}
        fetches[oid] = {}
        for ref in dict.fromkeys(op.operands):
            b = bank(ref)
            if b is not None:
                fetches[oid].setdefault(b, []).append(ref)
            p = producer.get(ref)
            if p is not None:
                wait = b.read_latency_cycles if b is not None else 0
                lag[oid][p] = max(lag[oid].get(p, 0), wait)

    asap: dict[str, int] = {}
    while len(asap) < len(ops):
        for oid in ops:
            if oid not in asap and all(p in asap for p in lag[oid]):
                asap[oid] = max((asap[p] + latency[p] for p in lag[oid]), default=0)
    alap: dict[str, int] = {}
    while len(alap) < len(ops):
        for oid in ops:
            succs = [s for s in ops if oid in lag[s]]
            if oid not in alap and all(s in alap for s in succs):
                alap[oid] = min((alap[s] for s in succs), default=T) - latency[oid]

    def completion(oid, start):
        store = bank(ops[oid].result)
        end = start + latency[oid]
        return end + store.write_latency_cycles if store is not None else end

    busy_until = {(c, i): 0 for c in set(cls.values()) for i in range(counts[c])}
    last_operands: dict[tuple[str, int], tuple] = {}
    requests: dict[tuple[str, int], int] = {}  # (bank, cycle) -> accesses booked
    finish: dict[str, int] = {}
    placed: dict[str, dict] = {}
    windows: dict[str, list] = {}  # op -> [(bank, accesses, from, to, is store)]

    def fits(b, n, lo, hi, _):
        return all(requests.get((b.id, c), 0) + n <= b.ports for c in range(lo, hi))

    def candidate(oid, t):
        op = ops[oid]
        if any(p not in finish for p in lag[oid]):
            return None
        if any(t - b.read_latency_cycles < 0 for b in fetches[oid]):
            return None
        if any(t < finish[p] + w for p, w in lag[oid].items()):
            return None
        free = [i for i in range(counts[cls[oid]]) if busy_until[(cls[oid], i)] <= t]
        if not free:
            return None
        options = [
            (_shared(op.operands, last_operands.get((cls[oid], i)), positional_affinity), i)
            for i in free
        ]
        if use_affinity:
            shared, inst = max(options, key=lambda o: (o[0], -o[1]))
        else:
            shared, inst = options[0]
        slack = alap[oid] - t if dynamic_mobility else alap[oid] - asap[oid]
        return (slack, -shared if use_affinity else 0, oid), shared, inst

    t = 0
    while len(placed) < len(ops):
        dropped: set[str] = set()
        while True:
            found = [c for oid in sorted(ops)
                     if oid not in placed and oid not in dropped
                     and (c := candidate(oid, t)) is not None]
            if not found:
                break
            (_, _, oid), shared, inst = min(found)
            wanted = [(b, len(refs), t - b.read_latency_cycles, t, False)
                      for b, refs in fetches[oid].items()]
            store = bank(ops[oid].result)
            end = t + latency[oid]
            if store is not None:
                wanted.append((store, 1, end, end + store.write_latency_cycles, True))
            if not all(fits(*w) for w in wanted):
                dropped.add(oid)
                continue
            for b, n, lo, hi, _ in wanted:
                for c in range(lo, hi):
                    requests[(b.id, c)] = requests.get((b.id, c), 0) + n
            busy_until[(cls[oid], inst)] = end
            last_operands[(cls[oid], inst)] = ops[oid].operands
            finish[oid] = completion(oid, t)
            windows[oid] = wanted
            placed[oid] = {"start": t, "instance": inst, "shared": shared,
                           "reads": set(), "write": None}
        t += 1

    port_busy: set[tuple[str, int, int]] = set()  # (bank, port, cycle)
    for lo, hi, oid, _, b, n, is_store in sorted(
            (lo, hi, oid, b.id, b, n, is_store)
            for oid, wanted in windows.items() for b, n, lo, hi, is_store in wanted):
        for _ in range(n):
            p = next(p for p in range(b.ports)
                     if all((b.id, p, c) not in port_busy for c in range(lo, hi)))
            port_busy.update((b.id, p, c) for c in range(lo, hi))
            if is_store:
                placed[oid]["write"] = (b.id, p, lo, hi)
            else:
                placed[oid]["reads"].add((b.id, p, lo, hi))
    return placed, sorted(oid for oid in ops if finish[oid] > T)
