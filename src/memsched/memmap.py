"""Memory hierarchy model: banks with ports and latencies, placement of data
items onto banks or registers, the access model that turns an operation's
placement into port windows and start constraints, and timing over it.

Placement keys are data item names. A whole-array entry (``"x": "M0"``)
covers every element; an element entry (``"x[3]": "M1"``) overrides it.
Items without an entry resolve to REGISTER only when the mapping sets its
default, otherwise they are unmapped.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple

from .dfg import (
    DataRef,
    Dfg,
    OperatorClass,
    _ELEMENT_RE,
    _NAME_RE,
    _checked,
    _check_keys,
    _is_int,
    _load_json,
    topological_order,
)
from .errors import (
    CapacityExceeded,
    Diagnostic,
    FormatError,
    InfeasibleConstraint,
    UnknownBank,
    UnmappedData,
)

REGISTER = "REGISTER"


@_checked
class MemoryBank(NamedTuple):
    """One memory bank: simultaneous accesses are limited by ``ports``,
    read/write latencies are whole cycles, ``capacity_words`` of None means
    unbounded."""

    id: str
    ports: int
    read_latency_cycles: int
    write_latency_cycles: int
    level: int = 0
    capacity_words: int | None = None
    energy_per_access: float = 1.0

    def _check(self) -> None:
        if self.ports < 1:
            raise ValueError(f"bank {self.id!r} needs at least one port")
        if self.read_latency_cycles < 1 or self.write_latency_cycles < 1:
            raise ValueError(f"bank {self.id!r} latencies must be >= 1")
        if self.level < 0:
            raise ValueError(f"bank {self.id!r} level must be >= 0")
        if self.capacity_words is not None and self.capacity_words < 1:
            raise ValueError(f"bank {self.id!r} capacity must be >= 1 or unbounded")
        if not (math.isfinite(self.energy_per_access) and self.energy_per_access >= 0):
            raise ValueError(f"bank {self.id!r} energy per access must be finite and >= 0")


class MemoryMapping:
    """Placement of data items onto banks or registers.

    ``placement`` maps item or array names to a bank id or ``REGISTER``.
    Targets must name declared banks; per-bank placement-entry counts are
    checked against capacities (an array entry counts as one word here, its
    true extent is only known to the consumer graph).
    """

    def __init__(
        self,
        banks: Iterable[MemoryBank],
        placement: Mapping[str, str],
        default_register: bool = False,
    ):
        self.banks: tuple[MemoryBank, ...] = tuple(banks)
        self.bank_by_id: dict[str, MemoryBank] = {}
        for bank in self.banks:
            if bank.id in self.bank_by_id:
                raise FormatError(f"bank {bank.id!r} declared twice")
            if bank.id == REGISTER:
                raise FormatError(f"bank id {REGISTER!r} is reserved for registers")
            self.bank_by_id[bank.id] = bank
        self.placement: dict[str, str] = dict(placement)
        self.default_register = default_register

        used: dict[str, int] = {}
        for name, target in self.placement.items():
            if target == REGISTER:
                continue
            if target not in self.bank_by_id:
                raise UnknownBank(f"placement of {name!r} names unknown bank {target!r}")
            used[target] = used.get(target, 0) + 1
        for bank_id, count in sorted(used.items()):
            cap = self.bank_by_id[bank_id].capacity_words
            if cap is not None and count > cap:
                raise CapacityExceeded(
                    f"bank {bank_id!r} holds {count} items but its capacity is {cap}",
                    bank=bank_id,
                )

    def location_of(self, ref: DataRef) -> str:
        """Bank id or REGISTER for a data item; raises UnmappedData."""
        if ref.name in self.placement:
            return self.placement[ref.name]
        if ref.array is not None and ref.array in self.placement:
            return self.placement[ref.array]
        if self.default_register:
            return REGISTER
        raise UnmappedData(ref.name)

    def bank_of(self, ref: DataRef) -> MemoryBank | None:
        """The bank holding ``ref``, or None when it lives in a register."""
        loc = self.location_of(ref)
        return None if loc == REGISTER else self.bank_by_id[loc]


def all_registers(banks: Iterable[MemoryBank] = ()) -> MemoryMapping:
    """A mapping that keeps every item in registers."""
    return MemoryMapping(banks, {}, default_register=True)


def round_robin_mapping(g: Dfg, banks: Iterable[MemoryBank]) -> MemoryMapping:
    """Deterministic stand-in for an upstream placement tool: walks data items
    in ascending name order and deals them onto banks in declaration order,
    skipping full banks. Raises ValueError without banks and
    CapacityExceeded when every bank is full.
    """
    banks = tuple(banks)
    if not banks:
        raise ValueError("round-robin placement needs at least one bank")
    names = sorted(ref.name for ref in g.data_items())
    fill: dict[str, int] = {bank.id: 0 for bank in banks}
    placement: dict[str, str] = {}
    cursor = 0
    for name in names:
        for attempt in range(len(banks)):
            bank = banks[(cursor + attempt) % len(banks)]
            cap = bank.capacity_words
            if cap is None or fill[bank.id] < cap:
                placement[name] = bank.id
                fill[bank.id] += 1
                cursor = cursor + attempt + 1
                break
        else:
            raise CapacityExceeded(
                f"all banks full while placing {name!r}", item=name
            )
    return MemoryMapping(banks, placement)


def parse_mapping(text: str) -> MemoryMapping:
    """Parse a memory-mapping document.

    Format: ``{"banks": [...], "place": {...}, "default": "REGISTER"?}``.
    Bank entries carry id, ports, read_latency, write_latency, level and
    optionally capacity_words and energy_per_access (default 1.0).
    """
    doc = _load_json(text, "mapping")
    _check_keys(doc, {"banks"}, {"place", "default"}, "mapping document")
    raw_banks = doc["banks"]
    if not isinstance(raw_banks, list):
        raise FormatError("mapping banks must be a list")
    banks = [_parse_bank(entry, i) for i, entry in enumerate(raw_banks)]

    place = doc.get("place", {})
    if not isinstance(place, dict):
        raise FormatError("mapping place must be an object")
    for name, target in place.items():
        if not (_NAME_RE.match(name) or _ELEMENT_RE.match(name)):
            raise FormatError(f"bad placement key {name!r}")
        if not isinstance(target, str):
            raise FormatError(f"placement of {name!r} must name a bank or REGISTER")

    default_register = False
    if "default" in doc:
        if doc["default"] != REGISTER:
            raise FormatError('mapping default may only be "REGISTER"')
        default_register = True

    return MemoryMapping(banks, place, default_register)


def _parse_bank(entry, i: int) -> MemoryBank:
    where = f"banks[{i}]"
    if not isinstance(entry, dict):
        raise FormatError(f"{where} must be an object")
    required = {"id", "ports", "read_latency", "write_latency", "level"}
    _check_keys(entry, required, {"capacity_words", "energy_per_access"}, where)
    for key in ("ports", "read_latency", "write_latency", "level"):
        if not _is_int(entry[key]):
            raise FormatError(f"{where}.{key} must be an integer")
    if not isinstance(entry["id"], str) or not _NAME_RE.match(entry["id"]):
        raise FormatError(f"{where}.id must be an identifier")
    capacity = entry.get("capacity_words")
    if capacity is not None and not _is_int(capacity):
        raise FormatError(f"{where}.capacity_words must be an integer")
    energy = entry.get("energy_per_access", 1.0)
    if not (_is_int(energy) or isinstance(energy, float)):
        raise FormatError(f"{where}.energy_per_access must be a number")
    try:
        return MemoryBank(
            id=entry["id"],
            ports=entry["ports"],
            read_latency_cycles=entry["read_latency"],
            write_latency_cycles=entry["write_latency"],
            level=entry["level"],
            capacity_words=capacity,
            energy_per_access=float(energy),
        )
    except (ValueError, OverflowError) as e:  # float() of a huge integer overflows
        raise FormatError(f"{where}: {e}") from None


def memory_read_refs(op, mapping: MemoryMapping) -> dict[str, tuple[DataRef, ...]]:
    """Distinct memory-resident operands of ``op`` grouped by bank id.

    Duplicate operands collapse: one port delivers the value once.
    """
    by_bank: dict[str, list[DataRef]] = {}
    for ref in dict.fromkeys(op.operands):
        bank = mapping.bank_of(ref)
        if bank is not None:
            by_bank.setdefault(bank.id, []).append(ref)
    return {bank_id: tuple(refs) for bank_id, refs in by_bank.items()}


class AccessWindow(NamedTuple):
    """``count`` accesses to ``bank``, each holding one port over the
    half-open cycle range [start, end)."""

    bank: MemoryBank
    count: int
    start: int
    end: int
    is_store: bool


class OpPlan(NamedTuple):
    """What one operation does relative to its start, derived once per
    access model: every layer that places or replays the operation reads
    it."""

    operator_class: OperatorClass
    latency: int
    done: int  # cycles from its start until its result is usable downstream
    windows: tuple[AccessWindow, ...]  # fetches by bank id, then the store, at start 0
    floor: int  # largest read latency: no fetch window starts before cycle 0
    waits: tuple[tuple[str, int], ...]  # (predecessor, cycles between its finish and start)

    def earliest_start(self, finish: Mapping[str, int]) -> int:
        """The earliest legal start, given each predecessor's completion."""
        return max([self.floor] + [finish[pred] + lag for pred, lag in self.waits])


class AccessModel:
    """The timing rule of memory traffic for one graph under one mapping
    (None keeps every item in registers), built once per run.

    An operation started at cycle s whose class has latency L:

    - fetches its memory-resident operands (duplicates collapse to one) over
      [s - read_latency, s), all fetches from one bank at once;
    - stores a memory-resident result over [s + L, s + L + write_latency);
    - completes when its store ends, otherwise at s + L.

    It may start once every fetch window begins at cycle 0 or later and no
    earlier than the completion of the producer of the fetched value, and
    once the producers of its register operands and its ``deps`` completed.

    ``plans`` holds each operation's :class:`OpPlan`, its windows at start
    0. Building it under a mapping resolves every item an operation touches
    and raises UnmappedData at the first one without a place.
    """

    def __init__(self, g: Dfg, mapping: MemoryMapping | None = None):
        self.mapping = mapping
        self.plans = {op.id: _plan(g, op, mapping) for op in g.operations}

    def earliest_start(self, op_id: str, finish: Mapping[str, int]) -> int:
        """``op_id``'s earliest legal start (:meth:`OpPlan.earliest_start`)."""
        return self.plans[op_id].earliest_start(finish)


def _plan(g: Dfg, op, mapping: MemoryMapping | None) -> OpPlan:
    """``op``'s plan; with no mapping, done is its latency, waits 0, floor 0."""
    cls = g.class_of(op)
    latency = done = cls.latency_cycles
    waits = dict.fromkeys(g.predecessors(op.id), 0)
    windows: list[AccessWindow] = []
    floor = 0
    if mapping is not None:
        lag_of: dict[DataRef, int] = {}  # read latency of each fetched operand
        for bank_id, refs in sorted(memory_read_refs(op, mapping).items()):
            bank = mapping.bank_by_id[bank_id]
            lag = bank.read_latency_cycles
            floor = max(floor, lag)
            windows.append(AccessWindow(bank, len(refs), -lag, 0, False))
            lag_of.update(dict.fromkeys(refs, lag))
        # a predecessor whose result is fetched waits out the fetch
        for pred in waits:
            waits[pred] = lag_of.get(g.operation(pred).result, 0)
        store = mapping.bank_of(op.result)
        if store is not None:
            done += store.write_latency_cycles
            windows.append(AccessWindow(store, 1, latency, done, True))
    return OpPlan(cls, latency, done, tuple(windows), floor, tuple(waits.items()))


class TimingAnalysis(NamedTuple):
    """ASAP/ALAP start cycles, per-operation mobility and the critical path
    length under a given deadline. ``asap`` iterates in
    :func:`topological_order`."""

    asap: Mapping[str, int]
    alap: Mapping[str, int]
    mobility: Mapping[str, int]
    critical_path_cycles: int


def compute_timing(g: Dfg, time_constraint_cycles: int,
                   model: AccessModel | None = None) -> TimingAnalysis:
    """Longest-path timing under a deadline over ``model``'s plans, or the
    register-only plans without one (no model is built): ASAP is each op's
    earliest start (the engine's rule) with its predecessors at theirs, ALAP
    the latest start from which every path completes by the deadline, and
    mobility their difference. Raises InfeasibleConstraint when the critical
    path, the latest ASAP completion, exceeds ``time_constraint_cycles``."""
    # the plans before the order: an unknown opcode reports before a cycle
    plans = model.plans if model else {op.id: _plan(g, op, None) for op in g.operations}
    order = topological_order(g)
    finish: dict[str, int] = {}  # each op's completion from its ASAP start
    for op_id in order:
        finish[op_id] = plans[op_id].earliest_start(finish) + plans[op_id].done
    critical = max(finish.values(), default=0)
    if critical > time_constraint_cycles:
        raise InfeasibleConstraint(critical, time_constraint_cycles)

    latest = dict.fromkeys(order, time_constraint_cycles)  # by when each must complete
    alap: dict[str, int] = {}
    for op_id in reversed(order):
        alap[op_id] = latest[op_id] - plans[op_id].done
        for pred, lag in plans[op_id].waits:
            latest[pred] = min(latest[pred], alap[op_id] - lag)

    asap = {o: finish[o] - plans[o].done for o in order}
    return TimingAnalysis(asap, alap, {o: alap[o] - asap[o] for o in order}, critical)


class Profile:
    """One resource's usage over time: ``levels[k]`` over [cuts[k], cuts[k + 1]),
    0 before the first cut and from the last on. Cuts may be negative; a
    removed hold leaves equal neighbouring levels, and ``clear`` may answer
    the cut between them, which is still safe. A call costs a binary search
    plus the segments it spans; an ``add`` from the last cut on only appends."""

    def __init__(self):
        self.cuts: list[int] = []
        self.levels: list[int] = []

    def add(self, start: int, end: int, amount: int) -> None:
        """Raise the usage over [start, end) by ``amount``, for start < end;
        a negative one removes a hold."""
        cuts, levels = self.cuts, self.levels
        if not cuts or start >= cuts[-1]:  # the usage is 0 from the last cut on
            if cuts and start == cuts[-1]:
                del cuts[-1], levels[-1]
            cuts += start, end
            levels += amount, 0
            return
        i = bisect_left(cuts, start)
        if i == len(cuts) or cuts[i] != start:
            cuts.insert(i, start)
            levels.insert(i, levels[i - 1] if i else 0)
        j = bisect_left(cuts, end, i + 1)  # end's cut lies after start's
        if j == len(cuts) or cuts[j] != end:
            cuts.insert(j, end)
            levels.insert(j, levels[j - 1])
        levels[i:j] = [n + amount for n in levels[i:j]]

    def clear(self, start: int, end: int, level: int = 0) -> int:
        """``start`` when the usage stays at or below ``level`` >= 0 over
        [start, end), for start < end; otherwise the end of the last segment
        above ``level`` that meets the window: a window as long that starts
        later, but before that cycle, meets that segment too."""
        cuts, levels = self.cuts, self.levels
        k = bisect_left(cuts, end)  # segments 0 to k - 1 begin before end
        while k:
            k -= 1
            if levels[k] > level:
                return cuts[k + 1]
            if cuts[k] <= start:  # the segment holding start
                break
        return start

    def length_above(self, level: int) -> int:
        """How many cycles the usage exceeds ``level``."""
        return sum(b - a for a, b, n in zip(self.cuts, self.cuts[1:], self.levels) if n > level)


def validate_mapping(
    mapping: MemoryMapping, g: Dfg, model: AccessModel | None = None
) -> list[Diagnostic]:
    """Check a mapping against a graph.

    Empty iff every item the graph touches resolves to a bank or register and
    no single operation demands more simultaneous fetches from a bank than it
    has ports. Reads and the result store never contend with each other:
    fetches finish at operation start while the store begins at operation
    end, so only the simultaneous-fetch count is structural.

    A caller that holds ``model``, the graph's access model under
    ``mapping``, passes it: building it resolved every item (it raises
    UnmappedData otherwise), so only the port check is left, and it reads
    the model's fetch counts instead of walking the operands again.
    """
    diags: list[Diagnostic] = []
    unmapped_seen: set[str] = set()
    for op in g.operations:
        if model is not None:
            fetches = [(w.bank, w.count) for w in model.plans[op.id].windows if not w.is_store]
        else:
            ok = True
            for ref in list(dict.fromkeys(op.operands)) + [op.result]:
                try:
                    mapping.location_of(ref)
                except UnmappedData:
                    ok = False
                    if ref.name not in unmapped_seen:
                        unmapped_seen.add(ref.name)
                        diags.append(Diagnostic("UnmappedData", ref.name, {"op": op.id}))
            if not ok:
                continue
            fetches = [(mapping.bank_by_id[bank_id], len(refs))
                       for bank_id, refs in sorted(memory_read_refs(op, mapping).items())]
        for bank, need in fetches:
            if need > bank.ports:
                diags.append(
                    Diagnostic(
                        "PortOverSubscribed",
                        f"{op.id} needs {need} ports on {bank.id}, has {bank.ports}",
                        {"op": op.id, "bank": bank.id, "need": need, "have": bank.ports},
                    )
                )
    return diags

