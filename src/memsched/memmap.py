"""Memory hierarchy model: banks with ports and access latencies, placement
of data items onto banks or registers, and the access model that turns an
operation's placement into port windows and start constraints.

Placement keys are data item names. A whole-array entry (``"x": "M0"``)
covers every element; an element entry (``"x[3]": "M1"``) overrides it.
Items without an entry resolve to REGISTER only when the mapping sets its
default, otherwise they are unmapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .dfg import DataRef, Dfg, _ELEMENT_RE, _NAME_RE, _check_keys, _is_int, _load_json
from .errors import (
    CapacityExceeded,
    Diagnostic,
    FormatError,
    UnknownBank,
    UnmappedData,
)

REGISTER = "REGISTER"


@dataclass(frozen=True)
class MemoryBank:
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

    def __post_init__(self):
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
    except ValueError as e:
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


class _OpAccess(NamedTuple):
    latency: int
    fetches: tuple[tuple[MemoryBank, int], ...]  # (bank, distinct operands), by bank id
    store: MemoryBank | None
    floor: int  # largest read latency: no fetch window starts before cycle 0
    waits: tuple[tuple[str, int], ...]  # (predecessor, cycles between its finish and start)


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

    Building it under a mapping resolves every item an operation touches and
    raises UnmappedData at the first one without a place.
    """

    def __init__(self, g: Dfg, mapping: MemoryMapping | None = None):
        self.mapping = mapping
        self._ops: dict[str, _OpAccess] = {}
        for op in g.operations:
            waits = dict.fromkeys(g.predecessors(op.id), 0)
            fetches: list[tuple[MemoryBank, int]] = []
            store = None
            if mapping is not None:
                for bank_id, refs in sorted(memory_read_refs(op, mapping).items()):
                    bank = mapping.bank_by_id[bank_id]
                    fetches.append((bank, len(refs)))
                    for ref in refs:
                        producer = g.producer_of(ref)
                        if producer in waits:
                            waits[producer] = max(waits[producer], bank.read_latency_cycles)
                store = mapping.bank_of(op.result)
            self._ops[op.id] = _OpAccess(
                latency=g.class_of(op).latency_cycles,
                fetches=tuple(fetches),
                store=store,
                floor=max((bank.read_latency_cycles for bank, _ in fetches), default=0),
                waits=tuple(waits.items()),
            )

    def windows(self, op_id: str, start: int) -> list[AccessWindow]:
        """Fetch windows by bank id, then the store window, for a start."""
        a = self._ops[op_id]
        out = [
            AccessWindow(bank, n, start - bank.read_latency_cycles, start, False)
            for bank, n in a.fetches
        ]
        if a.store is not None:
            end = start + a.latency
            out.append(AccessWindow(a.store, 1, end, end + a.store.write_latency_cycles, True))
        return out

    def completion(self, op_id: str, start: int) -> int:
        """Cycle at which the result is usable downstream."""
        a = self._ops[op_id]
        end = start + a.latency
        return end + a.store.write_latency_cycles if a.store is not None else end

    def earliest_start(self, op_id: str, finish: Mapping[str, int]) -> int:
        """Earliest legal start given the completion cycles of every
        predecessor in ``finish``."""
        a = self._ops[op_id]
        return max([a.floor] + [finish[p] + lag for p, lag in a.waits])


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
            fetches = model._ops[op.id].fetches
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

