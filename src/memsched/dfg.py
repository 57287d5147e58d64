"""Data-flow graph IR: data items, operations, JSON parsing, validation and
topological ordering. Timing lives with the access model (``memmap``).

A graph is a DAG of single-assignment operations over named scalar data
items; array accesses are flattened to per-element items at parse time
(``x[3]`` is one item). Every record here is a named tuple, equal by
value; a data item also hashes by value, so the dicts and sets keyed on
items hash and compare them in C. All values here are immutable and safe to
share between threads.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    CycleDetected,
    Diagnostic,
    DuplicateOpcode,
    DuplicateWriter,
    FormatError,
    SchedulingError,
    UndefinedData,
    UnknownOpcode,
)

DEFAULT_WIDTH_BITS = 16
# The most data items a graph's inputs may declare in all. Each is built at
# parse time, so a few bytes of ``shape`` must not set the cost of a parse.
MAX_INPUT_ITEMS = 2**16
MAX_LATENCY_CYCLES = 10**6  # the longest latency a class or a bank may declare

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ELEMENT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(0|[1-9][0-9]*)\]$")


def _checked(cls):
    """Make the named tuple ``cls`` run its ``_check()`` however it is built.

    ``typing.NamedTuple`` forbids defining ``__init__`` or ``_make`` in the
    class body, so this sets them on the built class: the constructor's
    ``__init__`` runs the check, and so does ``_make``, which ``_replace``
    calls. The generated ``__new__`` and its signature stay as they are.
    """
    make = cls._make.__func__

    def _make(cls, iterable):
        record = make(cls, iterable)
        record._check()
        return record

    cls.__init__ = lambda record, *args, **kwargs: record._check()
    cls._make = classmethod(_make)
    return cls


@_checked
class DataRef(NamedTuple):
    """A single schedulable data item: a scalar or one array element.

    Array elements are distinct items; their canonical ``name`` is
    ``array[index]`` with a flat, non-negative index. A named tuple, so it
    is equal and hashed by value, (name, array, index, width_bits), and
    equals a plain 4-tuple of the same fields.
    """

    name: str
    array: str | None = None
    index: int | None = None
    width_bits: int = DEFAULT_WIDTH_BITS

    def _check(self) -> None:
        if not self.name:
            raise ValueError("data item name must be non-empty")
        if self.array is not None and (self.index is None or self.index < 0):
            raise ValueError(f"array element {self.name!r} needs a non-negative index")
        if self.width_bits < 1:
            raise ValueError(f"width_bits must be positive, got {self.width_bits}")


def scalar(name: str, width_bits: int = DEFAULT_WIDTH_BITS) -> DataRef:
    """Build a scalar data item reference."""
    return DataRef(name, None, None, width_bits)


def elem(array: str, index: int, width_bits: int = DEFAULT_WIDTH_BITS) -> DataRef:
    """Build an array-element data item reference (flat index)."""
    return DataRef(f"{array}[{index}]", array, index, width_bits)


@_checked
class OperatorClass(NamedTuple):
    """A hardware operator kind: which opcodes it executes, its latency in
    cycles and its per-execution base energy (arbitrary units)."""

    name: str
    opcodes: frozenset[str]
    latency_cycles: int
    base_energy: float = 1.0

    def _check(self) -> None:
        if not self.opcodes:
            raise ValueError(f"operator class {self.name!r} has no opcodes")
        if self.latency_cycles < 1:
            raise ValueError(f"operator class {self.name!r} latency must be >= 1")
        if not (math.isfinite(self.base_energy) and self.base_energy >= 0):
            raise ValueError(f"operator class {self.name!r} base energy must be finite and >= 0")


class OperatorLibrary:
    """Resolves opcodes to operator classes; each opcode belongs to exactly
    one class."""

    def __init__(self, classes: Iterable[OperatorClass]):
        self.classes: tuple[OperatorClass, ...] = tuple(classes)
        self._by_opcode: dict[str, OperatorClass] = {}
        self._by_name: dict[str, OperatorClass] = {}
        for cls in self.classes:
            if cls.name in self._by_name:
                raise DuplicateOpcode(f"operator class {cls.name!r} declared twice")
            self._by_name[cls.name] = cls
            for opcode in cls.opcodes:
                other = self._by_opcode.get(opcode)
                if other is not None:
                    raise DuplicateOpcode(
                        f"opcode {opcode!r} claimed by both {other.name!r} and {cls.name!r}"
                    )
                self._by_opcode[opcode] = cls

    def class_for(self, opcode: str) -> OperatorClass:
        try:
            return self._by_opcode[opcode]
        except KeyError:
            raise UnknownOpcode(f"opcode {opcode!r} is not in the operator library") from None

    def class_named(self, name: str) -> OperatorClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownOpcode(f"no operator class named {name!r}") from None

    def __contains__(self, opcode: str) -> bool:
        return opcode in self._by_opcode

    def __iter__(self) -> Iterator[OperatorClass]:
        return iter(self.classes)


@_checked
class Operation(NamedTuple):
    """One graph node: reads ``operands`` (ordered), writes ``result`` once.

    ``extra_deps`` are explicit ordering edges to operation ids that must
    finish first, in addition to the producer edges implied by operands.
    """

    id: str
    opcode: str
    operands: tuple[DataRef, ...]
    result: DataRef
    extra_deps: frozenset[str] = frozenset()

    def _check(self) -> None:
        if not self.operands:
            raise ValueError(f"operation {self.id!r} needs at least one operand")


class Dfg:
    """An immutable data-flow graph bound to an operator library.

    The constructor accepts any structurally well-formed graph; use
    :func:`validate_dfg` for the full invariant check and :func:`parse_dfg`
    for documents (which raises on the first violation). It sorts the graph
    once, so :func:`topological_order` costs a copy, and a cyclic graph
    keeps the cycle it reports.
    """

    def __init__(
        self,
        operations: Iterable[Operation],
        library: OperatorLibrary,
        primary_inputs: Iterable[DataRef],
        primary_outputs: Iterable[DataRef] = (),
    ):
        self.operations: tuple[Operation, ...] = tuple(operations)
        self.library = library
        self.primary_inputs: frozenset[DataRef] = frozenset(primary_inputs)
        self.primary_outputs: frozenset[DataRef] = frozenset(primary_outputs)

        self._by_id: dict[str, Operation] = {}
        for op in self.operations:
            if op.id in self._by_id:
                raise FormatError(f"duplicate operation id {op.id!r}")
            self._by_id[op.id] = op
        # result -> writer op ids; normally one, kept as a list so validation
        # can report duplicate writers instead of hiding them
        self._writers: dict[DataRef, list[str]] = {}
        for op in self.operations:
            self._writers.setdefault(op.result, []).append(op.id)
        # adjacency, built once: operand producers and known extra deps
        producer = {ref: writers[0] for ref, writers in self._writers.items()}
        self._preds: dict[str, frozenset[str]] = {}
        succs: dict[str, set[str]] = {op.id: set() for op in self.operations}
        for op in self.operations:
            preds = set(map(producer.get, op.operands))
            preds.discard(None)  # an operand nobody produces
            if op.extra_deps:
                preds.update(dep for dep in op.extra_deps if dep in self._by_id)
            preds.discard(op.id)
            self._preds[op.id] = frozenset(preds)
            for pred in preds:
                succs[pred].add(op.id)
        self._succs = {k: frozenset(v) for k, v in succs.items()}
        self._order, self._cycle = _topological_sort(self)

    @classmethod
    def build(
        cls,
        operations: Iterable[Operation],
        library: OperatorLibrary,
        outputs: Iterable[DataRef] | None = None,
    ) -> "Dfg":
        """Construct a graph inferring primary inputs (operands nobody
        produces) and, when ``outputs`` is omitted, primary outputs (results
        nobody consumes)."""
        operations = tuple(operations)
        produced = {op.result for op in operations}
        consumed = {ref for op in operations for ref in op.operands}
        inputs = consumed - produced
        if outputs is None:
            outputs = produced - consumed
        return cls(operations, library, inputs, outputs)

    def operation(self, op_id: str) -> Operation:
        return self._by_id[op_id]

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._by_id

    def predecessors(self, op_id: str) -> frozenset[str]:
        """Operation ids that must finish before ``op_id`` starts."""
        return self._preds[op_id]

    def successors(self) -> Mapping[str, frozenset[str]]:
        """Read-only map from each operation id to the ids that wait for it."""
        return MappingProxyType(self._succs)

    def data_items(self) -> frozenset[DataRef]:
        """Every data item the graph touches: inputs, operands and results."""
        items = set(self.primary_inputs)
        for op in self.operations:
            items.update(op.operands)
            items.add(op.result)
        return frozenset(items)

    def class_of(self, op: Operation) -> OperatorClass:
        return self.library.class_for(op.opcode)


# ---------------------------------------------------------------------------
# document parsing

def parse_library(text: str) -> OperatorLibrary:
    """Parse an operator library document.

    Format: ``{"classes": [{"name", "opcodes", "latency", "energy"?}]}``
    with ``energy`` defaulting to 1.0; :class:`OperatorClass` owns the value rules.
    """
    doc = _load_json(text, "library")
    _check_keys(doc, {"classes"}, set(), "library document")
    raw = _expect(doc, "classes", list, "library document")
    if not raw:
        raise FormatError("library declares no operator classes")
    classes = []
    for i, entry in enumerate(raw):
        where = f"classes[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        _check_keys(entry, {"name", "opcodes", "latency"}, {"energy"}, where)
        name = _identifier(_expect(entry, "name", str, where), where)
        opcodes = _expect(entry, "opcodes", list, where)
        if not all(isinstance(o, str) and _NAME_RE.match(o) for o in opcodes):
            raise FormatError(f"{where}.opcodes must be identifier strings")
        latency = _expect(entry, "latency", int, where)
        if latency > MAX_LATENCY_CYCLES:
            raise FormatError(f"{where}.latency must be at most {MAX_LATENCY_CYCLES}")
        energy = entry.get("energy", 1.0)
        if not (_is_int(energy) or isinstance(energy, float)):
            raise FormatError(f"{where}.energy must be a number")
        try:
            classes.append(OperatorClass(name, frozenset(opcodes), latency, float(energy)))
        except (ValueError, OverflowError) as e:  # float() of a huge integer overflows
            raise FormatError(f"{where}: {e}") from None
    return OperatorLibrary(classes)


def parse_dfg(text: str, library: OperatorLibrary) -> Dfg:
    """Parse a data-flow-graph document and check it in full.

    The document has three keys: ``inputs`` (declarations with optional array
    shape and width), ``outputs`` (names of produced results) and ``ops``
    (ordered operation list). Array operands use the ``name[i]`` element
    syntax with a literal flat index; a name declared in ``inputs`` takes its
    declaration's width, any other name the default width.

    Syntax errors (JSON, keys, value types, identifiers, data references, ids
    declared twice) raise FormatError. The graph's rules are those of
    :func:`validate_dfg`, whose first finding raises UnknownOpcode,
    UndefinedData, DuplicateWriter, CycleDetected, or FormatError for a dep on
    an unknown operation id.
    """
    doc = _load_json(text, "dfg")
    _check_keys(doc, {"inputs", "outputs", "ops"}, set(), "dfg document")

    widths, inputs = _parse_inputs(_expect(doc, "inputs", list, "dfg document"))
    refs = _Refs(widths, inputs)
    operations = [
        _operation(i, entry, refs)
        for i, entry in enumerate(_expect(doc, "ops", list, "dfg document"))
    ]

    outputs = _expect(doc, "outputs", list, "dfg document")
    if not all(isinstance(token, str) for token in outputs):
        raise FormatError("outputs must be a list of names")

    g = Dfg(operations, library, inputs, [refs[token] for token in outputs])
    findings = validate_dfg(g)
    if findings:
        raise _finding_error(findings[0])
    return g


class _Refs(dict):
    """Token -> data item, each distinct token built once on first use and
    shared by every op that names it; the declared inputs are there from
    the start."""

    def __init__(self, widths: Mapping[str, int], inputs: Iterable[DataRef]):
        super().__init__((ref.name, ref) for ref in inputs)
        self.widths = widths

    def __missing__(self, token: str) -> DataRef:
        ref = self[token] = _data_ref(token, self.widths)
        return ref


_OP_KEYS = frozenset({"id", "opcode", "args", "result"})
_OP_KEYS_WITH_DEPS = _OP_KEYS | {"deps"}


def _operation(i: int, entry, refs: _Refs) -> Operation:
    """The operation ``ops[i]`` describes, in one step. Its syntax is
    checked in the order that decides which error an entry with several
    faults gets, and the entry's location is formatted only for an error."""
    if not isinstance(entry, dict):
        raise FormatError(f"ops[{i}] must be an object")
    if entry.keys() != _OP_KEYS and entry.keys() != _OP_KEYS_WITH_DEPS:
        # a key is missing or unknown: _check_keys names which
        _check_keys(entry, _OP_KEYS, {"deps"}, f"ops[{i}]")
    op_id, opcode, args, result = entry["id"], entry["opcode"], entry["args"], entry["result"]
    if not isinstance(op_id, str):
        raise FormatError(f"ops[{i}].id must be of type str")
    if not _NAME_RE.match(op_id):
        raise FormatError(f"ops[{i}]: {op_id!r} is not a valid identifier")
    if not isinstance(opcode, str):
        raise FormatError(f"ops[{i}].opcode must be of type str")
    if not isinstance(args, list):
        raise FormatError(f"ops[{i}].args must be of type list")
    if not args or not all(isinstance(a, str) for a in args):
        raise FormatError(f"ops[{i}].args must be a non-empty list of names")
    if not isinstance(result, str):
        raise FormatError(f"ops[{i}].result must be of type str")
    result = refs[result]
    deps = entry.get("deps", [])
    if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
        raise FormatError(f"ops[{i}].deps must be a list of op ids")
    return Operation(op_id, opcode, tuple(map(refs.__getitem__, args)), result,
                     frozenset(deps))


def _parse_inputs(raw: list) -> tuple[dict[str, int], list[DataRef]]:
    """The width of each declared name, and the items the declarations
    define: a scalar, or every element of a flattened array."""
    widths: dict[str, int] = {}
    inputs: list[DataRef] = []
    for i, entry in enumerate(raw):
        where = f"inputs[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        _check_keys(entry, {"name"}, {"shape", "width_bits"}, where)
        name = _identifier(_expect(entry, "name", str, where), where)
        if name in widths:
            raise FormatError(f"input {name!r} declared twice")
        shape = entry.get("shape")
        if "shape" in entry and not (
            isinstance(shape, list) and shape and all(_is_int(d) and d > 0 for d in shape)
        ):
            raise FormatError(f"{where}.shape must be a list of positive integers")
        width = entry.get("width_bits", DEFAULT_WIDTH_BITS)
        if not _is_int(width) or width < 1:
            raise FormatError(f"{where}.width_bits must be a positive integer")
        widths[name] = width
        count = 1
        for extent in shape or ():  # multiplied no further than the bound
            count = min(count * extent, MAX_INPUT_ITEMS + 1)
        if len(inputs) + count > MAX_INPUT_ITEMS:
            raise FormatError(f"{where}: the inputs declare more than {MAX_INPUT_ITEMS} items")
        if shape is None:
            inputs.append(scalar(name, width))
        else:
            inputs.extend(elem(name, k, width) for k in range(count))
    return widths, inputs


def _data_ref(token: str, widths: Mapping[str, int]) -> DataRef:
    # A declared base name takes its declaration's width, any other name the
    # default; whether the item may be read or written is validate_dfg's call.
    m = _ELEMENT_RE.match(token)
    if m:
        try:
            return elem(m.group(1), int(m.group(2)), widths.get(m.group(1), DEFAULT_WIDTH_BITS))
        except ValueError:  # more digits than int() reads: a bad reference below
            pass
    if not _NAME_RE.match(token):
        raise FormatError(f"bad data reference {token!r}")
    return scalar(token, widths.get(token, DEFAULT_WIDTH_BITS))


def _finding_error(d: Diagnostic) -> SchedulingError:
    """The error :func:`parse_dfg` raises for a :func:`validate_dfg` finding."""
    item, op = d.payload, d.details.get("op")
    if d.code == "CycleDetected":
        return CycleDetected(d.details.get("cycle", [item]))
    if d.code == "UnknownDependency":
        return FormatError(f"operation {op!r} depends on unknown operation id {item!r}")
    if d.code == "UnknownOpcode":
        return UnknownOpcode(f"operation {op!r}: opcode {item!r} is not in the operator library")
    if d.code == "DuplicateWriter":
        ops = " and ".join(map(repr, d.details["ops"]))
        if d.details.get("input"):
            return DuplicateWriter(f"{item!r} belongs to a declared input but is written by {ops}")
        return DuplicateWriter(f"data {item!r} written by both {ops}")
    if d.details.get("output"):
        return UndefinedData(f"output {item!r} is not produced by any operation")
    return UndefinedData(
        f"operation {op!r} reads {item!r}, which is neither a declared input nor a result"
    )


def _load_json(text: str, what: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid {what} document: {e.msg}", e.lineno, e.colno) from None
    except (ValueError, RecursionError) as e:  # an integer too long, nesting too deep
        raise FormatError(f"invalid {what} document: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{what} document must be a JSON object")
    return doc


def _check_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    missing = required - obj.keys()
    if missing:
        raise FormatError(f"{where} is missing key(s): {', '.join(sorted(missing))}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise FormatError(f"{where} has unknown key(s): {', '.join(sorted(unknown))}")


def _expect(obj: dict, key: str, kind: type, where: str):
    value = obj[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise FormatError(f"{where}.{key} must be of type {kind.__name__}")
    return value


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not integers
    return isinstance(value, int) and not isinstance(value, bool)


def _identifier(name: str, where: str) -> str:
    if not _NAME_RE.match(name):
        raise FormatError(f"{where}: {name!r} is not a valid identifier")
    return name


# ---------------------------------------------------------------------------
# validation and ordering

def validate_dfg(g: Dfg) -> list[Diagnostic]:
    """Check all graph invariants; returns one Diagnostic per violation.

    This never raises, so it also covers graphs assembled programmatically.
    Findings are ordered by rule: opcodes, writers, deps, per-op self-deps (an
    op in its own ``deps`` or reading its own result) and operands, outputs,
    cycles; :func:`parse_dfg` raises the first one.
    """
    diags: list[Diagnostic] = []
    produced = {op.result for op in g.operations}

    for op in g.operations:
        if op.opcode not in g.library:
            diags.append(
                Diagnostic("UnknownOpcode", op.opcode, {"op": op.id})
            )

    # the declared names: each input scalar's, and each input array's
    declared = {ref.array or ref.name for ref in g.primary_inputs}
    for ref, writers in sorted(g._writers.items(), key=lambda kv: kv[0].name):
        if len(writers) > 1:
            diags.append(
                Diagnostic("DuplicateWriter", ref.name, {"ops": list(writers)})
            )
        if ref.name in declared or ref.array in declared:
            diags.append(
                Diagnostic("DuplicateWriter", ref.name, {"ops": list(writers), "input": True})
            )

    for op in g.operations:
        for dep in sorted(op.extra_deps):
            if dep != op.id and dep not in g:
                diags.append(Diagnostic("UnknownDependency", dep, {"op": op.id}))

    seen_undefined: set[str] = set()
    for op in g.operations:
        if op.id in op.extra_deps or op.result in op.operands:
            diags.append(Diagnostic("CycleDetected", op.id, {"self_dep": True}))
        for ref in op.operands:
            if ref in g.primary_inputs or ref in produced:
                continue
            if ref.name not in seen_undefined:
                seen_undefined.add(ref.name)
                diags.append(Diagnostic("UndefinedData", ref.name, {"op": op.id}))

    for ref in sorted(g.primary_outputs, key=lambda r: r.name):
        if ref not in produced:
            diags.append(Diagnostic("UndefinedData", ref.name, {"output": True}))

    if g._cycle is not None:
        diags.append(
            Diagnostic("CycleDetected", " -> ".join(g._cycle), {"cycle": list(g._cycle)})
        )
    return diags


def topological_order(g: Dfg) -> list[str]:
    """Deterministic topological order: producers first, ties by ascending
    id. Raises CycleDetected on a cyclic graph."""
    if g._cycle is not None:
        raise CycleDetected(g._cycle)
    return list(g._order)


def _topological_sort(g: Dfg) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    """The order :func:`topological_order` returns and None, or, for a
    cyclic graph, no order and the cycle it reports."""
    indegree = {op_id: len(preds) for op_id, preds in g._preds.items()}
    succs = g._succs
    ready = [op_id for op_id, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        op_id = heapq.heappop(ready)
        order.append(op_id)
        for succ in sorted(succs[op_id]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) < len(g.operations):
        return (), tuple(_find_cycle(g, {o for o in indegree if indegree[o] > 0}))
    return tuple(order), None


def _find_cycle(g: Dfg, remaining: set[str]) -> list[str]:
    # Walk predecessor links inside the leftover set until a node repeats.
    start = min(remaining)
    seen: dict[str, int] = {}
    path: list[str] = []
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(p for p in g.predecessors(node) if p in remaining)
    cycle = path[seen[node]:]
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]
