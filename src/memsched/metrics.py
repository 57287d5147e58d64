"""Schedule analysis and reporting.

Energy model: every executed operation costs its class base energy; an
operation flagged as input-sharing (model 2) is discounted by the reduction
factor that :func:`analyze` takes and :func:`check_reduction` bounds.
Memory energy is linear in bank accesses. Bank traffic of either policy is
counted over the windows of the mapping's access model:
each fetch holds a port over [start - read_latency, start) and each store
over [end, end + write_latency), for every cycle of the window. A cycle in
which a bank receives more requests than it has ports is a conflict cycle;
the memory-aware scheduler books exactly these windows, so its schedules
count none, and the two policies compare like for like. The replay adds
each window once to its bank's usage profile, whatever its length.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Mapping, NamedTuple

from .dfg import Dfg
from .errors import InconsistentSchedule, MismatchedInputs
from .memmap import AccessModel, Profile
from .scheduler import Schedule


class BankStats(NamedTuple):
    accesses: int
    peak_simultaneous_requests: int
    port_conflict_cycles: int


class ScheduleMetrics(NamedTuple):
    makespan_cycles: int
    op_count: int
    model2_count: int
    model2_ratio: float
    datapath_energy: float
    memory_energy: float
    per_bank: Mapping[str, BankStats]
    total_conflicts: int

    def to_json_dict(self) -> dict:
        doc = self._asdict()
        return {"makespan": doc.pop("makespan_cycles"), **doc,
                "per_bank": {bank: st._asdict() for bank, st in sorted(self.per_bank.items())}}


class ComparisonReport(NamedTuple):
    left: ScheduleMetrics
    right: ScheduleMetrics
    makespan_delta: int
    energy_delta: float
    conflict_delta: int
    verdict: str


REDUCTION_RANGE = (0.25, 0.50)


def check_reduction(reduction: float) -> None:
    """Raise ValueError unless ``reduction`` is an energy discount the
    model accepts: a fraction in ``REDUCTION_RANGE``, bounds included."""
    low, high = REDUCTION_RANGE
    if not low <= reduction <= high:
        raise ValueError(f"model2_reduction must lie in [{low:.2f}, {high:.2f}]")


def analyze(
    s: Schedule,
    g: Dfg,
    model: AccessModel | None = None,
    *,
    reduction: float = 0.25,
    per_shared_input: bool = False,
) -> ScheduleMetrics:
    """Measure a schedule: sharing ratio, energy estimate, bank traffic.

    Latencies and base energies come from ``g.library``. Each input-sharing
    operation is discounted by ``reduction`` of its base energy, a fraction
    :func:`check_reduction` accepts (ValueError otherwise); with
    ``per_shared_input`` the discount is scaled by the share of its operands
    it reuses. These settings only price a finished schedule.

    Bank traffic replays every entry's start against ``model``, the access
    model of the mapping to count on (a memory-aware schedule's own
    ``Schedule.model``): each access counts as one request in every cycle of
    its full multi-cycle window (see the module docs), so a memory-blind
    schedule shows the port conflicts it would cause and a memory-aware one
    shows the traffic it booked. None, or a model without a mapping, counts
    no bank traffic.
    """
    check_reduction(reduction)
    ops = {op.id: op for op in g.operations}
    if s.entries.keys() != ops.keys():
        raise InconsistentSchedule(
            f"schedule covers {len(s.entries)} of {len(ops)} operations"
        )
    classes = {oid: g.class_of(op) for oid, op in ops.items()}
    for oid in ops:
        entry = s.entries[oid]
        latency = classes[oid].latency_cycles
        if entry.end_cycle - entry.start_cycle != latency:
            raise InconsistentSchedule(
                f"entry {oid!r} spans {entry.end_cycle - entry.start_cycle} cycles, "
                f"class latency is {latency}"
            )

    op_count = len(g.operations)
    model2_count = sum(1 for e in s.entries.values() if e.is_model2)
    datapath = 0.0
    for e in s.sorted_entries():
        if per_shared_input:
            share = e.shared_inputs / len(ops[e.op_id].operands)
        else:
            share = float(e.is_model2)
        datapath += classes[e.op_id].base_energy * (1.0 - reduction * share)

    per_bank: dict[str, BankStats] = {}
    memory_energy = 0.0
    mapping = model.mapping if model is not None else None
    if mapping is not None and mapping.banks:
        usage = {bank.id: Profile() for bank in mapping.banks}
        accesses = dict.fromkeys(usage, 0)
        for e in s.entries.values():
            for bank, count, first, end, _ in model.plans[e.op_id].windows:
                accesses[bank.id] += count
                usage[bank.id].add(e.start_cycle + first, e.start_cycle + end, count)
        for bank in sorted(mapping.banks, key=lambda b: b.id):
            count, profile = accesses[bank.id], usage[bank.id]
            per_bank[bank.id] = BankStats(count, max(profile.levels, default=0),
                                          profile.length_above(bank.ports))
            memory_energy += count * bank.energy_per_access

    return ScheduleMetrics(
        makespan_cycles=s.makespan_cycles,
        op_count=op_count,
        model2_count=model2_count,
        model2_ratio=(model2_count / op_count) if op_count else 0.0,
        datapath_energy=datapath,
        memory_energy=memory_energy,
        per_bank=per_bank,
        total_conflicts=sum(st.port_conflict_cycles for st in per_bank.values()),
    )


def compare(a: ScheduleMetrics, b: ScheduleMetrics) -> ComparisonReport:
    """Pairwise report; deltas are right minus left. Requires both analyses
    to come from the same graph (equal operation counts)."""
    if a.op_count != b.op_count:
        raise MismatchedInputs(
            f"op counts differ: {a.op_count} vs {b.op_count}"
        )
    makespan_delta = b.makespan_cycles - a.makespan_cycles
    energy_delta = (b.datapath_energy + b.memory_energy) - (
        a.datapath_energy + a.memory_energy
    )
    conflict_delta = b.total_conflicts - a.total_conflicts
    parts = []
    for axis, delta in (
        ("makespan", makespan_delta),
        ("energy", energy_delta),
        ("conflicts", conflict_delta),
    ):
        if delta == 0:
            parts.append(f"{axis}: tie")
        elif delta > 0:
            parts.append(f"{axis}: left wins by {_fmt(delta)}")
        else:
            parts.append(f"{axis}: right wins by {_fmt(-delta)}")
    return ComparisonReport(
        a, b, makespan_delta, energy_delta, conflict_delta, "; ".join(parts)
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(round(x, 10))
    return str(x)


# ---------------------------------------------------------------------------
# exports

def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped, the
    set ``xml.sax.saxutils.escape`` escapes by default, whose import alone
    would pull in ``urllib.request`` and ``http.client``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_CLASS_COLORS = ("#7ea7d8", "#a1d372", "#eb8445", "#7bcdc8", "#c49bd4", "#fff79a")
_READ_COLOR = "#d8e8c0"
_WRITE_COLOR = "#f2c9a8"

_MARGIN_LEFT = 110
_MARGIN_TOP = 34
_ROW_H = 26
_CYCLE_W = 30


def export_gantt(s: Schedule) -> str:
    """Deterministic SVG chart: one row per operator instance used, one row
    per bank port that holds a booking, boxes spanning each half-open cycle
    interval."""
    entries = s.sorted_entries()
    instance_rows = sorted({(e.class_name, e.instance_index) for e in entries})
    port_rows = sorted({(b.bank_id, b.port_index) for e in entries
                        for b in e.read_bookings + (e.write_booking,) if b is not None})

    # the makespan covers every booking: fetches end at their op's start,
    # and the makespan counts each store's end
    horizon = max(s.makespan_cycles, 1)
    rows = [("op", cls, idx) for cls, idx in instance_rows]
    rows += [("port", bank, port) for bank, port in port_rows]
    width = _MARGIN_LEFT + horizon * _CYCLE_W + 20
    height = _MARGIN_TOP + max(1, len(rows)) * _ROW_H + 30

    def x(cycle: int) -> int:
        return _MARGIN_LEFT + cycle * _CYCLE_W

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for c in range(0, horizon + 1, _tick_step(horizon)):
        top = _MARGIN_TOP
        bottom = _MARGIN_TOP + len(rows) * _ROW_H
        out.append(
            f'<line x1="{x(c)}" y1="{top}" x2="{x(c)}" y2="{bottom}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x(c)}" y="{_MARGIN_TOP - 8}" text-anchor="middle" '
            f'fill="#333333">{c}</text>'
        )
    classes = sorted({cls for cls, _ in instance_rows})
    color_of = {
        cls: _CLASS_COLORS[i % len(_CLASS_COLORS)] for i, cls in enumerate(classes)
    }
    row_index = {row: i for i, row in enumerate(rows)}
    for kind, a, b in rows:
        y_top = _MARGIN_TOP + row_index[(kind, a, b)] * _ROW_H
        label = f"{a}[{b}]" if kind == "op" else f"{a}.p{b}"
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y_top + _ROW_H - 9}" '
            f'text-anchor="end" fill="#333333">{_escape(label)}</text>'
        )
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y_top}" x2="{x(horizon)}" y2="{y_top}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )

    def box(row_key, start, end, fill, label):
        y_top = _MARGIN_TOP + row_index[row_key] * _ROW_H + 3
        out.append(
            f'<rect x="{x(start)}" y="{y_top}" width="{(end - start) * _CYCLE_W}" '
            f'height="{_ROW_H - 6}" fill="{fill}" stroke="#555555" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{(x(start) + x(end)) // 2}" y="{y_top + _ROW_H - 12}" '
            f'text-anchor="middle" fill="#222222">{_escape(label)}</text>'
        )

    for e in entries:
        box(("op", e.class_name, e.instance_index), e.start_cycle, e.end_cycle,
            color_of[e.class_name], e.op_id)
        for b in e.read_bookings:
            box(("port", b.bank_id, b.port_index), b.start, b.end, _READ_COLOR, e.op_id)
        if e.write_booking is not None:
            b = e.write_booking
            box(("port", b.bank_id, b.port_index), b.start, b.end, _WRITE_COLOR, e.op_id)

    bottom = _MARGIN_TOP + len(rows) * _ROW_H
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{bottom}" x2="{x(horizon)}" y2="{bottom}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tick_step(horizon: int) -> int:
    """Smallest step of the series 1, 2, 5, 10, 20, 50, ... that puts at
    most 40 steps on an axis of ``horizon`` cycles."""
    scale = 1
    while True:
        for step in (scale, 2 * scale, 5 * scale):
            if horizon <= 40 * step:
                return step
        scale *= 10


def export_csv(s: Schedule) -> str:
    """CSV view of a schedule, rows sorted by (start, op id), LF endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("op", "start", "end", "class", "instance", "model2"))
    writer.writerows(
        (e.op_id, e.start_cycle, e.end_cycle, e.class_name, e.instance_index,
         "true" if e.is_model2 else "false")
        for e in s.sorted_entries()
    )
    return buf.getvalue()


def metrics_to_json(metrics: ScheduleMetrics) -> str:
    return json.dumps(metrics.to_json_dict(), indent=2) + "\n"


def comparison_to_json(report: ComparisonReport, extra: dict | None = None) -> str:
    doc = {**report._asdict(), "left": report.left.to_json_dict(),
           "right": report.right.to_json_dict(), **(extra or {})}
    return json.dumps(doc, indent=2) + "\n"
