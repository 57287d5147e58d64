"""Metrics, comparison and exports."""

import csv
import io
import re

import pytest

from memsched import (
    AccessModel,
    Allocation,
    Dfg,
    InconsistentSchedule,
    MemoryBank,
    MemoryMapping,
    MismatchedInputs,
    Operation,
    OperatorClass,
    OperatorLibrary,
    PortBooking,
    Schedule,
    ScheduleEntry,
    SchedulerConfig,
    analyze,
    compare,
    compute_timing,
    export_csv,
    export_gantt,
    scalar,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched import fixtures
from memsched.metrics import _READ_COLOR, _WRITE_COLOR, _escape

UNIT = OperatorLibrary([OperatorClass("u", frozenset({"f"}), 1, 1.0)])
ALU = OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0)
LIB = OperatorLibrary([ALU])


def flat_graph(n, library=UNIT, opcode="f"):
    ops = [
        Operation(f"op{i:02d}", opcode, (scalar(f"x{i}"),), scalar(f"d{i}"))
        for i in range(n)
    ]
    return Dfg.build(ops, library)


def manual_schedule(g, model2_ids, T=32):
    cfg = SchedulerConfig(T)
    entries = {}
    for i, op in enumerate(g.operations):
        entries[op.id] = ScheduleEntry(
            op_id=op.id,
            start_cycle=i,
            end_cycle=i + 1,
            class_name=g.class_of(op).name,
            instance_index=0,
            shared_inputs=1 if op.id in model2_ids else 0,
        )
    return Schedule(entries, cfg)


def test_energy_formula_ten_ops_four_model2():
    g = flat_graph(10)
    s = manual_schedule(g, {"op00", "op01", "op02", "op03"})
    m = analyze(s, g)
    # 6 * 1.0 + 4 * 0.75, reduction pinned at the conservative end
    assert m.datapath_energy == 9.0
    assert m.model2_count == 4
    assert m.model2_ratio == 0.4


def test_reduction_sweep_changes_energy_by_quarter_of_model2_base():
    g = flat_graph(8)
    s = manual_schedule(g, {"op01", "op04", "op06"})
    low = analyze(s, g, reduction=0.25)
    high = analyze(s, g, reduction=0.50)
    model2_base = 3 * 1.0
    assert low.datapath_energy - high.datapath_energy == 0.25 * model2_base


@pytest.mark.parametrize("reduction", [0.2, 0.6])
def test_analyze_rejects_a_reduction_outside_a_quarter_to_a_half(reduction):
    g = flat_graph(2)
    with pytest.raises(ValueError, match=re.escape("must lie in [0.25, 0.50]")):
        analyze(manual_schedule(g, {"op01"}), g, reduction=reduction)


def test_per_shared_input_scaling_flag():
    ops = [
        Operation("a0", "add", (scalar("x"), scalar("y")), scalar("d0")),
        Operation("a1", "add", (scalar("x"), scalar("z")), scalar("d1")),
    ]
    g = Dfg.build(ops, LIB)
    timing = compute_timing(g, 8)
    s = schedule_baseline(g, Allocation({"alu": 1}), SchedulerConfig(8), timing)
    m = analyze(s, g, per_shared_input=True)
    # a1 shares 1 of 2 inputs: discount scales to 0.25 * 1/2
    assert m.datapath_energy == 2.0 + 2.0 * (1 - 0.125)


def two_adds_one_bank():
    ops = [
        Operation("r1", "add", (scalar("a"), scalar("x")), scalar("u")),
        Operation("r2", "add", (scalar("b"), scalar("y")), scalar("v")),
    ]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping(
        [MemoryBank("M0", 1, 1, 1, 0)], {"a": "M0", "b": "M0"}, default_register=True
    )
    return g, mapping


def test_memory_aware_schedule_has_zero_conflicts():
    g, mapping = two_adds_one_bank()
    timing = compute_timing(g, 4)
    s = schedule_memory_aware(
        g, Allocation({"alu": 2}), mapping, SchedulerConfig(4), timing
    )
    m = analyze(s, g, s.model)
    assert m.total_conflicts == 0
    assert m.per_bank["M0"].accesses == 2
    assert m.per_bank["M0"].peak_simultaneous_requests == 1


def test_baseline_replay_counts_conflicts():
    g, mapping = two_adds_one_bank()
    timing = compute_timing(g, 4)
    s = schedule_baseline(
        g, Allocation({"alu": 2}), SchedulerConfig(4), timing
    )
    assert {e.start_cycle for e in s.entries.values()} == {0}
    m = analyze(s, g, AccessModel(g, mapping))
    # both fetches land on the cycle before start: 2 requests on one port
    assert m.per_bank["M0"].peak_simultaneous_requests == 2
    assert m.per_bank["M0"].port_conflict_cycles == 1
    assert m.total_conflicts == 1
    assert m.memory_energy == 2.0


def test_replay_counts_full_multi_cycle_fetch_windows():
    # 1-port bank, read latency 2: fetches for starts 2 and 3 hold the port
    # over [0, 2) and [1, 3), so both request it in cycle 1
    ops = [
        Operation("r1", "add", (scalar("a"),), scalar("u")),
        Operation("r2", "add", (scalar("b"),), scalar("v")),
    ]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping(
        [MemoryBank("M0", 1, 2, 1, 0)], {"a": "M0", "b": "M0"}, default_register=True
    )
    entries = {
        oid: ScheduleEntry(oid, start, start + 1, "alu", i)
        for i, (oid, start) in enumerate((("r1", 2), ("r2", 3)))
    }
    s = Schedule(entries, SchedulerConfig(8))
    m = analyze(s, g, AccessModel(g, mapping))
    assert m.per_bank["M0"].peak_simultaneous_requests == 2
    assert m.per_bank["M0"].port_conflict_cycles == 1
    assert m.total_conflicts == 1
    assert m.per_bank["M0"].accesses == 2


def test_replay_conflicts_match_per_cycle_recount():
    # independent recount of the replay: every fetch requests its bank in
    # each cycle of [start - read_latency, start), every store in each cycle
    # of [end, end + write_latency)
    import random
    from collections import Counter

    from memsched import REGISTER, compute_min_allocation
    from oracles import generous_deadline, make_library, random_dfg, random_mapping

    rng = random.Random(31)
    for _ in range(10):
        lib = make_library(rng, 2)
        g = random_dfg(rng, rng.randint(5, 15), lib)
        mapping = random_mapping(rng, g, rng.randint(1, 3))
        T = generous_deadline(g, mapping)
        timing = compute_timing(g, T)
        alloc = compute_min_allocation(g, T)
        s = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
        m = analyze(s, g, AccessModel(g, mapping))

        demand: dict[str, Counter] = {}
        for op in g.operations:
            e = s.entries[op.id]
            for ref in set(op.operands):
                bank_id = mapping.location_of(ref)
                if bank_id == REGISTER:
                    continue
                rl = mapping.bank_by_id[bank_id].read_latency_cycles
                for c in range(e.start_cycle - rl, e.start_cycle):
                    demand.setdefault(bank_id, Counter())[c] += 1
            bank_id = mapping.location_of(op.result)
            if bank_id != REGISTER:
                wl = mapping.bank_by_id[bank_id].write_latency_cycles
                for c in range(e.end_cycle, e.end_cycle + wl):
                    demand.setdefault(bank_id, Counter())[c] += 1
        recount = 0
        for bank in mapping.banks:
            cycles = demand.get(bank.id, Counter())
            recount += sum(1 for n in cycles.values() if n > bank.ports)
        assert m.total_conflicts == recount
        assert m.total_conflicts >= 0


def test_analyze_rejects_inconsistent_schedules():
    g = flat_graph(3)
    s = manual_schedule(g, set())
    del s.entries["op02"]
    with pytest.raises(InconsistentSchedule):
        analyze(s, g)
    s = manual_schedule(g, set())
    s.entries["op01"] = s.entries["op01"]._replace(end_cycle=4)
    with pytest.raises(InconsistentSchedule) as err:
        analyze(s, g)
    assert err.value.message == "entry 'op01' spans 3 cycles, class latency is 1"


def _fir4_on_banks_of_latency(latency):
    mapping = fixtures.load_mapping("fir4")
    banks = [b._replace(read_latency_cycles=latency, write_latency_cycles=latency)
             for b in mapping.banks]
    return MemoryMapping(banks, mapping.placement, mapping.default_register)


def test_replay_work_does_not_grow_with_latency(line_budget):
    # the memory-blind schedule is the same at every bank latency; the
    # replay adds each window once, however many cycles it spans
    import memsched.metrics

    g = fixtures.load_dfg("fir4")
    s = schedule_baseline(g, Allocation({"mul": 1, "alu": 1}), SchedulerConfig(12),
                          compute_timing(g, 12))
    assert [e.start_cycle for e in s.sorted_entries() if e.class_name == "mul"] == [0, 2, 4, 6]
    lines = {}
    for latency in (1, 200_000):
        model = AccessModel(g, _fir4_on_banks_of_latency(latency))
        with line_budget(memsched.metrics, 2_000) as ran:
            m = analyze(s, g, model)
        lines[latency] = ran[0]
    assert lines[1] == lines[200_000]
    # each bank serves one operand of every mul: fetch windows
    # [s - 200000, s) for s = 0, 2, 4, 6 overlap on [-199998, 4), all four
    # on [-199994, 0)
    assert m.per_bank["M0"] == m.per_bank["M1"] == (4, 4, 200_002)
    assert m.total_conflicts == 400_004


def test_compare_verdict_rounds_a_float_energy_delta():
    m = analyze(manual_schedule(flat_graph(2), set()), flat_graph(2))
    left = m._replace(datapath_energy=0.1 + 0.2)  # 0.30000000000000004
    right = m._replace(datapath_energy=0.0, total_conflicts=3)
    assert compare(left, right).verdict == (
        "makespan: tie; energy: right wins by 0.3; conflicts: left wins by 3")
    assert compare(right, left).verdict == (
        "makespan: tie; energy: left wins by 0.3; conflicts: right wins by 3")


def test_compare_deltas_and_mismatch():
    g = flat_graph(5)
    m1 = analyze(manual_schedule(g, set()), g)
    assert compare(m1, m1)._replace().makespan_delta == 0
    assert compare(m1, m1).energy_delta == 0.0
    assert compare(m1, m1).conflict_delta == 0

    s2 = manual_schedule(g, set())
    bumped = {
        oid: e._replace(start_cycle=e.start_cycle + 2, end_cycle=e.end_cycle + 2)
        for oid, e in s2.entries.items()
    }
    s2 = Schedule(bumped, s2.config)
    m2 = analyze(s2, g)
    assert compare(m1, m2).makespan_delta == 2

    g6 = flat_graph(6)
    m6 = analyze(manual_schedule(g6, set()), g6)
    with pytest.raises(MismatchedInputs):
        compare(m1, m6)


# -- exports ----------------------------------------------------------------------

def empty_schedule():
    g = flat_graph(0)
    return g, Schedule({}, SchedulerConfig(4))


def test_gantt_empty_schedule_has_axes_only():
    _, s = empty_schedule()
    svg = export_gantt(s)
    assert svg.startswith("<svg")
    # one background rect, no operation or booking boxes
    assert svg.count("<rect") == 1


def test_gantt_single_op_box():
    g = flat_graph(1)
    s = manual_schedule(g, set())
    svg = export_gantt(s)
    assert svg.count("<rect") == 2  # background + one op box
    assert ">op00<" in svg


def test_gantt_port_rows_show_serialized_fetches():
    g, mapping = two_adds_one_bank()
    timing = compute_timing(g, 4)
    s = schedule_memory_aware(
        g, Allocation({"alu": 2}), mapping, SchedulerConfig(4), timing
    )
    svg = export_gantt(s)
    assert "M0.p0" in svg
    assert svg.count(_READ_COLOR) == 2
    assert svg.count(_WRITE_COLOR) == 0
    assert export_gantt(s) == svg  # deterministic


def test_gantt_draws_a_store_window_on_its_port_row():
    # one op stores its result to a 3-port bank with a 2-cycle write latency
    g = Dfg.build([Operation("op00", "f", (scalar("x"),), scalar("d"))], UNIT)
    mapping = MemoryMapping([MemoryBank("M0", 3, 1, 2, 0)], {"d": "M0"}, default_register=True)
    s = schedule_memory_aware(g, Allocation({"u": 1}), mapping, SchedulerConfig(4),
                              compute_timing(g, 4))
    assert s.entries["op00"].write_booking == PortBooking("M0", 0, 1, 3)
    svg = export_gantt(s)
    # cycle 1 lies at x = 110 + 30; the port row is the second row, at y = 34 + 26
    assert (f'<rect x="140" y="63" width="60" height="20" fill="{_WRITE_COLOR}" '
            'stroke="#555555" stroke-width="1"/>') in svg
    assert '<text x="170" y="77" text-anchor="middle" fill="#222222">op00</text>' in svg
    assert svg.count(_WRITE_COLOR) == 1 and svg.count(_READ_COLOR) == 0
    # only a port that holds a booking gets a row
    assert "M0.p0" in svg and "M0.p1" not in svg


@pytest.mark.parametrize("horizon", [19, 41, 2001, 200_000])
def test_gantt_axis_has_at_most_41_ticks(horizon):
    # one op as long as the horizon; every tick is one grid line and one label
    entry = ScheduleEntry("op00", 0, horizon, "u", 0)
    s = Schedule({"op00": entry}, SchedulerConfig(horizon))
    svg = export_gantt(s)
    labels = re.findall(r'text-anchor="middle" fill="#333333">(\d+)<', svg)
    step = int(labels[1])
    assert str(step)[0] in "125" and set(str(step)[1:]) <= {"0"}
    assert labels == [str(c) for c in range(0, horizon + 1, step)]
    assert len(labels) <= 41
    assert svg.count('stroke="#dddddd"') == len(labels)
    assert len(svg) < 10_000


def test_gantt_escape_matches_saxutils():
    from xml.sax.saxutils import escape

    text = "a & b < c > d \" e ' f &amp;"
    assert _escape(text) == escape(text)


def test_csv_empty_and_sorted():
    _, s = empty_schedule()
    assert export_csv(s) == "op,start,end,class,instance,model2\n"

    g = flat_graph(2)
    s2 = manual_schedule(g, {"op01"})
    text = export_csv(s2)
    lines = text.splitlines()
    assert lines[0] == "op,start,end,class,instance,model2"
    assert lines[1].startswith("op00,0,1,")
    assert lines[2].startswith("op01,1,2,")
    assert lines[2].endswith("true")


def test_csv_ties_break_by_op_id():
    g = flat_graph(3)
    s = manual_schedule(g, set())
    same_start = {
        oid: e._replace(start_cycle=0, end_cycle=1)
        for oid, e in s.entries.items()
    }
    s = Schedule(same_start, s.config)
    header, *rows = csv.reader(io.StringIO(export_csv(s)))
    assert header == ["op", "start", "end", "class", "instance", "model2"]
    assert [r[0] for r in rows] == ["op00", "op01", "op02"]


# -- derived facts ----------------------------------------------------------------

def test_makespan_is_the_latest_store_end():
    # r1 executes over [1, 2) and stores u over [2, 5); r2 ends later, at 4,
    # with its result in a register
    ops = [
        Operation("r1", "add", (scalar("a"),), scalar("u")),
        Operation("r2", "add", (scalar("b"),), scalar("v")),
    ]
    g = Dfg.build(ops, LIB)
    mapping = MemoryMapping(
        [MemoryBank("M0", 1, 1, 3, 0)], {"a": "M0", "u": "M0"}, default_register=True
    )
    entries = {
        "r1": ScheduleEntry("r1", 1, 2, "alu", 0,
                            read_bookings=(PortBooking("M0", 0, 0, 1),),
                            write_booking=PortBooking("M0", 0, 2, 5)),
        "r2": ScheduleEntry("r2", 3, 4, "alu", 0),
    }
    s = Schedule(entries, SchedulerConfig(8), AccessModel(g, mapping))
    assert s.makespan_cycles == 5
    assert analyze(s, g, s.model).makespan_cycles == 5
    assert '"makespan": 5' in s.to_json()
    assert Schedule({}, SchedulerConfig(8)).makespan_cycles == 0


def test_every_counted_model2_entry_is_discounted_per_shared_input():
    g = fixtures.load_dfg("fft8_stage")
    cfg = SchedulerConfig(32)
    s = schedule_baseline(g, Allocation({"alu": 1, "mul": 1}), cfg, compute_timing(g, 32))
    m = analyze(s, g, per_shared_input=True)
    counted = [oid for oid, e in s.entries.items() if e.is_model2]
    assert m.model2_count == len(counted) > 0
    for oid in counted:
        # the same schedule without this entry's sharing costs more energy
        plain = dict(s.entries, **{oid: s.entries[oid]._replace(shared_inputs=0)})
        m_plain = analyze(Schedule(plain, cfg), g, per_shared_input=True)
        assert m_plain.model2_count == m.model2_count - 1
        assert m_plain.datapath_energy > m.datapath_energy
