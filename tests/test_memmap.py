"""Memory banks, placements and the access model."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from golden_corpus import _random
from memsched import (
    AccessModel,
    AccessWindow,
    Allocation,
    CapacityExceeded,
    Dfg,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    REGISTER,
    SchedulerConfig,
    UnknownBank,
    UnknownOpcode,
    UnmappedData,
    all_registers,
    compute_timing,
    elem,
    fixtures,
    parse_mapping,
    round_robin_mapping,
    scalar,
    schedule_memory_aware,
    validate_mapping,
)
from memsched.memmap import Profile

LIB = OperatorLibrary(
    [
        OperatorClass("mul", frozenset({"mul"}), 2),
        OperatorClass("alu", frozenset({"add", "sub"}), 1),
    ]
)


def bank(bank_id="M0", ports=1, rl=1, wl=1, capacity=None):
    return MemoryBank(bank_id, ports, rl, wl, 0, capacity, 1.0)


def mapping_doc(**overrides):
    doc = {
        "banks": [
            {"id": "M0", "ports": 1, "read_latency": 1, "write_latency": 1, "level": 0}
        ],
        "place": {"x": "M0", "h": "M0", "y": "REGISTER"},
    }
    doc.update(overrides)
    return json.dumps(doc)


# -- parsing ------------------------------------------------------------------

def test_parse_mapping_basic():
    m = parse_mapping(mapping_doc())
    assert [b.id for b in m.banks] == ["M0"]
    assert m.location_of(scalar("x")) == "M0"
    assert m.location_of(scalar("h")) == "M0"
    assert m.location_of(scalar("y")) == REGISTER
    assert sum(1 for t in m.placement.values() if t == "M0") == 2


def test_parse_mapping_unknown_bank():
    with pytest.raises(UnknownBank) as err:
        parse_mapping(mapping_doc(place={"x": "M9"}))
    assert "M9" in str(err.value)


def test_parse_mapping_capacity_exceeded():
    doc = mapping_doc(
        banks=[{"id": "M0", "ports": 1, "read_latency": 1, "write_latency": 1,
                "level": 0, "capacity_words": 1}],
        place={"x": "M0", "h": "M0"},
    )
    with pytest.raises(CapacityExceeded) as err:
        parse_mapping(doc)
    assert err.value.details["bank"] == "M0"


def test_parse_mapping_default_only_register():
    m = parse_mapping(mapping_doc(default="REGISTER"))
    assert m.location_of(scalar("anything")) == REGISTER
    from memsched import FormatError

    with pytest.raises(FormatError):
        parse_mapping(mapping_doc(default="M0"))


def mapping_as_doc(m):
    """Write ``m`` in the mapping-document format, with every bank field."""
    banks = [{"id": b.id, "ports": b.ports, "read_latency": b.read_latency_cycles,
              "write_latency": b.write_latency_cycles, "level": b.level,
              "capacity_words": b.capacity_words, "energy_per_access": b.energy_per_access}
             for b in m.banks]
    doc = {"banks": banks, "place": m.placement}
    if m.default_register:
        doc["default"] = REGISTER
    return json.dumps(doc)


def test_mapping_roundtrip():
    banks = [{"id": "M0", "ports": 2, "read_latency": 3, "write_latency": 4, "level": 1,
              "capacity_words": 8, "energy_per_access": 0.5},
             {"id": "M1", "ports": 1, "read_latency": 1, "write_latency": 1, "level": 0}]
    m1 = parse_mapping(mapping_doc(banks=banks, default="REGISTER"))
    assert m1.banks == (
        MemoryBank("M0", 2, 3, 4, 1, 8, 0.5), MemoryBank("M1", 1, 1, 1, 0, None, 1.0)
    )
    assert m1.placement == {"x": "M0", "h": "M0", "y": "REGISTER"}
    assert m1.default_register
    m2 = parse_mapping(mapping_as_doc(m1))
    assert m2.banks == m1.banks
    assert m2.placement == m1.placement
    assert m2.default_register


def test_zero_energy_per_access_is_accepted():
    assert MemoryBank("M0", 1, 1, 1, 0, None, 0.0).energy_per_access == 0.0
    banks = [{"id": "M0", "ports": 1, "read_latency": 1, "write_latency": 1, "level": 0,
              "energy_per_access": 0}]
    assert parse_mapping(mapping_doc(banks=banks)).banks[0].energy_per_access == 0.0


def test_mapping_roundtrip_keeps_energy_per_access():
    m = MemoryMapping([MemoryBank("M0", 1, 1, 1, 0, None, 0.5)], {"x": "M0"})
    assert parse_mapping(mapping_as_doc(m)).banks[0].energy_per_access == 0.5


def test_array_placement_covers_elements_with_overrides():
    m = MemoryMapping([bank("M0"), bank("M1")], {"x": "M0", "x[2]": "M1"})
    assert m.location_of(elem("x", 0)) == "M0"
    assert m.location_of(elem("x", 2)) == "M1"
    with pytest.raises(UnmappedData):
        m.location_of(scalar("unplaced"))


# -- access model: requirements of one operation ------------------------------

def two_bank_mapping():
    return MemoryMapping(
        [bank("M0", ports=2), bank("M1", ports=2)],
        {"x": "M0", "h": "M1", "a": "M0", "b": "M0"},
        default_register=True,
    )


def model_of(ops, mapping):
    return AccessModel(Dfg.build(ops, LIB), mapping)


def test_access_requirements_split_banks():
    op = Operation("m1", "mul", (scalar("x"), scalar("h")), scalar("p"))
    model = model_of([op], two_bank_mapping())
    m0, m1 = two_bank_mapping().banks
    plan = model.plans["m1"]  # windows relative to the op's start
    assert plan.windows == (
        AccessWindow(m0, 1, -1, 0, False),
        AccessWindow(m1, 1, -1, 0, False),
    )
    assert plan.done == 2  # mul latency, no store


def test_access_requirements_duplicate_operand_collapses():
    m = MemoryMapping([bank("M0", ports=1)], {"a": "M0", "b": "M0"})
    op = Operation("a1", "add", (scalar("a"), scalar("a")), scalar("b"))
    model = model_of([op], m)
    m0 = m.banks[0]
    assert model.plans["a1"].windows == (
        AccessWindow(m0, 1, -1, 0, False),
        AccessWindow(m0, 1, 1, 2, True),
    )
    assert model.plans["a1"].done == 2


def test_access_requirements_all_registers():
    op = Operation("a1", "add", (scalar("a"), scalar("b")), scalar("c"))
    for mapping in (MemoryMapping([], {}, default_register=True), None):
        model = model_of([op], mapping)
        assert model.plans["a1"].windows == ()
        assert model.plans["a1"].done == 1
        assert model.plans["a1"].earliest_start({}) == 0


def test_access_requirements_unmapped():
    m = MemoryMapping([bank()], {})
    op = Operation("a1", "add", (scalar("a"),), scalar("c"))
    with pytest.raises(UnmappedData):
        model_of([op], m)


def test_access_model_multi_cycle_windows():
    m = MemoryMapping([bank("M0", rl=2, wl=3)], {"a": "M0", "p": "M0"})
    op = Operation("m1", "mul", (scalar("a"),), scalar("p"))
    model = model_of([op], m)
    m0 = m.banks[0]
    assert model.plans["m1"].windows == (
        AccessWindow(m0, 1, -2, 0, False),
        AccessWindow(m0, 1, 2, 5, True),
    )
    assert model.plans["m1"].done == 5
    # a fetch window cannot begin before cycle 0
    assert model.plans["m1"].earliest_start({}) == 2


def test_access_model_earliest_start_rules():
    m = MemoryMapping(
        [bank("M0", rl=2, wl=1)],
        {"u": "M0", "v": "REGISTER"},
        default_register=True,
    )
    ops = [
        Operation("p1", "add", (scalar("i"),), scalar("u")),
        Operation("p2", "add", (scalar("i"),), scalar("v")),
        Operation("p3", "add", (scalar("i"),), scalar("w")),
        Operation("c", "add", (scalar("u"), scalar("v")), scalar("r"),
                  frozenset({"p3"})),
    ]
    model = model_of(ops, m)
    # memory-fetched u: its window [s - 2, s) starts after p1 completes
    assert model.plans["c"].earliest_start({"p1": 5, "p2": 0, "p3": 0}) == 7
    # register operand v and the dep on p3 wait for their producers only
    assert model.plans["c"].earliest_start({"p1": 0, "p2": 9, "p3": 0}) == 9
    assert model.plans["c"].earliest_start({"p1": 0, "p2": 0, "p3": 11}) == 11
    assert model.plans["c"].earliest_start({"p1": 0, "p2": 0, "p3": 0}) == 2


# -- validate_mapping ----------------------------------------------------------

def one_op_graph(operands, result="c"):
    op = Operation("a1", "add", tuple(scalar(x) for x in operands), scalar(result))
    return Dfg.build([op], LIB)


def test_validate_mapping_two_ports_ok():
    g = one_op_graph(["a", "b"])
    m = MemoryMapping([bank("M0", ports=2)], {"a": "M0", "b": "M0"}, default_register=True)
    assert validate_mapping(m, g) == []


def test_validate_mapping_port_oversubscribed():
    from oracles import enumerate_independent_starts

    g = one_op_graph(["a", "b"])
    m = MemoryMapping([bank("M0", ports=1)], {"a": "M0", "b": "M0"}, default_register=True)
    diags = validate_mapping(m, g)
    assert len(diags) == 1
    d = diags[0]
    assert d.code == "PortOverSubscribed"
    assert d.details == {"op": "a1", "bank": "M0", "need": 2, "have": 1}
    # exhaustive search: no start cycle lets two simultaneous fetches share
    # the single port, so the rejection is structural, not a timing accident
    feasible = enumerate_independent_starts(
        [("a1", "alu", 1, {"M0": 2})], {"alu": 1}, [bank("M0", ports=1)], horizon=16
    )
    assert feasible == []


def test_validate_mapping_unmapped_data():
    g = one_op_graph(["a", "c"])
    m = MemoryMapping([bank("M0", ports=2)], {"a": "M0"})
    diags = validate_mapping(m, g)
    codes = {(d.code, d.payload) for d in diags}
    assert ("UnmappedData", "c") in codes


def findings(diags):
    # Diagnostic equality ignores details
    return [(d.code, d.payload, d.details) for d in diags]


def mapping_variants(rng, m):
    """``m``, ``m`` without one placement entry, ``m`` over one-port banks
    (so a multi-operand fetch over-subscribes) and ``m`` without its
    REGISTER default (so every unplaced item is unmapped)."""
    yield m
    if m.placement:
        dropped = dict(m.placement)
        del dropped[rng.choice(sorted(dropped))]
        yield MemoryMapping(m.banks, dropped, m.default_register)
    yield MemoryMapping([b._replace(ports=1) for b in m.banks], m.placement, m.default_register)
    yield MemoryMapping(m.banks, m.placement)


def test_validate_mapping_reads_the_same_plans_with_and_without_a_model():
    lib = fixtures.load_library()
    cases = [(fixtures.load_dfg(k, lib), fixtures.load_mapping(k)) for k in fixtures.KERNELS]
    cases += [(g, m) for _, g, m, _, _ in _random()]
    rng = random.Random(31)
    seen = Counter()
    for g, mapping in cases:
        for m in mapping_variants(rng, mapping):
            plain = findings(validate_mapping(m, g))
            try:
                model = AccessModel(g, m)
            except UnmappedData as e:
                # the model stops at the first item validation reports unmapped
                assert [p for code, p, _ in plain if code == "UnmappedData"][0] == e.message
                seen["unmapped"] += 1
                continue
            assert findings(validate_mapping(m, g, model)) == plain
            seen["ports" if plain else "clean"] += 1
    assert min(seen.values()) >= 50, seen


def test_validate_mapping_reports_ports_then_each_unmapped_name_once():
    ops = [Operation("a1", "add", (scalar("a"), scalar("b")), scalar("r1")),
           Operation("a2", "add", (scalar("u"), scalar("v")), scalar("r2")),
           Operation("a3", "add", (scalar("u"), scalar("a")), scalar("r3"))]
    g = Dfg.build(ops, LIB)
    m = MemoryMapping([bank("M0", ports=1)], {"a": "M0", "b": "M0", "r1": REGISTER,
                                              "r2": REGISTER, "r3": "M0"})
    assert findings(validate_mapping(m, g)) == [
        ("PortOverSubscribed", "a1 needs 2 ports on M0, has 1",
         {"op": "a1", "bank": "M0", "need": 2, "have": 1}),
        ("UnmappedData", "u", {"op": "a2"}),
        ("UnmappedData", "v", {"op": "a2"}),
    ]
    # the run reports the first unmapped item before any port finding
    with pytest.raises(UnmappedData) as raised:
        schedule_memory_aware(g, Allocation({"alu": 1}), m, SchedulerConfig(20),
                              compute_timing(g, 20))
    assert raised.value.message == "u"


def test_validate_mapping_plans_with_the_graph_library():
    # Dfg.build takes any opcode; planning reads the op's class
    g = Dfg.build([Operation("a1", "mac", (scalar("a"), scalar("b")), scalar("c"))], LIB)
    m = MemoryMapping([bank("M0", ports=1)], {"a": "M0", "b": "M0"}, default_register=True)
    with pytest.raises(UnknownOpcode):
        validate_mapping(m, g)
    with pytest.raises(UnknownOpcode):
        AccessModel(g, m)


# -- default mapping generator ---------------------------------------------------

def three_item_graph():
    ops = [
        Operation("o1", "add", (scalar("a1x"),), scalar("a2x")),
        Operation("o2", "add", (scalar("a2x"),), scalar("a3x")),
    ]
    return Dfg.build(ops, LIB)


def test_round_robin_cycles_banks_in_order():
    g = three_item_graph()  # items a1x, a2x, a3x
    m = round_robin_mapping(g, [bank("B0"), bank("B1")])
    assert m.placement == {"a1x": "B0", "a2x": "B1", "a3x": "B0"}


def test_all_registers_places_nothing():
    m = all_registers([bank("B0")])
    assert m.placement == {}
    assert m.location_of(scalar("a1x")) == REGISTER


def test_round_robin_without_banks_raises():
    with pytest.raises(ValueError):
        round_robin_mapping(three_item_graph(), [])


def test_round_robin_capacity_exceeded():
    g = three_item_graph()
    with pytest.raises(CapacityExceeded):
        round_robin_mapping(g, [bank("B0", capacity=2)])


def test_round_robin_skips_full_banks_and_is_deterministic():
    g = three_item_graph()
    banks = [bank("B0", capacity=1), bank("B1")]
    m1 = round_robin_mapping(g, banks)
    m2 = round_robin_mapping(g, banks)
    assert m1.placement == m2.placement == {"a1x": "B0", "a2x": "B1", "a3x": "B1"}


def test_round_robin_deals_past_a_full_middle_bank():
    # items v0 v1 v2 w0 w1 w2; B1 holds one word, so w1 skips it to B2 and
    # the deal resumes after B2: w2 goes to B0
    g = Dfg.build([Operation(f"o{i}", "add", (scalar(f"v{i}"),), scalar(f"w{i}"))
                   for i in range(3)], LIB)
    m = round_robin_mapping(g, [bank("B0"), bank("B1", capacity=1), bank("B2")])
    assert m.placement == {"v0": "B0", "v1": "B1", "v2": "B2",
                           "w0": "B0", "w1": "B2", "w2": "B0"}


def test_requirement_totals_match_distinct_memory_operands():
    m = two_bank_mapping()
    op = Operation("m1", "mul", (scalar("x"), scalar("h"), scalar("x")), scalar("p"))
    fetches = [w for w in model_of([op], m).plans["m1"].windows if not w.is_store]
    distinct_memory = {r.name for r in op.operands if m.location_of(r) != REGISTER}
    assert sum(w.count for w in fetches) == len(distinct_memory)


# -- the usage profile --------------------------------------------------------

# one step: the index of a held hold to remove (None, or nothing held,
# adds a hold instead), the added hold's start, length and amount, and a
# query window and level
STEP = st.tuples(st.none() | st.integers(0, 13), st.integers(-30, 30), st.integers(1, 12),
                 st.integers(1, 3), st.integers(-45, 45), st.integers(1, 20), st.integers(0, 4))


def _profile_matches_a_per_cycle_count(steps, in_start_order):
    # the plain per-cycle count is the reference
    profile, usage, held = Profile(), Counter(), []
    assert profile.clear(-5, 5) == -5 and profile.length_above(0) == 0
    last_start = -30
    for remove, start, length, amount, lo, width, level in steps:
        if held and remove is not None:
            start, end, amount = held.pop(remove % len(held))
            amount = -amount
        else:
            if in_start_order:
                start = last_start = last_start + start % 4
            end = start + length
            held.append((start, end, amount))
        profile.add(start, end, amount)
        assert all(a < b for a, b in zip(profile.cuts, profile.cuts[1:]))
        for c in range(start, end):
            usage[c] += amount
        answer = profile.clear(lo, lo + width, level)
        over = [c for c in range(lo, lo + width) if usage[c] > level]
        assert (answer == lo) == (not over)
        if over:
            # the end of one segment, reached from the last cycle above the
            # level without a change of usage: a later window as long that
            # starts before it meets that cycle
            assert over[-1] < answer and answer in profile.cuts
            assert all(usage[c] == usage[over[-1]] for c in range(over[-1], answer))
        assert profile.length_above(level) == sum(1 for n in usage.values() if n > level)
        assert max(profile.levels, default=0) == max(usage.values(), default=0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(STEP, max_size=14))
def test_profile_matches_a_per_cycle_count(steps):
    # holds are added and removed in any order, before and after cycle 0
    _profile_matches_a_per_cycle_count(steps, in_start_order=False)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(STEP, max_size=14))
def test_profile_matches_a_per_cycle_count_in_start_order(steps):
    # holds are added in non-decreasing start order, as the engine adds them,
    # each starting at, after or before the last cut, and removed in any order
    _profile_matches_a_per_cycle_count(steps, in_start_order=True)
