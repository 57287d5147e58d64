"""Graph IR: parsing, validation, ordering and timing analysis."""

import json
import pickle

import pytest
from hypothesis import given, strategies as st

from memsched import (
    CycleDetected,
    DataRef,
    Dfg,
    Diagnostic,
    DuplicateOpcode,
    DuplicateWriter,
    FormatError,
    InfeasibleConstraint,
    Operation,
    OperatorClass,
    OperatorLibrary,
    UndefinedData,
    UnknownOpcode,
    compute_timing,
    elem,
    parse_dfg,
    parse_library,
    scalar,
    topological_order,
    validate_dfg,
)
from memsched.fixtures import load_dfg
from oracles import enumerate_timing

LIB = OperatorLibrary(
    [
        OperatorClass("mul", frozenset({"mul"}), 2, 8.0),
        OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0),
    ]
)

UNIT = OperatorLibrary([OperatorClass("u", frozenset({"f"}), 1)])


def doc(inputs, outputs, ops):
    return json.dumps({"inputs": inputs, "outputs": outputs, "ops": ops})


def chain(library, n, opcode="f"):
    ops = [Operation("n0", opcode, (scalar("in0"),), scalar("d0"))]
    for i in range(1, n):
        ops.append(Operation(f"n{i}", opcode, (scalar(f"d{i-1}"),), scalar(f"d{i}")))
    return Dfg.build(ops, library)


# -- data items -------------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", [
    ({"name": ""}, "data item name must be non-empty"),
    ({"name": "x[3]", "array": "x"}, "array element 'x[3]' needs a non-negative index"),
    ({"name": "x[-1]", "array": "x", "index": -1},
     "array element 'x[-1]' needs a non-negative index"),
    ({"name": "x", "width_bits": 0}, "width_bits must be positive, got 0"),
])
def test_data_ref_rejects_malformed_items(kwargs, message):
    with pytest.raises(ValueError) as err:
        DataRef(**kwargs)
    assert str(err.value) == message


def test_data_refs_are_values():
    a, b = elem("x", 3), elem("x", 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert scalar("x", 8) != scalar("x")
    assert a == ("x[3]", "x", 3, 16)  # a named tuple of its four fields
    assert repr(elem("x", 3)) == "DataRef(name='x[3]', array='x', index=3, width_bits=16)"


# -- parsing ----------------------------------------------------------------

def test_parse_two_op_document():
    text = doc(
        [{"name": "x0"}, {"name": "h0"}, {"name": "acc0"}],
        ["y0"],
        [
            {"id": "m1", "opcode": "mul", "args": ["x0", "h0"], "result": "p0"},
            {"id": "a1", "opcode": "add", "args": ["p0", "acc0"], "result": "y0"},
        ],
    )
    g = parse_dfg(text, LIB)
    assert [op.id for op in g.operations] == ["m1", "a1"]
    assert {r.name for r in g.primary_inputs} == {"x0", "h0", "acc0"}
    assert {r.name for r in g.primary_outputs} == {"y0"}
    assert g.producer_of(scalar("p0")) == "m1"
    assert validate_dfg(g) == []


def test_parse_undefined_operand_is_not_unknown_opcode():
    text = doc(
        [{"name": "u"}],
        [],
        [{"id": "a", "opcode": "add", "args": ["u", "q"], "result": "w"}],
    )
    with pytest.raises(UndefinedData) as err:
        parse_dfg(text, LIB)
    assert "q" in str(err.value)


def test_parse_two_cycle():
    text = doc(
        [{"name": "v"}, {"name": "t"}],
        [],
        [
            {"id": "a", "opcode": "add", "args": ["u", "v"], "result": "w"},
            {"id": "b", "opcode": "add", "args": ["w", "t"], "result": "u"},
        ],
    )
    with pytest.raises(CycleDetected) as err:
        parse_dfg(text, LIB)
    assert set(err.value.cycle) == {"a", "b"}


def test_parse_unknown_opcode():
    text = doc([{"name": "u"}], [], [{"id": "a", "opcode": "xor", "args": ["u"], "result": "w"}])
    with pytest.raises(UnknownOpcode):
        parse_dfg(text, LIB)


def test_parse_duplicate_writer():
    text = doc(
        [{"name": "u"}],
        [],
        [
            {"id": "a", "opcode": "add", "args": ["u"], "result": "w"},
            {"id": "b", "opcode": "add", "args": ["u"], "result": "w"},
        ],
    )
    with pytest.raises(DuplicateWriter):
        parse_dfg(text, LIB)


def test_parse_writing_declared_input_is_duplicate_writer():
    text = doc(
        [{"name": "u"}, {"name": "v"}],
        [],
        [{"id": "a", "opcode": "add", "args": ["v"], "result": "u"}],
    )
    with pytest.raises(DuplicateWriter):
        parse_dfg(text, LIB)


def test_parse_rejects_unknown_keys_and_bad_json():
    with pytest.raises(FormatError):
        parse_dfg('{"inputs": [], "outputs": [], "ops": [], "extra": 1}', LIB)
    with pytest.raises(FormatError) as err:
        parse_dfg('{"inputs": [', LIB)
    assert err.value.line is not None


def test_parse_array_elements():
    text = doc(
        [{"name": "x", "shape": [2, 2], "width_bits": 12}],
        ["y"],
        [
            {"id": "a", "opcode": "add", "args": ["x[0]", "x[3]"], "result": "y"},
        ],
    )
    g = parse_dfg(text, LIB)
    assert len(g.primary_inputs) == 4  # flattened 2x2
    (op,) = g.operations
    assert op.operands[0] == elem("x", 0, 12)

    with pytest.raises(UndefinedData):  # flat index out of range
        parse_dfg(text.replace("x[3]", "x[4]"), LIB)
    with pytest.raises(UndefinedData):  # array used without an index
        parse_dfg(text.replace('"x[3]"', '"x"'), LIB)


def test_parse_self_dep_and_unknown_dep():
    base = [{"id": "a", "opcode": "add", "args": ["u"], "result": "w", "deps": ["a"]}]
    with pytest.raises(CycleDetected):
        parse_dfg(doc([{"name": "u"}], [], base), LIB)
    base[0]["deps"] = ["nope"]
    with pytest.raises(FormatError):
        parse_dfg(doc([{"name": "u"}], [], base), LIB)
    # reading its own result is a self-dep too, reported the same way
    reads_itself = [{"id": "a", "opcode": "add", "args": ["x", "w"], "result": "w"}]
    g = Dfg.build([Operation("a", "add", (scalar("x"), scalar("w")), scalar("w"))], LIB)
    [finding] = validate_dfg(g)
    assert finding == Diagnostic("CycleDetected", "a") and finding.details == {"self_dep": True}
    with pytest.raises(CycleDetected):
        parse_dfg(doc([{"name": "x"}], ["w"], reads_itself), LIB)


def test_parse_output_must_be_produced():
    text = doc([{"name": "u"}], ["u"], [{"id": "a", "opcode": "add", "args": ["u"], "result": "w"}])
    with pytest.raises(UndefinedData):
        parse_dfg(text, LIB)


def test_library_rejects_duplicate_opcode():
    with pytest.raises(DuplicateOpcode):
        OperatorLibrary(
            [
                OperatorClass("a", frozenset({"add"}), 1),
                OperatorClass("b", frozenset({"add"}), 2),
            ]
        )
    with pytest.raises(DuplicateOpcode):
        parse_library(
            json.dumps(
                {
                    "classes": [
                        {"name": "a", "opcodes": ["add"], "latency": 1},
                        {"name": "b", "opcodes": ["add"], "latency": 2},
                    ]
                }
            )
        )


def test_parse_builds_the_declared_graph():
    # DataRef equality includes width_bits, so whole Operation tuples check
    # that every token gets its declaration's width.
    text = doc(
        [{"name": "x", "shape": [4], "width_bits": 12}, {"name": "h", "shape": [4]},
         {"name": "c"}],
        ["y"],
        [
            {"id": "m0", "opcode": "mul", "args": ["x[0]", "h[0]"], "result": "p0"},
            {"id": "m1", "opcode": "mul", "args": ["x[1]", "h[1]"], "result": "p1"},
            {"id": "a1", "opcode": "add", "args": ["p0", "p1"], "result": "s1", "deps": ["m0"]},
            {"id": "a2", "opcode": "add", "args": ["s1", "c"], "result": "y"},
        ],
    )
    g = parse_dfg(text, LIB)
    x = [elem("x", i, 12) for i in range(4)]
    h = [elem("h", i) for i in range(4)]
    c, p0, p1, s1, y = map(scalar, ("c", "p0", "p1", "s1", "y"))
    assert g.operations == (
        Operation("m0", "mul", (x[0], h[0]), p0),
        Operation("m1", "mul", (x[1], h[1]), p1),
        Operation("a1", "add", (p0, p1), s1, frozenset({"m0"})),
        Operation("a2", "add", (s1, c), y),
    )
    assert g.primary_inputs == {*x, *h, c}
    assert g.primary_outputs == {y}


def test_parse_builds_each_item_once():
    g = load_dfg("fir16")
    inputs = {ref: ref for ref in g.primary_inputs}
    for op in g.operations:
        for ref in op.operands:
            producer = g.producer_of(ref)
            source = g.operation(producer).result if producer else inputs[ref]
            assert ref is source
    for ref in g.primary_outputs:
        assert ref is g.operation(g.producer_of(ref)).result


# a faulty second op -> the error parse_dfg reports; where an entry has two
# faults, the first one listed is reported
OP_SYNTAX = {
    "not an object": (["b", "add"], "ops[1] must be an object"),
    "missing key": ({"id": "b", "opcode": "add", "args": ["u"]},
                    "ops[1] is missing key(s): result"),
    "unknown key": ({"id": "b", "opcode": "add", "args": ["u"], "result": "w", "x": 1},
                    "ops[1] has unknown key(s): x"),
    "missing and unknown": ({"id": "b", "args": ["u"], "result": "w", "x": 1},
                            "ops[1] is missing key(s): opcode"),
    "id not a string": ({"id": 3, "opcode": "add", "args": ["u"], "result": "w"},
                        "ops[1].id must be of type str"),
    "id not an identifier, opcode not a string": (
        {"id": "3b", "opcode": None, "args": ["u"], "result": "w"},
        "ops[1]: '3b' is not a valid identifier"),
    "opcode not a string, no args": ({"id": "b", "opcode": None, "args": [], "result": "w"},
                                     "ops[1].opcode must be of type str"),
    "args not a list": ({"id": "b", "opcode": "add", "args": "u", "result": "w"},
                        "ops[1].args must be of type list"),
    "no args, result not a string": ({"id": "b", "opcode": "add", "args": [], "result": 1},
                                     "ops[1].args must be a non-empty list of names"),
    "arg not a string": ({"id": "b", "opcode": "add", "args": ["u", 1], "result": "w"},
                         "ops[1].args must be a non-empty list of names"),
    "result not a string, deps not a list": (
        {"id": "b", "opcode": "add", "args": ["u"], "result": 1, "deps": "a"},
        "ops[1].result must be of type str"),
    "bad result token, deps not a list": (
        {"id": "b", "opcode": "add", "args": ["u"], "result": "w[x]", "deps": "a"},
        "bad data reference 'w[x]'"),
    "deps not a list, bad arg token": (
        {"id": "b", "opcode": "add", "args": ["u[01]"], "result": "w", "deps": "a"},
        "ops[1].deps must be a list of op ids"),
    "dep not a string": ({"id": "b", "opcode": "add", "args": ["u"], "result": "w", "deps": [1]},
                         "ops[1].deps must be a list of op ids"),
    "bad arg token": ({"id": "b", "opcode": "add", "args": ["u", "v[01]"], "result": "w"},
                      "bad data reference 'v[01]'"),
}


@pytest.mark.parametrize("case", list(OP_SYNTAX))
def test_op_syntax_errors_name_the_entry_and_the_first_fault(case):
    entry, message = OP_SYNTAX[case]
    first = {"id": "a", "opcode": "add", "args": ["u"], "result": "v"}
    with pytest.raises(FormatError) as err:
        parse_dfg(doc([{"name": "u"}], [], [first, entry]), LIB)
    assert err.value.message == message


def test_a_graph_keeps_its_order_and_cycle_through_pickle():
    g = load_dfg("fir16")
    again = pickle.loads(pickle.dumps(g))
    assert topological_order(again) == topological_order(g)
    assert again.operations == g.operations
    cycle = Dfg.build(
        [
            Operation("b", "f", (scalar("u"),), scalar("w")),
            Operation("a", "f", (scalar("w"),), scalar("u")),
        ],
        UNIT,
    )
    for graph in (cycle, pickle.loads(pickle.dumps(cycle))):
        with pytest.raises(CycleDetected) as err:
            topological_order(graph)
        assert err.value.cycle == ["a", "b"]
    assert validate_dfg(cycle)[-1].details["cycle"] == ["a", "b"]


# -- validate_dfg on programmatic graphs -------------------------------------

def test_validate_clean_chain():
    assert validate_dfg(chain(UNIT, 2)) == []


def test_validate_orphan_operand():
    g = Dfg([Operation("a", "f", (scalar("ghost"),), scalar("w"))], UNIT, [], [])
    codes = [d.code for d in validate_dfg(g)]
    assert codes == ["UndefinedData"]


def test_validate_duplicate_writer():
    ops = [
        Operation("a", "f", (scalar("u"),), scalar("w")),
        Operation("b", "f", (scalar("u"),), scalar("w")),
    ]
    g = Dfg(ops, UNIT, [scalar("u")], [])
    codes = [d.code for d in validate_dfg(g)]
    assert codes == ["DuplicateWriter"]


def test_validate_writes_into_declared_inputs():
    # the declared names are the arrays and scalars of the primary inputs
    inputs = [elem("x", 0), elem("x", 1), scalar("s")]
    for target in (elem("x", 5), elem("s", 0)):
        g = Dfg([Operation("a", "f", (elem("x", 0),), target)], UNIT, inputs, [])
        (finding,) = validate_dfg(g)
        assert (finding.code, finding.payload, finding.details["ops"]) == (
            "DuplicateWriter", target.name, ["a"]
        )


def test_validate_unknown_opcode_diagnostic():
    g = Dfg([Operation("a", "nope", (scalar("u"),), scalar("w"))], UNIT, [scalar("u")], [])
    assert [d.code for d in validate_dfg(g)] == ["UnknownOpcode"]


# -- topological order --------------------------------------------------------

def test_topo_chain_and_tiebreak():
    assert topological_order(chain(UNIT, 3)) == ["n0", "n1", "n2"]
    g = Dfg.build(
        [
            Operation("z", "f", (scalar("i"),), scalar("rz")),
            Operation("a", "f", (scalar("i"),), scalar("ra")),
        ],
        UNIT,
    )
    assert topological_order(g) == ["a", "z"]


def test_topo_diamond():
    ops = [
        Operation("a", "f", (scalar("i"),), scalar("ra")),
        Operation("b", "f", (scalar("ra"),), scalar("rb")),
        Operation("c", "f", (scalar("ra"),), scalar("rc")),
        Operation("d", "f", (scalar("rb"), scalar("rc")), scalar("rd")),
    ]
    g = Dfg.build(ops, UNIT)
    assert topological_order(g) == ["a", "b", "c", "d"]


def test_topo_is_deterministic_permutation():
    g = chain(UNIT, 5)
    first = topological_order(g)
    assert sorted(first) == sorted(op.id for op in g.operations)
    for _ in range(3):
        assert topological_order(g) == first


# -- timing -------------------------------------------------------------------

def diamond(latency=1):
    lib = OperatorLibrary([OperatorClass("u", frozenset({"f"}), latency)])
    ops = [
        Operation("a", "f", (scalar("i"),), scalar("ra")),
        Operation("b", "f", (scalar("ra"),), scalar("rb")),
        Operation("c", "f", (scalar("ra"),), scalar("rc")),
        Operation("d", "f", (scalar("rb"), scalar("rc")), scalar("rd")),
    ]
    return Dfg.build(ops, lib), lib


def test_timing_tight_chain():
    g = chain(UNIT, 3)
    t = compute_timing(g, 3)
    assert [t.asap[f"n{i}"] for i in range(3)] == [0, 1, 2]
    assert [t.alap[f"n{i}"] for i in range(3)] == [0, 1, 2]
    assert all(m == 0 for m in t.mobility.values())
    assert t.critical_path_cycles == 3


def test_timing_relaxed_chain_matches_path_enumeration():
    g = chain(UNIT, 3)
    t = compute_timing(g, 5)
    latency = {op.id: 1 for op in g.operations}
    preds = {op.id: set(g.predecessors(op.id)) for op in g.operations}
    asap, alap, critical = enumerate_timing(latency, preds, 5)
    assert dict(t.asap) == asap
    assert dict(t.alap) == alap
    assert t.critical_path_cycles == critical == 3
    # frozen from the enumeration oracle
    assert [t.mobility[f"n{i}"] for i in range(3)] == [2, 2, 2]


def test_timing_diamond_matches_path_enumeration():
    g, lib = diamond()
    latency = {op.id: 1 for op in g.operations}
    preds = {op.id: set(g.predecessors(op.id)) for op in g.operations}

    t3 = compute_timing(g, 3)
    asap, alap, _ = enumerate_timing(latency, preds, 3)
    assert dict(t3.asap) == asap and dict(t3.alap) == alap
    assert all(t3.mobility[o] == 0 for o in ("a", "b", "c", "d"))

    t4 = compute_timing(g, 4)
    asap, alap, _ = enumerate_timing(latency, preds, 4)
    assert dict(t4.asap) == asap and dict(t4.alap) == alap
    assert all(t4.mobility[o] == 1 for o in ("a", "b", "c", "d"))


def test_timing_infeasible_constraint_reports_both_numbers():
    g = chain(UNIT, 3)
    with pytest.raises(InfeasibleConstraint) as err:
        compute_timing(g, 2)
    assert err.value.critical_path_cycles == 3
    assert err.value.time_constraint_cycles == 2


def test_timing_extra_deps_carry_latency():
    lib = OperatorLibrary([OperatorClass("u", frozenset({"f"}), 3)])
    ops = [
        Operation("a", "f", (scalar("i"),), scalar("ra")),
        Operation("b", "f", (scalar("i"),), scalar("rb"), extra_deps=frozenset({"a"})),
    ]
    g = Dfg.build(ops, lib)
    t = compute_timing(g, 6)
    assert t.asap["b"] == 3


@given(st.integers(min_value=0, max_value=9))
def test_timing_deadline_shift_moves_alap_only(k):
    g = chain(UNIT, 4)
    base = compute_timing(g, 4)
    shifted = compute_timing(g, 4 + k)
    assert dict(shifted.asap) == dict(base.asap)
    assert {o: shifted.alap[o] - base.alap[o] for o in base.alap} == {
        o: k for o in base.alap
    }
    assert {o: shifted.mobility[o] - base.mobility[o] for o in base.mobility} == {
        o: k for o in base.mobility
    }


def test_timing_mobility_nonnegative_and_zero_on_critical_path():
    g, lib = diamond(latency=2)
    t = compute_timing(g, t_min := compute_timing(g, 100).critical_path_cycles)
    assert all(m >= 0 for m in t.mobility.values())
    assert min(t.mobility.values()) == 0
    assert min(t.asap.values()) == 0


def test_timing_asap_iterates_in_topological_order():
    # declared consumers first, so only the ordering rule puts producers first
    ops = [
        Operation("d", "f", (scalar("rb"), scalar("rc")), scalar("rd")),
        Operation("z", "f", (scalar("i"),), scalar("rz")),
        Operation("c", "f", (scalar("ra"),), scalar("rc")),
        Operation("b", "f", (scalar("ra"),), scalar("rb")),
        Operation("a", "f", (scalar("i"),), scalar("ra")),
    ]
    g = Dfg.build(ops, UNIT)
    assert list(compute_timing(g, 4).asap) == topological_order(g) == [
        "a", "b", "c", "d", "z"
    ]
