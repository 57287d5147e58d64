"""Records are named tuples: each equals the plain tuple of its fields,
refuses assignment, and runs its constructor's checks however it is built.
``Diagnostic`` and ``Schedule`` keep their own equality rules."""

import pytest

from memsched import (
    AccessModel,
    AccessWindow,
    Allocation,
    BankStats,
    ComparisonReport,
    Dfg,
    Diagnostic,
    MemoryBank,
    Operation,
    OperatorClass,
    OperatorLibrary,
    PortBooking,
    Schedule,
    ScheduleEntry,
    ScheduleMetrics,
    SchedulerConfig,
    TimingAnalysis,
    scalar,
)

ALU = OperatorClass("alu", frozenset({"add"}), 1)
BANK = MemoryBank("M0", 1, 2, 1)
METRICS = ScheduleMetrics(3, 1, 0, 0.0, 1.0, 2.0, {"M0": BankStats(2, 1, 0)}, 0)

RECORDS = [
    scalar("x"),
    ALU,
    Operation("a", "add", (scalar("x"),), scalar("y")),
    TimingAnalysis({"a": 0}, {"a": 0}, {"a": 0}, 1),
    Allocation({"alu": 1}),
    SchedulerConfig(4),
    BANK,
    AccessWindow(BANK, 1, -2, 0, False),
    PortBooking("M0", 0, -2, 0),
    ScheduleEntry("a", 0, 1, "alu", 0, (PortBooking("M0", 0, -2, 0),)),
    BankStats(2, 1, 0),
    METRICS,
    ComparisonReport(METRICS, METRICS, 0, 0.0, 0, "makespan: tie"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_the_tuple_of_its_fields(record):
    plain = tuple(getattr(record, name) for name in record._fields)
    assert record == plain and plain == record and not record != plain
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


# record -> (a valid one, a change its constructor rejects, the message)
CHECKED = {
    "DataRef": (scalar("x"), {"name": "", "width_bits": 0}, "data item name must be non-empty"),
    "OperatorClass": (ALU, {"latency_cycles": 0}, "latency must be >= 1"),
    "Operation": (RECORDS[2], {"operands": ()}, "needs at least one operand"),
    "MemoryBank": (BANK, {"energy_per_access": float("nan")}, "energy per access must be finite"),
    "Allocation": (Allocation({"alu": 1}), {"counts": {"alu": 0}}, "must be >= 1"),
    "SchedulerConfig": (SchedulerConfig(4), {"time_constraint_cycles": 0},
                        "time constraint must be >= 1 cycle"),
}


@pytest.mark.parametrize("name", list(CHECKED))
def test_replace_and_make_run_the_constructor_checks(name):
    record, change, message = CHECKED[name]
    kind = type(record)
    assert kind.__name__ == name
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        kind._make({**record._asdict(), **change}.values())
    # a valid rebuild keeps the type, and _make still wants every field
    assert type(record._replace()) is kind and record._replace() == record
    assert kind._make(record) == record
    with pytest.raises(TypeError, match="Expected"):
        kind._make(tuple(record)[:-1])


def test_data_ref_make_rejects_a_negative_index():
    with pytest.raises(ValueError, match="needs a non-negative index"):
        type(scalar("x"))._make(("a[-1]", "a", -1, 16))


def test_a_diagnostic_ignores_its_details():
    a = Diagnostic("UnmappedData", "u", {"op": "a1"})
    b = Diagnostic("UnmappedData", "u", {"op": "a2"})
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == ("UnmappedData", "u", {}) and ("UnmappedData", "u", None) == a
    assert a != Diagnostic("UnmappedData", "v") and a != ("UnmappedData", "u")
    assert Diagnostic("UnmappedData", "u").details == {}
    assert str(a) == "ERROR UnmappedData: u"
    with pytest.raises(AttributeError):
        a.details = {}


def test_a_schedule_ignores_its_model():
    g = Dfg.build([RECORDS[2]], OperatorLibrary([ALU]))
    entries = {"a": ScheduleEntry("a", 0, 1, "alu", 0)}
    s = Schedule(entries, SchedulerConfig(4), AccessModel(g))
    assert s == Schedule(dict(entries), SchedulerConfig(4))
    assert not s != Schedule(entries, s.config)
    assert s != Schedule(entries, SchedulerConfig(5), s.model)
    assert s != Schedule({}, s.config, s.model)
    with pytest.raises(TypeError):
        hash(s)
    s.model = None  # a schedule is mutable, but has no other attributes
    with pytest.raises(AttributeError):
        s.makespan = 1
