"""Error types and diagnostics shared by the whole package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class SchedulingError(Exception):
    """Base class for every error this package raises deliberately.

    Each subclass carries a stable ``code`` string used by the CLI for
    machine-parseable diagnostics (``ERROR <code>: ...``).
    """

    code: str = "Error"

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details


class FormatError(SchedulingError):
    """Malformed input document: invalid JSON, unknown keys, bad structure."""

    code = "SyntaxError"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where, line=line, column=column)
        self.line = line
        self.column = column


class UnknownOpcode(SchedulingError):
    code = "UnknownOpcode"


class UndefinedData(SchedulingError):
    code = "UndefinedData"


class DuplicateWriter(SchedulingError):
    code = "DuplicateWriter"


class DuplicateOpcode(SchedulingError):
    code = "DuplicateOpcode"


class CycleDetected(SchedulingError):
    code = "CycleDetected"

    def __init__(self, cycle: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(cycle), cycle=list(cycle))
        self.cycle = list(cycle)


class InfeasibleConstraint(SchedulingError):
    code = "InfeasibleConstraint"

    def __init__(self, critical_path_cycles: int, time_constraint_cycles: int):
        super().__init__(
            f"critical path needs {critical_path_cycles} cycles but the time "
            f"constraint is {time_constraint_cycles}",
            critical_path_cycles=critical_path_cycles,
            time_constraint_cycles=time_constraint_cycles,
        )
        self.critical_path_cycles = critical_path_cycles
        self.time_constraint_cycles = time_constraint_cycles


class UnknownBank(SchedulingError):
    code = "UnknownBank"


class CapacityExceeded(SchedulingError):
    code = "CapacityExceeded"


class UnmappedData(SchedulingError):
    code = "UnmappedData"


class TimeConstraintViolated(SchedulingError):
    """Some operations could not be placed before the deadline.

    ``suggested_time_constraint`` is the smallest power-of-two multiple of the
    requested constraint (up to 8x) at which scheduling succeeds, or ``None``
    when even 8x was not enough. The schedule itself is never silently
    relaxed.
    """

    code = "TimeConstraintViolated"

    def __init__(
        self,
        unscheduled: list[str],
        time_constraint_cycles: int,
        suggested_time_constraint: int | None,
    ):
        hint = (
            f"; smallest feasible scaled constraint: {suggested_time_constraint} cycles"
            if suggested_time_constraint is not None
            else "; no feasible constraint found up to 8x"
        )
        super().__init__(
            f"{len(unscheduled)} operation(s) unscheduled at the {time_constraint_cycles}"
            f"-cycle deadline: {', '.join(unscheduled)}" + hint,
            unscheduled=list(unscheduled),
            time_constraint_cycles=time_constraint_cycles,
            suggested_time_constraint=suggested_time_constraint,
        )
        self.unscheduled = list(unscheduled)
        self.time_constraint_cycles = time_constraint_cycles
        self.suggested_time_constraint = suggested_time_constraint


class MappingInfeasible(SchedulingError):
    code = "MappingInfeasible"


class InconsistentSchedule(SchedulingError):
    code = "InconsistentSchedule"


class MismatchedInputs(SchedulingError):
    code = "MismatchedInputs"


class Infeasible(SchedulingError):
    code = "Infeasible"


class TooLarge(SchedulingError):
    code = "TooLarge"


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding.

    ``payload`` is the identifier part of the rendered message, e.g. the data
    name for an ``UnmappedData`` finding. ``details`` holds structured fields
    (op id, bank id, counts) for programmatic consumers and is excluded from
    equality.
    """

    code: str
    payload: str
    details: dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        return f"ERROR {self.code}: {self.payload}"
