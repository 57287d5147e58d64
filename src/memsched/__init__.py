"""Memory-aware list scheduling and low-power operator binding for DSP
data-flow graphs.

The pipeline: parse a data-flow graph and an operator library, analyze
ASAP/ALAP mobility under a real-time constraint, allocate operator
instances, then schedule either memory-blind (baseline) or gated by
memory-bank port availability, and finally measure makespan, input-sharing
ratio, energy estimates and port conflicts.
"""

from .dfg import (
    DataRef,
    Dfg,
    Operation,
    OperatorClass,
    OperatorLibrary,
    TimingAnalysis,
    compute_timing,
    elem,
    parse_dfg,
    parse_library,
    scalar,
    topological_order,
    validate_dfg,
)
from .errors import (
    CapacityExceeded,
    CycleDetected,
    Diagnostic,
    DuplicateOpcode,
    DuplicateWriter,
    FormatError,
    InconsistentSchedule,
    Infeasible,
    InfeasibleConstraint,
    MappingInfeasible,
    MismatchedInputs,
    SchedulingError,
    TimeConstraintViolated,
    TooLarge,
    UndefinedData,
    UnknownBank,
    UnknownOpcode,
    UnmappedData,
)
from .memmap import (
    REGISTER,
    AccessModel,
    AccessWindow,
    MemoryBank,
    MemoryMapping,
    all_registers,
    parse_mapping,
    round_robin_mapping,
    validate_mapping,
)
from .metrics import (
    BankStats,
    ComparisonReport,
    ScheduleMetrics,
    analyze,
    compare,
    comparison_to_json,
    export_csv,
    export_gantt,
    format_schedule_csv,
    metrics_to_json,
    parse_schedule_csv,
)
from .scheduler import (
    Allocation,
    Policy,
    PortBooking,
    Schedule,
    ScheduleEntry,
    SchedulerConfig,
    ample_allocation,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    schedule_baseline,
    schedule_memory_aware,
)

__version__ = "0.1.0"
