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
    InputDecl,
    Operation,
    OperatorClass,
    OperatorLibrary,
    TimingAnalysis,
    compute_timing,
    elem,
    parse_dfg,
    parse_library,
    scalar,
    serialize_dfg,
    topological_order,
    validate_dfg,
)
from .errors import (
    CapacityExceeded,
    ClassMismatch,
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
    MappingPolicy,
    MemoryBank,
    MemoryMapping,
    all_registers,
    generate_default_mapping,
    memory_read_refs,
    parse_mapping,
    serialize_mapping,
    validate_mapping,
)
from .metrics import (
    BankStats,
    ComparisonReport,
    ScheduleMetrics,
    analyze,
    compare,
    export_csv,
    export_gantt,
    format_schedule_csv,
    metrics_to_json,
    parse_schedule_csv,
)
from .scheduler import (
    Allocation,
    OperatorInstanceState,
    Policy,
    PortBooking,
    PortLedger,
    Schedule,
    ScheduleEntry,
    SchedulerConfig,
    ample_allocation,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    model2_affinity,
    schedule_baseline,
    schedule_memory_aware,
)

__version__ = "0.1.0"
