"""Command-line front end: validate inputs, run one scheduling policy with
full reports, or compare both policies on identical inputs.

Exit codes: 0 success, 1 semantic or constraint failure (diagnostics on
stderr as ``ERROR <code>: ...``), 2 I/O or document-syntax failure. All
written files are deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# validate_dfg is imported for bench/tracing.py, which wraps cli.validate_dfg
from .dfg import Dfg, parse_dfg, parse_library, validate_dfg
from .errors import FormatError, SchedulingError, TooLarge
from .memmap import (
    AccessModel,
    MemoryMapping,
    TimingAnalysis,
    all_registers,
    compute_timing,
    parse_mapping,
    round_robin_mapping,
    validate_mapping,
)
from .metrics import (
    REDUCTION_RANGE,
    analyze,
    check_reduction,
    compare,
    comparison_to_json,
    export_csv,
    export_gantt,
    metrics_to_json,
)
from .scheduler import (
    Allocation,
    SchedulerConfig,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    schedule_baseline,
    schedule_memory_aware,
)


_DEFAULT_MAPPINGS = {
    "registers": lambda g, banks: all_registers(banks),
    "round-robin": round_robin_mapping,
}


def _read(path: str) -> str:
    """The text of the document at ``path``; bytes that are not UTF-8 are a
    document-syntax failure."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: {e}") from None


def _load_graph(args) -> Dfg:
    library = parse_library(_read(args.library))
    return parse_dfg(_read(args.dfg), library)


def _resolve_mapping(args, g: Dfg) -> MemoryMapping | None:
    """Mapping from file, from the default-mapping generator, or None.

    ``--default-mapping`` replaces any placement the file carries; the
    round-robin generator still takes its banks from the file.
    """
    file_mapping = None
    if args.mapping is not None:
        file_mapping = parse_mapping(_read(args.mapping))
    if args.default_mapping is None:
        return file_mapping
    banks = file_mapping.banks if file_mapping is not None else ()
    try:
        return _DEFAULT_MAPPINGS[args.default_mapping](g, banks)
    except ValueError as e:
        raise FormatError(str(e)) from None


def _allocation(args, g: Dfg) -> Allocation:
    alloc = compute_min_allocation(g, args.time_constraint)
    if not args.alloc:
        return alloc
    counts = dict(alloc.counts)
    for name, count in args.alloc:
        g.library.class_named(name)  # unknown class -> UnknownOpcode
        counts[name] = count
    return Allocation(counts)


def _prepare(args, g: Dfg) -> tuple[TimingAnalysis, Allocation, SchedulerConfig]:
    """Timing, allocation and scheduler settings, each derived once per
    call and in this order, so the deadline check reports first. The energy
    discount only prices the finished schedules, but it is checked here,
    before any scheduling."""
    timing = compute_timing(g, args.time_constraint)
    alloc = _allocation(args, g)
    try:
        cfg = SchedulerConfig(
            time_constraint_cycles=args.time_constraint,
            dynamic_mobility=args.dynamic_mobility,
            positional_affinity=args.positional_affinity,
            use_affinity=not args.no_affinity,
        )
        check_reduction(args.reduction)
    except ValueError as e:
        raise FormatError(str(e)) from None
    return timing, alloc, cfg


# ---------------------------------------------------------------------------
# commands

def _guard(command, args) -> int:
    """Run ``command(args)`` and map errors onto the exit-code contract: 2
    for I/O and document syntax, 1 for semantic diagnostics and constraint
    failures."""
    try:
        return command(args)
    except FormatError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SchedulingError as e:
        print(f"ERROR {e.code}: {e.message}", file=sys.stderr)
        return 1


def _validate(args) -> int:
    """Exit 0 iff the graph (and mapping, when given) is clean."""
    g = _load_graph(args)  # parse_dfg raises the graph's first finding
    mapping = _resolve_mapping(args, g)
    diagnostics = validate_mapping(mapping, g) if mapping is not None else []
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    return 1 if diagnostics else 0


def _schedule(args) -> int:
    """Run one policy and write schedule.json, metrics.json, gantt.svg and
    schedule.csv into the output directory."""
    mem_aware = args.policy == "mem-aware"
    g = _load_graph(args)
    mapping = _resolve_mapping(args, g)
    if mem_aware and mapping is None:
        raise FormatError("policy mem-aware needs --mapping or --default-mapping")
    timing, alloc, sched_cfg = _prepare(args, g)
    if mem_aware:
        schedule = schedule_memory_aware(g, alloc, mapping, sched_cfg, timing)
        model = schedule.model
    else:
        schedule = schedule_baseline(g, alloc, sched_cfg, timing)
        # replay the memory-blind schedule on the mapping's banks
        model = AccessModel(g, mapping) if mapping is not None else None
    m = analyze(schedule, g, model, reduction=args.reduction,
                per_shared_input=args.per_shared_input_energy)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schedule.json").write_text(schedule.to_json(), encoding="utf-8")
    (out / "metrics.json").write_text(metrics_to_json(m), encoding="utf-8")
    (out / "gantt.svg").write_text(export_gantt(schedule), encoding="utf-8")
    (out / "schedule.csv").write_text(export_csv(schedule), encoding="utf-8")
    print(
        f"{schedule.policy.value}: makespan {schedule.makespan_cycles} cycles, "
        f"{m.model2_count}/{m.op_count} input-sharing ops, "
        f"datapath energy {m.datapath_energy}, conflicts {m.total_conflicts}"
    )
    return 0


def _compare(args) -> int:
    """Run both policies on identical inputs and report the trade-off.

    The memory-ignorant schedule is replayed against the memory-aware
    schedule's access model, so its would-be port conflicts are counted on
    equal terms.
    """
    g = _load_graph(args)
    mapping = _resolve_mapping(args, g)
    if mapping is None:
        raise FormatError("compare needs --mapping or --default-mapping")
    timing, alloc, sched_cfg = _prepare(args, g)
    s_base = schedule_baseline(g, alloc, sched_cfg, timing)
    s_aware = schedule_memory_aware(g, alloc, mapping, sched_cfg, timing)
    price = {"reduction": args.reduction, "per_shared_input": args.per_shared_input_energy}
    m_base = analyze(s_base, g, s_aware.model, **price)
    m_aware = analyze(s_aware, g, s_aware.model, **price)
    report = compare(m_base, m_aware)

    extra = {}
    oracle_makespan = None
    if args.oracle:
        try:
            oracle_makespan, _ = bruteforce_optimal_makespan(
                g, alloc, mapping, args.time_constraint
            )
            extra["oracle_makespan"] = oracle_makespan
        except TooLarge as e:
            print(f"note: --oracle skipped, {e.message}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.json").write_text(
        comparison_to_json(report, extra), encoding="utf-8"
    )

    rows = [
        ("makespan [cycles]", m_base.makespan_cycles, m_aware.makespan_cycles),
        ("input-sharing ops", m_base.model2_count, m_aware.model2_count),
        ("datapath energy", m_base.datapath_energy, m_aware.datapath_energy),
        ("memory energy", m_base.memory_energy, m_aware.memory_energy),
        ("port conflicts", m_base.total_conflicts, m_aware.total_conflicts),
    ]
    header = f"{'metric':<20} {'baseline':>12} {'mem-aware':>12}"
    if oracle_makespan is not None:
        header += f" {'optimal':>10}"
    print(header)
    print("-" * len(header))
    for i, (label, left, right) in enumerate(rows):
        line = f"{label:<20} {left:>12} {right:>12}"
        if oracle_makespan is not None:
            line += f" {oracle_makespan:>10}" if i == 0 else f" {'':>10}"
        print(line)
    print(report.verdict)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _digits(text: str, error: str) -> int:
    """``text`` as an integer when it is ASCII digits only, otherwise an
    ArgumentTypeError with ``error``: int() alone also reads "1_0", " 7" and
    other scripts' digits, and str.isdigit admits digits such as "²"."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(error)
    return int(text)


def _parse_alloc(value: str) -> tuple[str, int]:
    name, sep, count = value.partition("=")
    error = f"--alloc expects class=count with count >= 1, got {value!r}"
    if not sep or not name or _digits(count, error) < 1:
        raise argparse.ArgumentTypeError(error)
    return name, int(count)


def _add_arguments(p: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """Declare ``command``'s arguments on ``p``, in help order."""
    p.add_argument("--dfg", required=True, help="data-flow graph document")
    p.add_argument("--library", required=True, help="operator library document")
    p.add_argument("--mapping", help="memory mapping document")
    p.add_argument(
        "--default-mapping",
        choices=list(_DEFAULT_MAPPINGS),
        help="generate the placement instead of taking it from --mapping",
    )
    if command == "validate":
        return p
    p.add_argument("--T", required=True, dest="time_constraint",
                   type=lambda v: _digits(v, f"expected a cycle count, got {v!r}"),
                   help="real-time constraint in cycles")
    p.add_argument("--reduction", type=float, default=0.25,
                   help="energy discount for input-sharing ops "
                        "({:.2f}..{:.2f})".format(*REDUCTION_RANGE))
    p.add_argument("--alloc", type=_parse_alloc, action="append", default=[],
                   metavar="CLASS=COUNT",
                   help="override the instance count of one class (repeatable)")
    p.add_argument("--dynamic-mobility", action="store_true",
                   help="re-evaluate slack against the current cycle")
    p.add_argument("--positional-affinity", action="store_true",
                   help="count shared inputs per operand position")
    p.add_argument("--no-affinity", action="store_true",
                   help="disable input-sharing priority and binding")
    p.add_argument("--per-shared-input-energy", action="store_true",
                   help="scale the energy discount by the shared-input fraction")
    p.add_argument("--out", default=".", help="output directory")
    if command == "schedule":
        p.add_argument("--policy", choices=["baseline", "mem-aware"], default="baseline")
    else:
        p.add_argument("--oracle", action="store_true",
                       help="add the exact optimal makespan (small graphs only)")
    return p


_COMMANDS = {"validate": _validate, "schedule": _schedule, "compare": _compare}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsched",
        description="Schedule DSP data-flow graphs under memory-mapping constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("validate", "check the input documents"),
                       ("schedule", "run one policy and write reports"),
                       ("compare", "run both policies and compare")):
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) names, parsed by
    that command's parser alone. When ``argv`` does not start with a command,
    or an argument is left over, the whole parser parses it and reports."""
    argv = sys.argv[1:] if argv is None else argv
    rest = None
    if argv and argv[0] in _COMMANDS:
        parser = _add_arguments(argparse.ArgumentParser(prog=f"memsched {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if rest is None or rest:
        args = build_parser().parse_args(argv)
    return _guard(_COMMANDS[args.command], args)


if __name__ == "__main__":
    raise SystemExit(main())
