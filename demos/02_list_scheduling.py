"""Resource-constrained list scheduling on FIR-16.

Shows how the instance allocation trades area against latency: the
average-parallelism lower bound, what happens when the deadline is too
tight (the error suggests a workable constraint), and the packed schedule.
"""

from memsched import (
    Allocation,
    SchedulerConfig,
    TimeConstraintViolated,
    compute_min_allocation,
    compute_timing,
    schedule_baseline,
)
from memsched.fixtures import load_dfg, load_library

lib = load_library()
g = load_dfg("fir16", lib)
critical = compute_timing(g, 1000).critical_path_cycles
print(f"FIR-16: {len(g.operations)} operations, critical path {critical} cycles")

print("\nminimum allocation per deadline (ceil of work / deadline):")
for T in (critical, 20, 24, 34, 64):
    alloc = compute_min_allocation(g, T)
    print(f"  T={T:<3} -> {dict(alloc.counts)}")

T = critical
alloc = compute_min_allocation(g, T)
timing = compute_timing(g, T)
print(f"\ntrying T={T} with the minimum allocation {dict(alloc.counts)} ...")
try:
    schedule_baseline(g, alloc, SchedulerConfig(T), timing)
except TimeConstraintViolated as err:
    print(f"  rejected: {err.message}")
    print("  (the lower bound ignores dependency shape; the engine runs once, and "
          "the error suggests the smallest of 2T, 4T and 8T that the makespan fits)")

T = 24
alloc = compute_min_allocation(g, T)
timing = compute_timing(g, T)
s = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
print(f"\nT={T}, allocation {dict(alloc.counts)}: makespan {s.makespan_cycles}")

by_instance: dict[tuple[str, int], list[str]] = {}
for e in s.sorted_entries():
    by_instance.setdefault((e.class_name, e.instance_index), []).append(
        f"{e.op_id}@{e.start_cycle}"
    )
for (cls, idx), ops in sorted(by_instance.items()):
    print(f"  {cls}[{idx}]: {' '.join(ops)}")

richer = Allocation({"mul": 4, "alu": 2})
s4 = schedule_baseline(g, richer, SchedulerConfig(T), timing)
print(f"\nwith {dict(richer.counts)}: makespan {s4.makespan_cycles} "
      "(more area, faster finish; the serial adder chain caps the gain)")
