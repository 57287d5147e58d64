"""Input-sharing (model-2) binding and the datapath energy estimate.

An operator whose next operation reuses one of its current input values
toggles less, so such operations are cheaper. The scheduler exploits this
twice: equal-mobility operations that share inputs with an idle instance's
previous operation are preferred, and the chosen operation is bound to the
instance it shares the most inputs with.
"""

from memsched import (
    Allocation,
    Dfg,
    Operation,
    OperatorClass,
    OperatorLibrary,
    SchedulerConfig,
    analyze,
    compute_min_allocation,
    compute_timing,
    scalar,
    schedule_baseline,
)
from memsched.fixtures import load_dfg, load_library

print("== ordering effect: three multiplies on one instance ==")
mul_lib = OperatorLibrary([OperatorClass("mul", frozenset({"mul"}), 2, 8.0)])
a, b, c, d, e = (scalar(x) for x in "abcde")
g = Dfg.build(
    [
        Operation("m0", "mul", (a, b), scalar("p0")),
        Operation("m1", "mul", (d, e), scalar("p1")),
        Operation("m2", "mul", (a, c), scalar("p2")),
    ],
    mul_lib,
)
timing = compute_timing(g, 10)

for use_affinity, label in ((True, "input-sharing priority"), (False, "id order")):
    s = schedule_baseline(
        g, Allocation({"mul": 1}), SchedulerConfig(10, use_affinity=use_affinity), timing
    )
    m = analyze(s, g)
    seq = " -> ".join(f"{x.op_id}{'*' if x.is_model2 else ''}"
                      for x in s.sorted_entries())
    print(f"  {label:<24} {seq:<22} sharing ops: {m.model2_count}, "
          f"energy {m.datapath_energy}")
print("  (*) operation reuses an input of its predecessor on that instance;"
      " m2 follows m0 only when sharing is rewarded")

s_shared = schedule_baseline(g, Allocation({"mul": 1}), SchedulerConfig(10), timing)
m_flat = analyze(s_shared, g)
m_frac = analyze(s_shared, g, per_shared_input=True)
print(f"  m2 shares 1 of its 2 inputs: flat discount gives {m_flat.datapath_energy}, "
      f"per-shared-input scaling (experimental) gives {m_frac.datapath_energy}")

print("\n== butterfly stage: sum and difference reuse both inputs ==")
lib = load_library()
g = load_dfg("fft8_stage", lib)
T = 12
alloc = compute_min_allocation(g, T)
timing = compute_timing(g, T)
s = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
m = analyze(s, g)
print(f"allocation {dict(alloc.counts)}, makespan {s.makespan_cycles}")
print(f"sharing operations: {m.model2_count}/{m.op_count} "
      f"(ratio {m.model2_ratio:.2f})")
for x in s.sorted_entries():
    if x.is_model2:
        print(f"  {x.op_id} on {x.class_name}[{x.instance_index}] shares "
              f"{x.shared_inputs} input(s) with its predecessor")

print("\n== the discount parameter is a reporting knob, not a schedule knob ==")
for reduction in (0.25, 0.375, 0.50):
    m_r = analyze(s, g, reduction=reduction)
    print(f"  reduction {reduction:<5} -> datapath energy {m_r.datapath_energy}")
shared_base = sum(
    lib.class_for(g.operation(x.op_id).opcode).base_energy
    for x in s.sorted_entries() if x.is_model2
)
print(f"  every +0.25 of reduction removes exactly 0.25 * {shared_base} energy units")
