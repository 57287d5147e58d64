"""Parse a kernel, inspect its structure and its scheduling freedom.

Walks the FIR-4 fixture: the flattened data items, the dependency
structure, and how ASAP/ALAP start cycles and mobility react when the
real-time constraint is relaxed.
"""

from memsched import compute_timing, topological_order, validate_dfg
from memsched.fixtures import load_dfg, load_library

lib = load_library()
g = load_dfg("fir4", lib)

print("== FIR-4 ==")
print(f"operations: {len(g.operations)}, "
      f"inputs: {len(g.primary_inputs)}, outputs: {len(g.primary_outputs)}")
print("diagnostics:", validate_dfg(g) or "clean")
print("topological order:", " ".join(topological_order(g)))

for op in g.operations:
    args = ", ".join(r.name for r in op.operands)
    print(f"  {op.id}: {op.opcode}({args}) -> {op.result.name}")

critical = compute_timing(g, 1000).critical_path_cycles
print(f"\ncritical path: {critical} cycles "
      "(one multiply feeding a serial chain of three adds)")

for T in (critical, critical + 2, critical + 5):
    t = compute_timing(g, T)
    print(f"\ndeadline T = {T}")
    print(f"  {'op':<4} {'asap':>4} {'alap':>4} {'mobility':>8}")
    for op_id in topological_order(g):
        print(f"  {op_id:<4} {t.asap[op_id]:>4} {t.alap[op_id]:>4} "
              f"{t.mobility[op_id]:>8}")

print("\nMobility is the list scheduler's priority: zero-mobility operations "
      "sit on the critical path and go first; relaxing the deadline by k "
      "adds exactly k to every operation's slack.")
