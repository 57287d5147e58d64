"""How good is the greedy list scheduler? Ask the exact search.

For small graphs a branch-and-bound over start cycles finds the true
minimal makespan under the same timing rules. On chains and
generously-allocated graphs the greedy scheduler is exactly optimal; under
port contention its first-fit choices can cost a few cycles, and the
oracle quantifies the gap.
"""

import random

from memsched import (
    Allocation,
    Dfg,
    MemoryBank,
    MemoryMapping,
    Operation,
    OperatorClass,
    OperatorLibrary,
    SchedulerConfig,
    bruteforce_optimal_makespan,
    compute_min_allocation,
    compute_timing,
    scalar,
    schedule_memory_aware,
)

ALU = OperatorClass("alu", frozenset({"add", "sub"}), 1, 2.0)
LIB = OperatorLibrary([ALU])

print("== contention micro-case ==")
ops = [
    Operation("r1", "add", (scalar("a"), scalar("x")), scalar("u")),
    Operation("r2", "add", (scalar("b"), scalar("y")), scalar("v")),
]
g = Dfg.build(ops, LIB)
mapping = MemoryMapping(
    [MemoryBank("M0", 1, 1, 1, 0)], {"a": "M0", "b": "M0"}, default_register=True
)
alloc = Allocation({"alu": 2})
timing = compute_timing(g, 4)
s = schedule_memory_aware(g, alloc, mapping, SchedulerConfig(4), timing)
best, witness = bruteforce_optimal_makespan(g, alloc, mapping, 4)
print(f"greedy makespan {s.makespan_cycles}, exact optimum {best}: "
      "serializing the two fetches is provably unavoidable")
print("optimal witness:",
      {e.op_id: e.start_cycle for e in witness.sorted_entries()})

print("\n== hunting for greedy gaps on random small instances ==")
rng = random.Random(1)
checked = gaps = 0
worst = None
while checked < 60:
    n_ops = rng.randint(4, 7)
    ops = []
    results = []
    for i in range(n_ops):
        pool = [scalar(f"in{j}") for j in range(4)] + results[-4:]
        operands = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        result = scalar(f"d{i}")
        ops.append(Operation(f"op{i}", "add", operands, result))
        results.append(result)
    g = Dfg.build(ops, LIB)
    banks = [MemoryBank("B0", rng.randint(1, 2), rng.randint(1, 2), 1, 0)]
    place = {
        name: "B0"
        for name in sorted(r.name for r in g.data_items())
        if rng.random() < 0.5
    }
    mapping = MemoryMapping(banks, place, default_register=True)
    from memsched import validate_mapping

    if validate_mapping(mapping, g):
        continue
    T = 4 * n_ops + 8
    alloc = compute_min_allocation(g, T)
    timing = compute_timing(g, T)
    s = schedule_memory_aware(
        g, alloc, mapping, SchedulerConfig(T), timing
    )
    best, _ = bruteforce_optimal_makespan(g, alloc, mapping, s.makespan_cycles)
    checked += 1
    if best < s.makespan_cycles:
        gaps += 1
        if worst is None or s.makespan_cycles - best > worst[0]:
            worst = (s.makespan_cycles - best, s.makespan_cycles, best, g, mapping)

print(f"checked {checked} feasible instances: greedy optimal on "
      f"{checked - gaps}, beaten on {gaps}")
if worst:
    gap, got, opt, g, mapping = worst
    print(f"largest gap: greedy {got} vs optimal {opt} (+{gap} cycles)")
    print("  the greedy scanner commits the first port-free operation per "
          "cycle; the exact search may hold a port back for a later, more "
          "constrained fetch")
