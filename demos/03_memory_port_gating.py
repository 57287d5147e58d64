"""Scheduling against a memory mapping: bank ports as bookable resources.

A schedule built without memory knowledge piles simultaneous fetches onto
the same single-ported bank; replaying it against the mapping counts those
collisions. The memory-aware policy starts an operation only when each bank
it fetches from or stores to has a port to spare in every cycle of the
window, so its schedules are conflict-free by construction. Writes Gantt charts for both policies to demos/out/.
"""

from pathlib import Path

from memsched import (
    Allocation,
    SchedulerConfig,
    analyze,
    compute_min_allocation,
    compute_timing,
    export_csv,
    export_gantt,
    schedule_baseline,
    schedule_memory_aware,
)
from memsched.fixtures import load_dfg, load_library, load_mapping

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
lib = load_library()

print("== minimal contention case: two adds, one single-ported bank ==")
g = load_dfg("two_adds_one_bank", lib)
mapping = load_mapping("two_adds_one_bank")
alloc = Allocation({"alu": 2})
T = 4
timing = compute_timing(g, T)

base = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
aware = schedule_memory_aware(
    g, alloc, mapping, SchedulerConfig(T), timing
)
print("memory-blind starts:", {e.op_id: e.start_cycle for e in base.sorted_entries()},
      "- both fetch 'a' and 'b' from M0 in the same cycle")
print("memory-aware starts:", {e.op_id: e.start_cycle for e in aware.sorted_entries()},
      "- the second fetch waits for the port")
for e in aware.sorted_entries():
    for b in e.read_bookings:
        print(f"  {e.op_id} holds {b.bank_id}.p{b.port_index} during "
              f"[{b.start},{b.end})")

m_base = analyze(base, g, aware.model)
m_aware = analyze(aware, g, aware.model)
print(f"replayed conflicts: memory-blind {m_base.total_conflicts}, "
      f"memory-aware {m_aware.total_conflicts}")

print("\n== FIR-16 with samples on M0 and coefficients on M1 ==")
g = load_dfg("fir16", lib)
mapping = load_mapping("fir16")
T = 24
alloc = compute_min_allocation(g, T)
timing = compute_timing(g, T)
base = schedule_baseline(g, alloc, SchedulerConfig(T), timing)
aware = schedule_memory_aware(
    g, alloc, mapping, SchedulerConfig(T), timing
)
m_base = analyze(base, g, aware.model)
m_aware = analyze(aware, g, aware.model)

print(f"{'':>24} {'memory-blind':>14} {'memory-aware':>14}")
print(f"{'makespan [cycles]':>24} {base.makespan_cycles:>14} {aware.makespan_cycles:>14}")
print(f"{'port conflict cycles':>24} {m_base.total_conflicts:>14} {m_aware.total_conflicts:>14}")
for bank_id in sorted(m_base.per_bank):
    blind = m_base.per_bank[bank_id]
    ok = m_aware.per_bank[bank_id]
    print(f"{'peak requests on ' + bank_id:>24} {blind.peak_simultaneous_requests:>14} "
          f"{ok.peak_simultaneous_requests:>14}")

print("\nThe mapping costs one cycle of makespan here and removes every "
      "port collision; that is the trade the scheduler makes explicit.")

(out / "fir16_blind.svg").write_text(export_gantt(base), encoding="utf-8")
(out / "fir16_aware.svg").write_text(export_gantt(aware), encoding="utf-8")
(out / "fir16_aware.csv").write_text(export_csv(aware), encoding="utf-8")
print(f"wrote {out}/fir16_blind.svg, fir16_aware.svg, fir16_aware.csv")
