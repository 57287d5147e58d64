"""The benchmark workloads: which inputs each one generates from the
seed, and which CLI calls it makes on them.

Every deadline and ``--alloc`` value comes from a formula over the
generated documents (see ``generators``), never from memsched's output, and
every call states the exit code it must return.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import generators as gen

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "memsched" / "fixtures"


@dataclass
class Input:
    name: str
    dfg: dict
    mapping: dict | None
    library: dict
    deadline: int

    @property
    def n_ops(self) -> int:
        return len(self.dfg["ops"])


@dataclass
class Call:
    input: Input
    command: str  # "validate", "schedule" or "compare"
    policy: str | None = None  # "baseline" or "mem-aware" for schedule
    deadline: int | None = None  # defaults to the input's deadline
    alloc: dict[str, int] = field(default_factory=dict)  # --alloc overrides
    oracle: bool = False
    expect_exit: int = 0

    def __post_init__(self):
        if self.deadline is None:
            self.deadline = self.input.deadline

    @property
    def key(self) -> str:
        """Names the call's output directory; unique within a workload."""
        parts = [self.input.name, self.command, self.policy or "", str(self.deadline)]
        return "-".join(p for p in parts if p)

    def allocation(self) -> dict[str, int]:
        """The instance counts memsched schedules with, derived independently."""
        alloc = gen.min_allocation(self.input.dfg, self.input.library, self.deadline)
        alloc.update(self.alloc)
        return alloc


@dataclass
class Workload:
    name: str
    build: object  # (rng, tiny) -> list[Call]
    call_limit_s: int  # per-call time limit, enforced with signal.alarm


def fixture(kernel: str, deadline: int | None = None) -> Input:
    load = lambda name: json.loads((FIXTURES / name).read_text("utf-8"))
    dfg, mapping = load(f"{kernel}.dfg.json"), load(f"{kernel}.map.json")
    library = load("dsp.lib.json")
    if deadline is None:
        deadline = gen.serialized_deadline(dfg, mapping, library)
    return Input(kernel, dfg, mapping, library, deadline)


def generated(name: str, docs: tuple[dict, dict], library: dict = gen.DSP_LIBRARY) -> Input:
    dfg, mapping = docs
    return Input(name, dfg, mapping, library, gen.serialized_deadline(dfg, mapping, library))


def infeasible(inp: Input, policy: str) -> Call:
    """``schedule`` at the critical path with one instance per class. Some
    class then needs more cycles than the deadline holds, so no schedule
    exists: memsched must take its 2x/4x/8x retry path and exit 1."""
    cp = gen.critical_path(inp.dfg, inp.library)
    work = gen.class_work(inp.dfg, inp.library)
    if max(work.values()) <= cp:
        raise ValueError(f"{inp.name} is not provably infeasible at its critical path")
    return Call(inp, "schedule", policy, deadline=cp, alloc={c: 1 for c in work},
                expect_exit=1)


# ---------------------------------------------------------------------------

def dsp_narrow(rng: random.Random, tiny: bool) -> list[Call]:
    taps, points, sections = (8, 8, 3) if tiny else (48, 16, 11)
    inputs = [
        generated(f"fir{taps}", gen.fir(rng, taps)),
        generated(f"fft{points}", gen.fft(rng, points)),
        generated(f"biquad{sections}", gen.biquads(rng, sections)),
    ]
    return [Call(inp, "compare") for inp in inputs]


def fixtures_cli(rng: random.Random, tiny: bool) -> list[Call]:
    library = gen.random_library((1, 2))
    pair = fixture("two_adds_one_bank", deadline=4)  # the README's example
    inputs = [
        fixture("fir4"),
        fixture("fir16", deadline=24),
        fixture("fft8_stage"),
        fixture("iir_biquad"),
        generated("gfir24", gen.fir(rng, 24)),
        generated("gfft8", gen.fft(rng, 8)),
        generated("gbiquad5", gen.biquads(rng, 5)),
        generated("dag32", gen.random_dag(rng, 32, 2, window=4), library),
        generated("dag64", gen.random_dag(rng, 64, 2, window=4), library),
    ]
    calls = [Call(pair, command, policy, alloc={"alu": 2})
             for command, policy in (("validate", None), ("schedule", "baseline"),
                                     ("schedule", "mem-aware"))]
    for inp in inputs:
        calls.append(Call(inp, "validate"))
        calls.append(Call(inp, "schedule", "baseline"))
        calls.append(Call(inp, "schedule", "mem-aware"))
    calls += [infeasible(inputs[1], "mem-aware"), infeasible(inputs[1], "baseline"),
              infeasible(inputs[4], "mem-aware")]
    # The exact oracle end to end, on fixed inputs: its cost varies ten-fold
    # between random graphs of one size, more than a seed-to-seed bound
    # absorbs. iir_biquad's oracle alone would outweigh the front end.
    oracle = [Call(pair, "compare", alloc={"alu": 2}, oracle=True),
              Call(inputs[0], "compare", oracle=True)]
    return calls[:6] + oracle[:1] if tiny else calls + oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dsp-narrow", dsp_narrow, 120),
        Workload("fixtures-cli", fixtures_cli, 60),
    )
}
