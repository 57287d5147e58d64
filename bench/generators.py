"""Seeded, deterministic input generators for the benchmark.

Every generator returns plain JSON-able dicts in memsched's document formats
(data-flow graph, memory mapping, operator library). The same arguments give
the same documents, and ``dump`` turns a document into the same bytes every
time, so a seed names one exact set of input files.

The deadline and allocation formulas at the bottom read only these documents:
nothing here calls memsched.
"""

from __future__ import annotations

import json
import random

# Same classes as the bundled ``dsp`` library.
DSP_LIBRARY = {
    "classes": [
        {"name": "mul", "opcodes": ["mul"], "latency": 2, "energy": 8.0},
        {"name": "alu", "opcodes": ["add", "sub"], "latency": 1, "energy": 2.0},
    ]
}


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _bank(bank_id: str, ports: int = 1, read: int = 1, write: int = 1) -> dict:
    return {
        "id": bank_id, "ports": ports, "read_latency": read,
        "write_latency": write, "level": 0, "energy_per_access": 1.0,
    }


def _op(op_id: str, opcode: str, args: list[str], result: str) -> dict:
    return {"id": op_id, "opcode": opcode, "args": args, "result": result}


# ---------------------------------------------------------------------------
# structured DSP kernels (dsp library, 1-port banks unless stated)

def fir(rng: random.Random, taps: int) -> tuple[dict, dict]:
    """Direct-form FIR: ``taps`` products and a serial adder chain
    (2 * taps - 1 ops). Each sample x[i] and coefficient h[i] lands in one
    of three 1-port banks, never the same one, so no op over-subscribes."""
    ops = [_op(f"m{i}", "mul", [f"x[{i}]", f"h[{i}]"], f"p{i}") for i in range(taps)]
    acc = "p0"
    for i in range(1, taps):
        result = "y" if i == taps - 1 else f"s{i}"
        ops.append(_op(f"a{i}", "add", [acc, f"p{i}"], result))
        acc = result
    banks = ["M0", "M1", "M2"]
    place = {}
    for i in range(taps):
        bx, bh = rng.sample(banks, 2)
        place[f"x[{i}]"] = bx
        place[f"h[{i}]"] = bh
    dfg = {
        "inputs": [{"name": "x", "shape": [taps]}, {"name": "h", "shape": [taps]}],
        "outputs": [acc],
        "ops": ops,
    }
    mapping = {"banks": [_bank(b) for b in banks], "place": place, "default": "REGISTER"}
    return dfg, mapping


def fft(rng: random.Random, points: int) -> tuple[dict, dict]:
    """Radix-2 decimation-in-time FFT over ``points`` values, one
    multiply-add-subtract butterfly per pair: 3 * (points / 2) * log2(points)
    ops. Samples sit in two 1-port banks, twiddles in a third; the results of
    every odd stage (1st, 3rd, ...) are stored to the 2-port bank MS."""
    stages = points.bit_length() - 1
    if points < 2 or 1 << stages != points:
        raise ValueError("FFT size must be a power of two >= 2")
    ops = []
    place = {}
    for i in range(points):
        place[f"x[{i}]"] = rng.choice(("MX0", "MX1"))
    place["w"] = "MW"
    current = [f"x[{i}]" for i in range(points)]
    for s in range(stages):
        half = 1 << s
        nxt = list(current)
        for group in range(0, points, 2 * half):
            for j in range(half):
                top, bot = group + j, group + j + half
                tw = j * (points // (2 * half))
                t = f"t{s}_{top}"
                ops.append(_op(f"bm{s}_{top}", "mul", [f"w[{tw}]", current[bot]], t))
                nxt[top] = f"v{s + 1}_{top}"
                nxt[bot] = f"v{s + 1}_{bot}"
                ops.append(_op(f"ba{s}_{top}", "add", [current[top], t], nxt[top]))
                ops.append(_op(f"bs{s}_{top}", "sub", [current[top], t], nxt[bot]))
                if s % 2 == 0:
                    place[nxt[top]] = "MS"
                    place[nxt[bot]] = "MS"
        current = nxt
    dfg = {
        "inputs": [{"name": "x", "shape": [points]}, {"name": "w", "shape": [points // 2]}],
        "outputs": current,
        "ops": ops,
    }
    banks = [_bank("MS", ports=2), _bank("MW"), _bank("MX0"), _bank("MX1")]
    return dfg, {"banks": banks, "place": place, "default": "REGISTER"}


def biquads(rng: random.Random, sections: int) -> tuple[dict, dict]:
    """Cascade of direct-form-I biquad sections, 9 ops each; section k feeds
    section k + 1. Coefficients sit in banks MC0/MC1 and filter state in
    MS0/MS1, element by element, so every product reads two distinct
    1-port banks."""
    coef = ("b0", "b1", "b2", "a1", "a2")
    state = ("xm1", "xm2", "ym1", "ym2")
    ops = []
    place = {}
    xin = "xin"
    for k in range(sections):
        for name in coef:
            place[f"{name}[{k}]"] = rng.choice(("MC0", "MC1"))
        for name in state:
            place[f"{name}[{k}]"] = rng.choice(("MS0", "MS1"))
        products = [
            ("b0", xin), ("b1", f"xm1[{k}]"), ("b2", f"xm2[{k}]"),
            ("a1", f"ym1[{k}]"), ("a2", f"ym2[{k}]"),
        ]
        for i, (c, v) in enumerate(products):
            ops.append(_op(f"m{i}_{k}", "mul", [f"{c}[{k}]", v], f"w{i}_{k}"))
        y = f"y{k}"
        ops.append(_op(f"s1_{k}", "add", [f"w0_{k}", f"w1_{k}"], f"q1_{k}"))
        ops.append(_op(f"s2_{k}", "add", [f"q1_{k}", f"w2_{k}"], f"q2_{k}"))
        ops.append(_op(f"s3_{k}", "sub", [f"q2_{k}", f"w3_{k}"], f"q3_{k}"))
        ops.append(_op(f"s4_{k}", "sub", [f"q3_{k}", f"w4_{k}"], y))
        xin = y
    dfg = {
        "inputs": [{"name": "xin"}]
        + [{"name": n, "shape": [sections]} for n in coef + state],
        "outputs": [xin],
        "ops": ops,
    }
    banks = [_bank(b) for b in ("MC0", "MC1", "MS0", "MS1")]
    return dfg, {"banks": banks, "place": place, "default": "REGISTER"}


# ---------------------------------------------------------------------------
# random DAGs

def random_library(latencies: tuple[int, ...]) -> dict:
    """One class per latency, class ``c<k>`` runs opcode ``f<k>``."""
    return {
        "classes": [
            {"name": f"c{k}", "opcodes": [f"f{k}"], "latency": lat, "energy": float(1 + k)}
            for k, lat in enumerate(latencies)
        ]
    }


# Every combination of 1-2 ports and 1-2 cycle latencies appears, so
# multi-cycle port windows occur on single- and dual-port banks alike.
RANDOM_BANKS = (
    _bank("B0", ports=1, read=1, write=1),
    _bank("B1", ports=1, read=2, write=2),
    _bank("B2", ports=2, read=1, write=2),
    _bank("B3", ports=2, read=2, write=1),
)


def random_dag(
    rng: random.Random, n_ops: int, n_classes: int, window: int = 8,
) -> tuple[dict, dict]:
    """Random DAG over ``n_classes`` classes.

    The wiring is random but its counts are fixed, so graphs of one size
    differ little in load: classes are balanced, half the ops take two
    operands, 40% of operands read an evenly dealt pool of eight inputs, the
    rest one of the last ``window`` results, and one op in ten
    gets an extra ordering edge to an earlier op. The graph is acyclic by
    construction. The inputs and 60% of the results live in memory, in equal
    shares per bank, and no op reads two items from one single-port bank.
    """
    def dealt(values: list, count: int) -> list:
        """``count`` items cycling through ``values``, shuffled."""
        out = [values[i % len(values)] for i in range(count)]
        rng.shuffle(out)
        return out

    classes = dealt(list(range(n_classes)), n_ops)
    arities = dealt([1, 2], n_ops)
    n_args = sum(arities)
    from_pool = dealt([True] * 2 + [False] * 3, n_args)
    inputs = [f"in{i}" for i in range(8)]
    pool = dealt(inputs, n_args)
    with_dep = set(rng.sample(range(1, n_ops), (n_ops - 1) // 10))
    ids = [b["id"] for b in RANDOM_BANKS]
    rng.shuffle(ids)
    place = {name: ids[i % len(ids)] for i, name in enumerate(inputs)}
    stored = dealt([True] * 3 + [False] * 2, n_ops)
    store_banks = dealt(ids, stored.count(True))
    single_port = {b["id"] for b in RANDOM_BANKS if b["ports"] == 1}

    def clashes(name: str, args: list[str]) -> bool:
        bank = place.get(name)
        return bank in single_port and any(place.get(a) == bank for a in args if a != name)

    def from_inputs(args: list[str]) -> str:
        for j in range(len(pool) - 1, -1, -1):
            if not clashes(pool[j], args):
                pool[j], pool[-1] = pool[-1], pool[j]
                return pool.pop()
        return next(n for n in inputs if not clashes(n, args))

    results: list[str] = []
    ops = []
    for i, (k, arity) in enumerate(zip(classes, arities)):
        args: list[str] = []
        for _ in range(arity):
            recent = [r for r in results[-window:] if not clashes(r, args)]
            if from_pool.pop() or not recent:
                args.append(from_inputs(args))
            else:
                args.append(rng.choice(recent))
        result = f"d{i:04d}"
        if stored[i]:
            place[result] = store_banks.pop()
        op = _op(f"op{i:04d}", f"f{k}", args, result)
        if i in with_dep:
            op["deps"] = [f"op{rng.randrange(i):04d}"]
        ops.append(op)
        results.append(result)
    consumed = {a for op in ops for a in op["args"]}
    dfg = {
        "inputs": [{"name": n} for n in inputs],
        "outputs": [r for r in results if r not in consumed],
        "ops": ops,
    }
    return dfg, {"banks": list(RANDOM_BANKS), "place": place, "default": "REGISTER"}


# ---------------------------------------------------------------------------
# formulas over the documents

def location(place: dict, token: str) -> str | None:
    """Bank id holding ``token`` (element entries override array entries),
    or None for a register."""
    bank = place.get(token)
    if bank is None and token.endswith("]"):
        bank = place.get(token.split("[", 1)[0])
    return None if bank in (None, "REGISTER") else bank


def latencies(library: dict) -> dict[str, int]:
    """Opcode -> latency."""
    return {code: c["latency"] for c in library["classes"] for code in c["opcodes"]}


def serialized_deadline(dfg: dict, mapping: dict | None, library: dict) -> int:
    """A deadline that admits running every op, its fetches and its store
    one after another: the sum of all of them, plus 4."""
    lat = latencies(library)
    banks = {b["id"]: b for b in mapping["banks"]} if mapping else {}
    place = mapping["place"] if mapping else {}
    total = 4
    for op in dfg["ops"]:
        total += lat[op["opcode"]]
        read_banks = {location(place, a) for a in op["args"]} - {None}
        total += sum(banks[b]["read_latency"] for b in read_banks)
        wbank = location(place, op["result"])
        if wbank is not None:
            total += banks[wbank]["write_latency"]
    return total


def critical_path(dfg: dict, library: dict) -> int:
    """Longest path through the graph counting op latencies only."""
    lat = latencies(library)
    producer = {op["result"]: op for op in dfg["ops"]}
    by_id = {op["id"]: op for op in dfg["ops"]}
    finish: dict[str, int] = {}

    def done(op) -> int:
        if op["id"] not in finish:
            preds = [producer[a] for a in op["args"] if a in producer]
            preds += [by_id[d] for d in op.get("deps", [])]
            finish[op["id"]] = lat[op["opcode"]] + max(map(done, preds), default=0)
        return finish[op["id"]]

    # Ops reference earlier ops more often than later ones; walking in
    # document order keeps the recursion shallow.
    return max(map(done, dfg["ops"]), default=0)


def class_work(dfg: dict, library: dict) -> dict[str, int]:
    """Class name -> op count times latency."""
    cls = {code: c for c in library["classes"] for code in c["opcodes"]}
    work: dict[str, int] = {}
    for op in dfg["ops"]:
        c = cls[op["opcode"]]
        work[c["name"]] = work.get(c["name"], 0) + c["latency"]
    return work


def min_allocation(dfg: dict, library: dict, deadline: int) -> dict[str, int]:
    """Average-parallelism bound: ceil(work / deadline), at least one."""
    return {
        name: max(1, -(-w // deadline))
        for name, w in class_work(dfg, library).items()
    }
