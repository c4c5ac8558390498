"""The eiscong benchmark workloads.

Each workload turns a seed into a fixed list of operations, runs them one
after another against the library (a closed loop with a single caller), and
then checks every output against the goldens in perfbench/goldens plus a few
independent anchors.  Every cache in eiscong is process-global, so one pass
of a workload is meant to run in a fresh interpreter: run as a script, this
module performs exactly one pass and prints its result as one JSON line.

    PYTHONPATH=src python3 perfbench/workloads.py --workload eps_series --seed 1

perfbench/run.py spawns these passes and aggregates them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from eiscong import cli, eisen, pullback
from eiscong.errors import BudgetExceeded
from eiscong.quadform import HalfIntegralMatrix, format_half_integral

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

I2 = HalfIntegralMatrix.identity(2)
A_MATRICES = ("1,0,1", "1,1,1")
# every k + nu with a one-dimensional cusp space among the weights up to 26
SWEEP_WEIGHTS = (12, 16, 18, 20, 22, 26)
TINY_PAIRS = ((14, 2), (8, 8))
EPS_K, EPS_NU = 14, 2
EPS_N = range(1, 7)
REACH_N = range(7, 17)
EIS_WEIGHTS = (10, 12)
EIS_D = 200
TINY_D = 10
REFERENCE_EVERY_S = 0.5

# Anchors that hold independently of the goldens: acceptance criterion 1's
# two L-values and the two worked pullback values.
L_VALUE_ANCHORS = {
    (14, 2): Fraction(2**20 * 3**4 * 373, 7),
    (8, 8): Fraction(2**15 * 23**2, 11 * 13),
}
EPS_14_2_AT_1_0 = 2418024960
EPS_8_8_AT_1_1 = -46666368


@dataclass
class Op:
    """One timed call into the library; `call` returns the raw output."""

    label: str
    call: Callable[[], object]
    golden: object


def sweep_pairs() -> list[tuple[int, int]]:
    """Every (k, nu) with even k >= 6, even nu >= 2 and k + nu in SWEEP_WEIGHTS."""
    return [(k, w - k) for w in SWEEP_WEIGHTS for k in range(6, w - 1, 2)]


def binary_forms(d_max: int) -> list[HalfIntegralMatrix]:
    """PSD binary forms with 0 <= det(2T) <= d_max, one per GL2(Z) class.

    Rank 2: reduced forms [[a, b/2], [b/2, c]] with 0 <= b <= a <= c and
    4ac - b^2 <= d_max.  Rank 1: diag(c, 0) with 1 <= c <= d_max.
    """
    out = [
        HalfIntegralMatrix.from_doubled([[2 * a, b], [b, 2 * c]])
        for a in range(1, d_max + 1)
        for b in range(a + 1)
        for c in range(a, d_max + 1)
        if 4 * a * c - b * b <= d_max
    ]
    out += [HalfIntegralMatrix.diagonal(c, 0) for c in range(1, d_max + 1)]
    return out


def random_unimodular(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A signed permutation followed by three transvections with |c| <= 2."""
    perm = list(range(3))
    rng.shuffle(perm)
    u = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return tuple(tuple(row) for row in u)


def embed3(t: HalfIntegralMatrix, u) -> HalfIntegralMatrix:
    """U diag(T, 0) U^t for a binary T."""
    g = t.doubled
    padded = HalfIntegralMatrix.from_doubled(
        [[g[0][0], g[0][1], 0], [g[1][0], g[1][1], 0], [0, 0, 0]]
    )
    return padded.transform(u)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout captured; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def rat_text(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# Operation lists (the generated inputs)


def certify_sweep_ops(seed: int, tiny: bool, golden: dict) -> list[Op]:
    """For each (k, nu) in seeded order: lvalue, then its certify calls."""
    by_pair: dict[tuple[int, int], list[dict]] = {}
    for task in golden["tasks"]:
        by_pair.setdefault(tuple(task["pair"]), []).append(task)
    pairs = list(TINY_PAIRS) if tiny else sweep_pairs()
    random.Random(seed).shuffle(pairs)
    ops = []
    for pair in pairs:
        for task in by_pair[pair]:
            argv = task["argv"]
            ops.append(
                Op(" ".join(argv), lambda argv=argv: run_cli(argv), (task["exit"], task["stdout"]))
            )
    return ops


def eps_series_ops(seed: int, tiny: bool, golden: dict) -> list[Op]:
    ns = [n for n in EPS_N if n <= 2] if tiny else list(EPS_N)
    random.Random(seed).shuffle(ns)
    return [
        Op(
            f"epsilon({EPS_K},{EPS_NU},{n},I)",
            lambda n=n: pullback.epsilon(EPS_K, EPS_NU, n, I2),
            golden["forms"][str(n)],
        )
        for n in ns
    ]


def eis_table_ops(seed: int, tiny: bool, golden: dict) -> list[Op]:
    """a(T) in degree 2 and a(U diag(T, 0) U^t) in degree 3, both against a(T)."""
    rng = random.Random(seed)
    tasks = [(k, t) for k in EIS_WEIGHTS for t in binary_forms(TINY_D if tiny else EIS_D)]
    rng.shuffle(tasks)
    ctx = {(n, k): eisen.EisensteinContext(n, k) for n in (2, 3) for k in EIS_WEIGHTS}
    ops = []
    for k, t in tasks:
        key = f"{k}|{format_half_integral(t)}"
        t3 = embed3(t, random_unimodular(rng))
        expect = golden["values"][key]
        ops.append(Op(f"a2 {key}", lambda c=ctx[2, k], t=t: c.coefficient(t), expect))
        ops.append(
            Op(f"a3 {key} as {format_half_integral(t3)}", lambda c=ctx[3, k], t=t3: c.coefficient(t), expect)
        )
    return ops


# ---------------------------------------------------------------------------
# Output checks


def normalize(name: str, raw) -> object:
    if name == "certify_sweep":
        return tuple(raw)
    if name == "eps_series":
        return [rat_text(c) for c in raw.coeffs]
    return rat_text(raw)


def _rat(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def anchor(name: str, op: Op, out) -> str | None:
    """Check an output that matched its golden against a known value, if any."""
    if name == "certify_sweep":
        doc = json.loads(out[1])
        pair = (doc["k"], doc["nu"])
        if doc.get("command") == "lvalue":
            if pair in L_VALUE_ANCHORS and _rat(doc["forms"][0]["l_value"]) != L_VALUE_ANCHORS[pair]:
                return "L-value anchor"
        elif doc["A"] == "1,0,1":
            if pair == (14, 2) and _rat(doc["epsilon"]["at_1_0"]) != EPS_14_2_AT_1_0:
                return "epsilon(14,2,1,I)(1,0) anchor"
            if pair == (8, 8) and _rat(doc["epsilon"]["at_1_1"]) != EPS_8_8_AT_1_1:
                return "epsilon(8,8,1,I)(1,1) anchor"
    elif name == "eps_series" and op.label == f"epsilon({EPS_K},{EPS_NU},1,I)":
        if out.evaluate(1, 0) != EPS_14_2_AT_1_0:
            return "epsilon(14,2,1,I)(1,0) anchor"
    return None


def check(name: str, ops: list[Op], outputs: list) -> dict[int, str]:
    """{op index: reason} for every failed operation.

    eis_table's goldens are the degree-2 table, so checking a degree-3
    output against them checks the Siegel-operator identity as well.
    """
    bad: dict[int, str] = {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, BaseException):
            bad[i] = f"raised {type(out).__name__}: {out}"
        elif name == "certify_sweep" and out[0] not in (0, 1):
            bad[i] = f"exit code {out[0]}"
        elif normalize(name, out) != op.golden:
            bad[i] = "differs from golden"
        else:
            reason = anchor(name, op, out)
            if reason is not None:
                bad[i] = reason
    return bad


OP_LISTS = {
    "certify_sweep": certify_sweep_ops,
    "eps_series": eps_series_ops,
    "eis_table": eis_table_ops,
}


# ---------------------------------------------------------------------------
# One pass


def python_reference() -> None:
    """Fixed pure-Python work (Fraction arithmetic, a dict), 25-50 ms."""
    total = 0
    table = {}
    for i in range(1, 5000):
        x = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(i % 5, 11)
        total += x.numerator % 97
        table[i % 31, i % 17] = total


def numpy_reference() -> None:
    """Fixed numpy integer-array work (gcd, bincount on 2^19 entries), about 30 ms."""
    idx = np.arange(1 << 19, dtype=np.int64)
    a, b = idx % 61, idx // 61 % 59
    np.bincount(np.gcd(np.gcd(a, b), a * b - 7) % 97, minlength=97)


# Each workload's reference resembles its dominant work: eps_series spends
# ~95% of its time in numpy array kernels, the others in Python arithmetic.
REFERENCES = {"certify_sweep": python_reference, "eps_series": numpy_reference, "eis_table": python_reference}


def reference_s(work: Callable[[], None]) -> float:
    """Seconds taken by one call of a fixed reference computation (no eiscong code).

    A pass runs it before and after its operations and once per
    REFERENCE_EVERY_S of their time in between (outside their timing), so
    that wall_rel = wall_s / mean reference_s cancels the host's speed drift,
    which moves wall_s by tens of percent within minutes.
    """
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def reach_probe() -> tuple[int, int, list[str]]:
    """Largest n in REACH_N with epsilon(14,2,n,I) inside the work budget.

    Returns (reach, attempted, failures); BudgetExceeded ends the probe and
    is not a failure, any other exception is.  The probe's answer does not
    depend on what the process computed before, because cached local
    factors are exactly those that fitted the budget.
    """
    reach = REACH_N.start - 1
    for attempted, n in enumerate(REACH_N, 1):
        try:
            pullback.epsilon(EPS_K, EPS_NU, n, I2)
        except BudgetExceeded:
            return reach, attempted, []
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return reach, attempted, [f"reach probe n={n}: {type(exc).__name__}: {exc}"]
        reach = n
    return reach, len(REACH_N), []


def run_pass(
    name: str,
    seed: int,
    tiny: bool = False,
    golden: dict | None = None,
    tracer=None,
    probe: bool = False,
) -> dict:
    """Generate the inputs, run them once (timed), then check the outputs."""
    ops = OP_LISTS[name](seed, tiny, golden if golden is not None else load_golden(name))
    outputs: list = []
    reference = [reference_s(REFERENCES[name])]
    if tracer is not None:
        tracer.install()
    wall = owed = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            outputs.append(op.call())
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            outputs.append(exc)
        elapsed = time.perf_counter() - start
        wall += elapsed
        # one reference sample per REFERENCE_EVERY_S of work, taken between operations
        owed += elapsed
        while owed >= REFERENCE_EVERY_S:
            reference.append(reference_s(REFERENCES[name]))
            owed -= REFERENCE_EVERY_S
    if tracer is not None:
        tracer.uninstall()
    reference.append(reference_s(REFERENCES[name]))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = check(name, ops, outputs)
    result = {
        "wall_s": wall,
        "reference_s": reference,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(ops),
        "failed": len(bad),
        "failures": [f"{ops[i].label}: {reason}" for i, reason in sorted(bad.items())][:10],
    }
    if probe:
        reach, attempted, failures = reach_probe()
        result["eps_reach_n"] = reach
        result["attempted"] += attempted
        result["failed"] += len(failures)
        result["failures"] += failures
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one pass of a benchmark workload.")
    parser.add_argument("--workload", choices=OP_LISTS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true", help="also measure eps_reach_n")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--spans", type=Path, help="with --trace, write the spans here")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = run_pass(args.workload, args.seed, tracer=tracer, probe=args.probe)
    if args.spans is not None and tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
