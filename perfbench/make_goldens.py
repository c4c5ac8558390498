"""Record the benchmark goldens from the current program.

    PYTHONPATH=src python3 perfbench/make_goldens.py

Writes perfbench/goldens/{certify_sweep,eps_series,eis_table}.json.  The
goldens do not depend on the seed: a seed only reorders the operations and,
in eis_table, picks the unimodular matrix that hides each binary form inside
a ternary one.  certify_sweep's golden also fixes the sweep's inputs: for each
(k, nu) the primes p > 2k dividing the numerator of the L-value (at most two,
the smallest), or the least prime > 2k when there is none.  Regenerate only
when a change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from eiscong import eisen, pullback
from eiscong.arith import factorize
from eiscong.quadform import format_half_integral

import workloads as w


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def certify_primes(k: int, l_value: Fraction) -> list[int]:
    primes = [p for p in factorize(l_value.numerator) if p > 2 * k][:2]
    if primes:
        return primes
    p = 2 * k + 1
    while not is_prime(p):
        p += 1
    return [p]


def certify_sweep_golden() -> dict:
    tasks = []
    for k, nu in w.sweep_pairs():
        argv = ["lvalue", "--k", str(k), "--nu", str(nu)]
        code, text = w.run_cli(argv)
        assert code == 0, (argv, code)
        tasks.append({"pair": [k, nu], "argv": argv, "exit": code, "stdout": text})
        value = json.loads(text)["forms"][0]["l_value"]
        for p in certify_primes(k, Fraction(int(value["num"]), int(value["den"]))):
            for a in w.A_MATRICES:
                argv = ["certify", "--k", str(k), "--nu", str(nu), "--p", str(p), "--A", a]
                code, text = w.run_cli(argv)
                assert code in (0, 1), (argv, code)
                tasks.append({"pair": [k, nu], "argv": argv, "exit": code, "stdout": text})
    return {"tasks": tasks}


def eps_series_golden() -> dict:
    forms = {
        str(n): [w.rat_text(c) for c in pullback.epsilon(w.EPS_K, w.EPS_NU, n, w.I2).coeffs]
        for n in w.EPS_N
    }
    return {"k": w.EPS_K, "nu": w.EPS_NU, "N": "1,0,1", "forms": forms}


def eis_table_golden() -> dict:
    """The degree-2 table only; degree-3 outputs are checked against it."""
    values = {}
    for k in w.EIS_WEIGHTS:
        ctx = eisen.EisensteinContext(2, k)
        for t in w.binary_forms(w.EIS_D):
            values[f"{k}|{format_half_integral(t)}"] = w.rat_text(ctx.coefficient(t))
    return {"D": w.EIS_D, "values": values}


def main() -> int:
    w.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, make in (
        ("certify_sweep", certify_sweep_golden),
        ("eps_series", eps_series_golden),
        ("eis_table", eis_table_golden),
    ):
        doc = make()
        (w.GOLDEN_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
