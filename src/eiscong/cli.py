"""Command-line front end.

Subcommands: lvalue, epsilon, certify, siegel-series, eisenstein-coeff,
cohen-series.  All numeric input is exact; output is deterministic JSON
(stable key order, rationals as {"num": ..., "den": ...} decimal strings),
CSV for the scalar lvalue table, or a human-readable pretty format.  The
JSON text is exactly that of json.dumps(doc, indent=2): two-space indent,
every non-ASCII character escaped.  `_json_text` writes it, since
json.dumps takes its C encoder only without an indent.
--precision overrides the default q-expansion precision; --budget caps the
character-sum enumeration.  A value may start with '-': `--N -1,0,-1`.

The parser is built on the first main call, not on import, and later calls
in the process reuse it: parse_args reads sys.argv and writes to
sys.stdout/sys.stderr at call time and does not mutate the parser, so a
sweep of many main calls pays for argparse once, as a one-shot invocation
does.  Two threads racing on the first call each build an equal parser and
one of them is kept, which is harmless.

Exit codes: 0 success (for certify: verdict established), 1 certify ran but
the verdict is NotEstablished, 2 usage errors, 3 typed computation errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from json.encoder import encode_basestring_ascii

from .arith import _check_prime, ord_p
from .eisen import EisensteinContext
from .errors import BudgetExceeded, SingularSystem, UnsupportedHeckeField
from .pullback import Strictness, Verdict, certify, decode_rat, encode_rat, epsilon
from .qexp import _check_l_pair, cohen_series, default_precision, eigen_basis, std_l_value
from .quadform import HalfIntegralMatrix, format_half_integral, parse_half_integral
from .siegelseries import DEFAULT_BUDGET, local_F

__all__ = ["main"]


def _matrix_arg(text: str) -> HalfIntegralMatrix:
    try:
        return parse_half_integral(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list")


def _pair(text: str) -> tuple[int, int]:
    vals = _int_list(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated integers")
    return vals  # type: ignore[return-value]


def _attach_values(argv: list[str]) -> list[str]:
    """`--N -1,0,-1` as `--N=-1,0,-1`: argparse reads a separate value that
    starts with '-' as an option unless it is a plain number, and no option
    here starts with '-' and a digit."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _precision(args: argparse.Namespace, weight: int) -> int:
    return default_precision(weight) if args.precision is None else args.precision


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (document, exit_code)


def _cmd_lvalue(args) -> tuple[dict, int]:
    k, nu = args.k, args.nu
    _check_l_pair(k, nu)
    for p in args.ords:
        _check_prime(p)
    prec = _precision(args, k + nu)
    rows = []
    for j, f in enumerate(eigen_basis(k + nu, prec)):
        value = std_l_value(k, nu, f)
        row = {
            "form": j,
            "t2_eigenvalue": encode_rat(f.coefficient(2)),
            "l_value": encode_rat(value),
        }
        for p in args.ords:
            row[f"ord_{p}"] = ord_p(p, value) if value != 0 else None
        rows.append(row)
    doc = {
        "command": "lvalue",
        "k": k,
        "nu": nu,
        "weight": k + nu,
        "precision": prec,
        "forms": rows,
    }
    return doc, 0


def _cmd_epsilon(args) -> tuple[dict, int]:
    form = epsilon(args.k, args.nu, args.n, args.N)
    doc = {
        "command": "epsilon",
        "k": args.k,
        "nu": args.nu,
        "n": args.n,
        "N": format_half_integral(args.N),
        "degree": form.degree,
        "coeffs": [encode_rat(c) for c in form.coeffs],
    }
    if args.at:
        doc["evaluations"] = [
            {"at": list(pt), "value": encode_rat(form.evaluate(*pt))} for pt in args.at
        ]
    return doc, 0


def _cmd_certify(args) -> tuple[dict, int]:
    cert = certify(
        args.k,
        args.nu,
        args.p,
        args.A,
        m_list=args.m_list,
        slot=args.slot,
        strictness=Strictness.RELAXED if args.relaxed else Strictness.STRICT,
    )
    doc = cert.to_json_dict()
    return doc, 1 if cert.verdict is Verdict.NOT_ESTABLISHED else 0


def _cmd_siegel_series(args) -> tuple[dict, int]:
    f = local_F(args.p, args.T, args.budget)
    return {
        "command": "siegel-series",
        "p": args.p,
        "T": format_half_integral(args.T),
        "coeffs": [str(c) for c in f.coeffs],
    }, 0


def _cmd_eisenstein_coeff(args) -> tuple[dict, int]:
    ctx = EisensteinContext(args.degree, args.k, args.budget)
    value = ctx.coefficient(args.T)
    return {
        "command": "eisenstein-coeff",
        "degree": args.degree,
        "k": args.k,
        "T": format_half_integral(args.T),
        "value": encode_rat(value),
    }, 0


def _cmd_cohen_series(args) -> tuple[dict, int]:
    prec = _precision(args, args.k)
    series = cohen_series(args.k, args.r, prec)
    return {
        "command": "cohen-series",
        "k": args.k,
        "r": args.r,
        "precision": prec,
        "coeffs": [encode_rat(c) for c in series.coeffs],
    }, 0


# ---------------------------------------------------------------------------
# Output formatting


def _json_text(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) for str, int, bool and None leaves in dicts
    with str keys, lists and tuples; pad is the newline and indent of obj's
    closing bracket.  Any other type, a float among them, or a key that is
    not a str raises TypeError."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, val in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(val, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(_json_text(doc), file=out)
        return
    if fmt == "csv":
        if doc.get("command") != "lvalue":
            raise ValueError("csv output is only available for the lvalue table")
        ord_cols = sorted(
            {key for row in doc["forms"] for key in row if key.startswith("ord_")}
        )
        print(",".join(["form", "t2_eigenvalue", "l_value", *ord_cols]), file=out)
        for row in doc["forms"]:
            cells = [
                str(row["form"]),
                str(decode_rat(row["t2_eigenvalue"])),
                str(decode_rat(row["l_value"])),
            ]
            cells += [str(row.get(c, "")) for c in ord_cols]
            print(",".join(cells), file=out)
        return
    # pretty
    print(_pretty(doc), file=out)


def _pretty(doc: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key, val in doc.items():
        if isinstance(val, dict) and set(val) == {"num", "den"}:
            lines.append(f"{pad}{key}: {decode_rat(val)}")
        elif isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_pretty(val, indent + 1))
        elif isinstance(val, list):
            rendered = []
            for item in val:
                if isinstance(item, dict) and set(item) == {"num", "den"}:
                    rendered.append(str(decode_rat(item)))
                elif isinstance(item, dict):
                    rendered.append("\n" + _pretty(item, indent + 1))
                else:
                    rendered.append(str(item))
            lines.append(f"{pad}{key}: [{', '.join(r for r in rendered)}]")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiscong",
        description="Exact computations around degree <= 3 Siegel-Eisenstein "
        "series and eigenvalue congruence certificates.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "pretty"),
        default="json",
        help="output format (csv is restricted to the lvalue table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lvalue", help="normalized standard L-values at k-1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--ords", type=_int_list, default=(), help="primes for p-order columns")
    p.add_argument("--precision", type=int)
    p.set_defaults(handler=_cmd_lvalue)

    p = sub.add_parser("epsilon", help="pullback coefficient as a binary form")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=_matrix_arg, required=True, help='2x2 matrix "a,b,c"')
    p.add_argument("--at", type=_pair, action="append", help="evaluation point x,y")
    p.set_defaults(handler=_cmd_epsilon)

    p = sub.add_parser("certify", help="assemble a congruence certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--A", type=_matrix_arg, required=True, help='2x2 matrix "a,b,c"')
    p.add_argument("--m-list", type=_int_list, default=None)
    p.add_argument("--slot", type=int, default=None)
    p.add_argument("--relaxed", action="store_true", help="waive the size bound")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("siegel-series", help="coefficients of the local polynomial factor")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--T", type=_matrix_arg, required=True, help='"t", "a,b,c" or six entries')
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=_cmd_siegel_series)

    p = sub.add_parser("eisenstein-coeff", help="normalized Eisenstein Fourier coefficient")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", type=_matrix_arg, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=_cmd_eisenstein_coeff)

    p = sub.add_parser("cohen-series", help="dump the q-expansion of the H-coefficient series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--precision", type=int)
    p.set_defaults(handler=_cmd_cohen_series)

    return parser


# The parser, built by the first main call and shared by later ones.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    # the inputs were read under the interpreter's int-string digit limit;
    # a computed value may have more digits, so the limit is lifted for the
    # output and put back before returning
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc, code = args.handler(args)
        _emit(doc, args.format, sys.stdout)
        return code
    except (UnsupportedHeckeField, SingularSystem, BudgetExceeded, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
