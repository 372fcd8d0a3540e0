"""Command-line front end.

Subcommands:

    derive     first full derivative p'
    hessian    complex hessian of p
    mmr        border vector / middle matrix of a direction-quadratic
    ldlt       LDL' factorization of a direction-quadratic's middle matrix
    classify   the plush decision: certificate, refutation, or inconclusive
    eval       evaluate at a seeded random matrix tuple

Polynomials come inline (``-e``) or from a file (``-f``) in the text grammar
(``x1'*x1 + 2*x2*x2' - 1/3``).  Exit codes: 0 success or plush verdict,
2 not plush, 3 inconclusive, 1 usage/parse/library errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .calculus import complex_hessian, full_derivative
from .classify import decide_plush, verdict_to_dict
from .errors import NcError
from .freealg import (
    MAX_VARIABLE_INDEX,
    NcPoly,
    evaluate,
    format_poly,
    format_word,
    parse_poly,
)
from .ldlt import Obstruction, ldlt_factor
from .mmr import build_mmr
from .numeval import MAX_MATRIX_SIZE, SamplePolicy, default_policy, random_tuple


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we map usage to 1
        raise _UsageError(message)


def _int_in(lo: int, hi: int):
    """argparse type: an int in lo..hi, else a usage error."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside {lo}..{hi}")
        return value
    return convert


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncplush",
                     description="noncommutative plurisubharmonicity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, sampling: bool = False,
                   size: bool = False) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("-e", "--expr", help="polynomial, inline")
        src.add_argument("-f", "--file", help="read the polynomial from a file")
        p.add_argument("--vars", type=_int_in(1, MAX_VARIABLE_INDEX), default=None,
                       metavar="G",
                       help="ambient variable count (default: inferred)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        if sampling:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--sizes", default=None, metavar="N1,N2,..",
                           help="matrix sizes for the witness search")
            p.add_argument("--samples", type=int, default=200,
                           help="samples per size (default 200)")
            p.add_argument("--tol", type=float, default=1e-8,
                           help="eigenvalue tolerance (default 1e-8)")
        if size:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--size", type=_int_in(1, MAX_MATRIX_SIZE), default=3,
                           metavar="N",
                           help="matrix size for evaluation (default 3)")

    add_common(sub.add_parser("derive", help="first full derivative"))
    add_common(sub.add_parser("hessian", help="complex hessian"))
    add_common(sub.add_parser("mmr", help="border vector and middle matrix"))
    add_common(sub.add_parser("ldlt", help="middle-matrix LDL' factorization"))
    add_common(sub.add_parser("classify", help="plush decision"), sampling=True)
    add_common(sub.add_parser("eval", help="evaluate on a random tuple"), size=True)
    return parser


def _load_poly(args) -> NcPoly:
    if args.expr is not None:
        text = args.expr
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_poly(text, args.vars)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _matrix_rows(mat: np.ndarray) -> list[str]:
    return [" ".join(_fmt(v) for v in row) for row in mat]


def _cmd_poly_transform(args, op) -> int:
    result = op(_load_poly(args))
    if args.json:
        _emit_json({"result": format_poly(result)})
    else:
        print(format_poly(result))
    return 0


def _cmd_mmr(args) -> int:
    border, middle = build_mmr(_load_poly(args))
    if args.json:
        _emit_json({
            "border": [format_word(w) for w in border.entries],
            "strata": [[tag.family, tag.k] for tag in border.strata],
            "middle": [[str(e) for e in row] for row in middle.entries],
        })
    else:
        print("border:")
        print(border.dump() if border.entries else "(empty)")
        print("middle:")
        print(middle.dump() if border.entries else "(empty)")
    return 0


def _cmd_ldlt(args) -> int:
    _, middle = build_mmr(_load_poly(args))
    result = ldlt_factor(middle)
    if isinstance(result, Obstruction):
        if args.json:
            _emit_json({
                "obstruction": {
                    "pivots_done": len(result.perm_prefix),
                    "residual_indices": list(result.residual_indices),
                    "residual": [[str(e) for e in row] for row in result.residual],
                }})
        else:
            print(result.dump())
        return 0
    if args.json:
        _emit_json({"perm": list(result.perm),
                    "diag": [str(d) for d in result.diag],
                    "lower": [[str(e) for e in row] for row in result.lower]})
    else:
        print(result.dump())
    return 0


def _policy_for(args, poly: NcPoly) -> Optional[SamplePolicy]:
    if args.sizes is None and args.samples == 200 and args.tol == 1e-8:
        return None  # let the pipeline pick its defaults for this hessian
    if args.sizes is not None:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    else:
        sizes = default_policy(complex_hessian(poly).degree()).sizes
    return SamplePolicy(sizes, args.samples, args.tol, args.seed)


def _cmd_classify(args) -> int:
    poly = _load_poly(args)
    verdict = decide_plush(poly, policy=_policy_for(args, poly), seed=args.seed)
    if args.json:
        _emit_json(verdict_to_dict(verdict, poly.nvars))
    else:
        print(verdict.report())
    return verdict.exit_code()


def _cmd_eval(args) -> int:
    poly = _load_poly(args)
    rng = np.random.default_rng(args.seed)
    X = random_tuple(poly.nvars, args.size, rng)
    H = random_tuple(poly.nvars, args.size, rng) if poly.has_directions() else None
    value = evaluate(poly, X, H)
    if args.json:
        payload = {"size": args.size, "seed": args.seed,
                   "X": [m.tolist() for m in X.entries],
                   "matrix": value.tolist()}
        if H is not None:
            payload["H"] = [m.tolist() for m in H.entries]
        _emit_json(payload)
    else:
        for j, mat in enumerate(X.entries, start=1):
            print(f"X{j} = [{'; '.join(_matrix_rows(mat))}]")
        if H is not None:
            for j, mat in enumerate(H.entries, start=1):
                print(f"H{j} = [{'; '.join(_matrix_rows(mat))}]")
        print("result:")
        for row in _matrix_rows(value):
            print(row)
    return 0


_COMMANDS = {
    "derive": lambda args: _cmd_poly_transform(args, full_derivative),
    "hessian": lambda args: _cmd_poly_transform(args, complex_hessian),
    "mmr": _cmd_mmr,
    "ldlt": _cmd_ldlt,
    "classify": _cmd_classify,
    "eval": _cmd_eval,
}


def _bind_expr(argv: list[str]) -> list[str]:
    """Join ``-e EXPR`` into ``--expr=EXPR``: argparse reads a separate value
    that starts with '-' (a negative polynomial) as an option."""
    out: list[str] = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in ("-e", "--expr") else None
        out.append(arg if value is None else f"--expr={value}")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_expr(sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, OverflowError, NcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
