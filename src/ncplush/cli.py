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
import functools
import json
import sys
from typing import Optional

from .calculus import complex_hessian, full_derivative
from .classify import _format_float, _matrix_lines, decide_plush, verdict_to_dict
from .errors import NcError, OutsideFloatRange
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
from .numeval import MAX_MATRIX_SIZE, SamplePolicy, random_tuple


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we map usage to 1
        raise _UsageError(message)


def _int_in(lo: int, hi: Optional[int] = None):
    """argparse type: an int in lo..hi (no upper end when hi is None), else a
    usage error."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below {lo}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"{value} is outside {lo}..{hi}")
        return value
    return convert


def _sizes(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated matrix sizes, each in 1..MAX_MATRIX_SIZE."""
    return tuple(map(_int_in(1, MAX_MATRIX_SIZE), filter(None, text.split(","))))


@functools.cache  # built on first use, so importing the module stays cheap
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
            search = p.add_argument_group(
                "witness search",
                "These steer only the random witness search for inputs with a "
                "stray word (neither hereditary nor antihereditary). A failed "
                "Gram LDL' gets a constructed, exactly checked witness instead.")
            search.add_argument("--seed", type=_int_in(0), default=SamplePolicy.seed,
                                help="search seed (default %(default)s)")
            search.add_argument("--sizes", type=_sizes, default=None,
                                metavar="N1,N2,..",
                                help="matrix sizes for the witness search "
                                     "(default: from the hessian degree)")
            search.add_argument("--samples", type=int,
                                default=SamplePolicy.samples_per_size,
                                help="samples per size (default %(default)s)")
            search.add_argument("--tol", type=float, default=SamplePolicy.tol,
                                help="eigenvalue tolerance (default %(default)s)")
        if size:
            p.add_argument("--seed", type=_int_in(0), default=SamplePolicy.seed)
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
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


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


def _policy_for(args) -> SamplePolicy:
    return SamplePolicy(args.sizes, args.samples, args.tol, args.seed)


def _cmd_classify(args) -> int:
    poly = _load_poly(args)
    verdict = decide_plush(poly, policy=_policy_for(args))
    if args.json:
        _emit_json(verdict_to_dict(verdict, poly.nvars))
    else:
        print(verdict.report())
    return verdict.exit_code()


def _cmd_eval(args) -> int:
    import numpy as np

    poly = _load_poly(args)
    rng = np.random.default_rng(args.seed)
    X = random_tuple(poly.nvars, args.size, rng)
    H = random_tuple(poly.nvars, args.size, rng) if poly.has_directions() else None
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        value = evaluate(poly, X, H)
    if not np.isfinite(value).all():
        raise OutsideFloatRange(f"the value at the size-{args.size} tuple of seed "
                                f"{args.seed} leaves the float range")
    if args.json:
        payload = {"size": args.size, "seed": args.seed,
                   "X": [m.tolist() for m in X.entries],
                   "matrix": value.tolist()}
        if H is not None:
            payload["H"] = [m.tolist() for m in H.entries]
        _emit_json(payload)
    else:
        lines = _matrix_lines("X", X) + (_matrix_lines("H", H) if H is not None else [])
        print("\n".join(lines + ["result:"]))
        for row in value:
            print(" ".join(_format_float(v) for v in row))
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
