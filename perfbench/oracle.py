"""Independent checks of verdicts, run outside the timed region.

A certificate is re-expanded with the benchmark's own word-dict arithmetic
and compared with the input; a witness is replayed with a numpy evaluator
of the complex hessian that shares no code with ``ncplush.freealg``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from workloads import Poly, padd, pmul, ptrans

# a replayed eigenvalue must be this negative, and agree with the reported one
WITNESS_TOL = 1e-9
AGREE_RTOL = 1e-6

_LETTER = re.compile(r"x([1-9][0-9]*)(')?\Z")


def parse_text(text: str) -> Poly:
    """Parse the library's printed form (``2*x1'*x2 - 1/3``) into a word dict.

    Only direction-free letters are accepted; anything else raises ValueError.
    """
    text = text.strip()
    if text == "0":
        return {}
    sign = Fraction(1)
    if text.startswith("-"):
        sign, text = Fraction(-1), text[1:]
    parts = re.split(r" ([+-]) ", text)
    signed = [(sign, parts[0])] + [(Fraction(1 if op == "+" else -1), term)
                                   for op, term in zip(parts[1::2], parts[2::2])]
    out: Poly = {}
    for s, term in signed:
        factors = term.split("*")
        coeff = Fraction(1)
        if factors[0][:1].isdigit():
            coeff = Fraction(factors.pop(0))
        word = []
        for factor in factors:
            match = _LETTER.match(factor)
            if match is None:
                raise ValueError(f"unexpected factor {factor!r} in {text!r}")
            word.append((int(match.group(1)) - 1) << 2 | (1 if match.group(2) else 0))
        out = padd(out, {tuple(word): s * coeff})
    return out


def is_analytic(poly: Poly) -> bool:
    """Only untransposed x letters (no transposes, no direction letters)."""
    return all(code & 3 == 0 for word in poly for code in word)


def certificate_error(p: Poly, weights_f: Sequence[Fraction], fs: Sequence[Poly],
                      weights_k: Sequence[Fraction], ks: Sequence[Poly],
                      F: Poly) -> Optional[str]:
    """None when p = sum d f'f + sum e k k' + F + F' exactly with positive
    weights and analytic pieces; otherwise the reason it fails."""
    if len(weights_f) != len(fs) or len(weights_k) != len(ks):
        return "weights and pieces differ in number"
    if any(w <= 0 for w in (*weights_f, *weights_k)):
        return "a weight is not positive"
    if not all(is_analytic(piece) for piece in (*fs, *ks, F)):
        return "a piece is not analytic"
    expansion: Poly = {}
    for d, f in zip(weights_f, fs):
        expansion = padd(expansion, pmul(ptrans(f), f), d)
    for e, k in zip(weights_k, ks):
        expansion = padd(expansion, pmul(k, ptrans(k)), e)
    expansion = padd(padd(expansion, F), ptrans(F))
    if expansion != p:
        return "re-expansion differs from p"
    return None


def hessian_at(p: Poly, X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The complex hessian of p at (X, H): the t*s coefficient of
    p(X + tH, X' + sH'), computed by carrying the 1, t, s and t*s
    coefficients of each word's product letter by letter."""
    n = X.shape[1]
    out = np.zeros((n, n))
    zero = np.zeros((n, n))
    for word, coeff in p.items():
        a1, at, as_, ats = np.eye(n), zero, zero, zero
        for code in word:
            j = code >> 2
            if code & 1:  # x_j' -> X_j' + s H_j'
                m, d = X[j].T, H[j].T
                a1, at, as_, ats = a1 @ m, at @ m, as_ @ m + a1 @ d, ats @ m + at @ d
            else:         # x_j -> X_j + t H_j
                m, d = X[j], H[j]
                a1, at, as_, ats = a1 @ m, at @ m + a1 @ d, as_ @ m, ats @ m + as_ @ d
        out += float(coeff) * ats
    return out


def witness_error(p: Poly, g: int, X, H, eigenvalue: float) -> Optional[str]:
    """None when (X, H) replays to a negative hessian eigenvalue that agrees
    with the reported one; otherwise the reason it fails."""
    X = np.asarray(X, dtype=float)
    H = np.asarray(H, dtype=float)
    if X.ndim != 3 or X.shape[0] != g or X.shape[1] != X.shape[2] or X.shape != H.shape:
        return f"witness shapes {X.shape} and {H.shape} do not fit g={g}"
    if not (np.isfinite(X).all() and np.isfinite(H).all()):
        return "witness has non-finite entries"
    Q = hessian_at(p, X, H)
    replayed = float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[0])
    if replayed > -WITNESS_TOL:
        return f"replayed eigenvalue {replayed!r} is not negative"
    if abs(replayed - eigenvalue) > AGREE_RTOL * max(1.0, abs(eigenvalue)):
        return f"replayed eigenvalue {replayed!r} differs from reported {eigenvalue!r}"
    return None
