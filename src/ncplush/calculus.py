"""Noncommutative differentiation.

All derivatives here are t-linearizations: substitute ``x_j -> x_j + t*h_j``
(and ``x_j' -> x_j' + t*h_j'``) and read off a coefficient of t.  On the word
level that means summing over replacements of letter occurrences, so every
operator below is a finite combinatorial sum with exact coefficients.

The complex hessian is the mixed second derivative where the two expansion
parameters are kept independent: untransposed occurrences couple to ``t`` and
transposed ones to ``s``, and we take the coefficient of ``t*s``.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Callable

from .errors import AlreadyDirectional
from .freealg import KIND_H, NcPoly, Word, lx, lxt


def _require_direction_free(p: NcPoly, op: str) -> None:
    if p.has_directions():
        raise AlreadyDirectional(f"{op} expects a polynomial without h-letters")


def _deriv_letters(p: NcPoly, hit: Callable[[int], bool], op: str) -> NcPoly:
    """Sum over the letter occurrences c with hit(c) of the word with that
    one occurrence replaced by its direction letter."""
    _require_direction_free(p, op)
    out: dict[Word, int] = {}
    for word, coeff in p.terms.items():
        for i, c in enumerate(word):
            if hit(c):
                w = word[:i] + (c | KIND_H,) + word[i + 1:]
                out[w] = out.get(w, 0) + coeff
    return NcPoly._raw(p.nvars, out)


def deriv_xj(p: NcPoly, j: int) -> NcPoly:
    """Directional derivative with respect to x_j in direction h_j:
    each occurrence of x_j is replaced (one at a time) by h_j; x_j'
    occurrences are untouched."""
    target = lx(j)
    return _deriv_letters(p, lambda c: c == target, "deriv_xj")


def deriv_xjt(p: NcPoly, j: int) -> NcPoly:
    """Directional derivative with respect to x_j' in direction h_j'."""
    target = lxt(j)
    return _deriv_letters(p, lambda c: c == target, "deriv_xjt")


def full_derivative(p: NcPoly) -> NcPoly:
    """First full derivative: every letter occurrence is replaced, one at a
    time, by its matching direction letter.  Homogeneous of degree 1 in h, h'
    and symmetric whenever p is."""
    return _deriv_letters(p, lambda c: True, "full_derivative")


def complex_hessian(p: NcPoly) -> NcPoly:
    """Mixed second derivative: for every term, one untransposed occurrence
    becomes h and one transposed occurrence becomes h', summed over all such
    pairs.  Every output term has exactly one h and one h'."""
    _require_direction_free(p, "complex_hessian")
    out: dict[Word, int] = {}
    for word, coeff in p.terms.items():
        plain = [i for i, c in enumerate(word) if not (c & 1)]
        transposed = [i for i, c in enumerate(word) if c & 1]
        for i in plain:
            for j in transposed:
                w = list(word)
                w[i] |= KIND_H
                w[j] |= KIND_H
                w = tuple(w)
                out[w] = out.get(w, 0) + coeff
    return NcPoly._raw(p.nvars, out)


def full_hessian(p: NcPoly) -> NcPoly:
    """Second full derivative: twice the t^2-coefficient of p(x+th, x'+th').
    Equals 2*complex_hessian(p) plus the two pure second-derivative pieces."""
    _require_direction_free(p, "full_hessian")
    return nth_derivative(p, 2)


def nth_derivative(p: NcPoly, order: int) -> NcPoly:
    """order! times the t^order coefficient of p(x+th, x'+th').

    Existing direction letters are inert.  Orders beyond the degree give 0.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return p
    fact = factorial(order)
    out: dict[Word, int] = {}
    for word, coeff in p.terms.items():
        positions = [i for i, c in enumerate(word) if not (c & 2)]
        if len(positions) < order:
            continue
        scaled = coeff * fact
        for subset in combinations(positions, order):
            w = list(word)
            for i in subset:
                w[i] |= KIND_H
            w = tuple(w)
            out[w] = out.get(w, 0) + scaled
    return NcPoly._raw(p.nvars, out)
