"""Derivatives and hessians, checked against hand expansions and finite
differences.

Hand oracles: the frozen expectations below come from expanding
(x+th)(x+th) etc. by hand and collecting t-coefficients; the matrix-level
finite difference test provides the independent numeric cross-check.
"""

import random

import numpy as np
import pytest

from ncplush.calculus import (
    complex_hessian,
    deriv_xj,
    deriv_xjt,
    full_derivative,
    full_hessian,
    nth_derivative,
)
from ncplush.errors import AlreadyDirectional
from ncplush.freealg import MatrixTuple, NcPoly, evaluate, parse_poly

from conftest import random_poly

P = parse_poly


def test_deriv_xj_examples():
    assert deriv_xj(P("x1*x2", 2), 1) == P("h1*x2", 2)
    # (x+th)(x+th) -> coefficient of t is hx + xh
    assert deriv_xj(P("x1*x1"), 1) == P("h1*x1 + x1*h1")
    # transposed occurrences are untouched
    assert deriv_xj(P("x1'*x1"), 1) == P("x1'*h1")
    assert deriv_xjt(P("x1'*x1"), 1) == P("h1'*x1")


def test_deriv_rejects_directional_input():
    for op in (lambda p: deriv_xj(p, 1), full_derivative, complex_hessian, full_hessian):
        with pytest.raises(AlreadyDirectional):
            op(P("h1*x1"))


def test_full_derivative_monomial_pattern():
    # each letter replaced once, transpose flags preserved
    got = full_derivative(P("3*x1*x2'*x3", 3))
    assert got == P("3*h1*x2'*x3 + 3*x1*h2'*x3 + 3*x1*x2'*h3", 3)
    assert full_derivative(NcPoly.const(1, 5)) == NcPoly.zero(1)
    assert full_derivative(P("x1'*x1")) == P("h1'*x1 + x1'*h1")


def test_complex_hessian_examples():
    assert complex_hessian(P("x1'*x1")) == P("h1'*h1")
    assert complex_hessian(P("x1*x1'")) == P("h1*h1'")
    assert complex_hessian(P("x1 + x1'")) == NcPoly.zero(1)
    got = complex_hessian(P("x1'*x1*x1'*x1"))
    want = P("h1'*h1*x1'*x1 + h1'*x1*x1'*h1 + x1'*h1*h1'*x1 + x1'*x1*h1'*h1")
    assert got == want


def test_full_hessian_examples():
    assert full_hessian(P("x1'*x1")) == P("2*h1'*h1")
    assert full_hessian(P("x1*x1")) == P("2*h1*h1")
    assert full_hessian(P("x1")) == NcPoly.zero(1)


def test_nth_derivative_examples():
    p = P("x1*x2 + x1'", 2)
    assert nth_derivative(p, 0) == p
    assert nth_derivative(p, 1) == full_derivative(p)
    assert nth_derivative(P("x1*x2", 2), 2) == P("2*h1*h2", 2)
    assert nth_derivative(P("x1*x2", 2), 3) == NcPoly.zero(2)


def test_linearity_of_operators():
    rng = random.Random(31)
    for _ in range(15):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2)
        for op in (full_derivative, complex_hessian, full_hessian,
                   lambda r: deriv_xj(r, 1), lambda r: nth_derivative(r, 2)):
            assert op(p + 2 * q) == op(p) + 2 * op(q)


def test_hessian_output_bidegree():
    rng = random.Random(32)
    for _ in range(20):
        q = complex_hessian(random_poly(rng, 3, max_deg=4))
        for word in q.terms:
            assert sum(1 for c in word if c & 2 and not c & 1) == 1  # one h
            assert sum(1 for c in word if c & 2 and c & 1) == 1      # one h'


def test_symmetry_preservation():
    rng = random.Random(33)
    for _ in range(15):
        p = random_poly(rng, 2)
        p = p + p.T
        assert p.is_symmetric()
        for op in (full_derivative, complex_hessian, full_hessian):
            assert op(p).is_symmetric()


def test_full_hessian_decomposition():
    # p'' = 2q + pure-tt + pure-ss, with the pure pieces computed here by an
    # independent ordered-pair expansion restricted to one letter class.
    def pure_piece(p, transposed):
        out = NcPoly.zero(p.nvars)
        for word, coeff in p.terms.items():
            spots = [i for i, c in enumerate(word) if bool(c & 1) == transposed]
            for i in spots:
                for j in spots:
                    if i == j:
                        continue
                    w = list(word)
                    w[i] |= 2
                    w[j] |= 2
                    out = out + NcPoly.monomial(p.nvars, tuple(w), coeff)
        return out

    rng = random.Random(34)
    for _ in range(10):
        p = random_poly(rng, 2)
        want = 2 * complex_hessian(p) + pure_piece(p, False) + pure_piece(p, True)
        assert full_hessian(p) == want


def test_complex_hessian_matches_finite_differences():
    # mixed second difference of p(X + tH, X' + sH') via the 4-point stencil
    from conftest import mixed_second_difference

    rng = random.Random(35)
    nrng = np.random.default_rng(35)
    for _ in range(8):
        p = random_poly(rng, 2, max_deg=3)
        q = complex_hessian(p)
        X = MatrixTuple(nrng.uniform(-1, 1, (2, 3, 3)))
        H = MatrixTuple(nrng.uniform(-1, 1, (2, 3, 3)))
        stencil = mixed_second_difference(p, X, H)
        exact = evaluate(q, X, H) if not q.is_zero() else np.zeros((3, 3))
        denom = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(stencil - exact)) / denom < 1e-6
