"""Symbolic LDL' factorization: exactness, pivoting, obstructions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ncplush.calculus import complex_hessian
from ncplush.errors import DirectionLettersPresent, NotSymmetric
from ncplush.freealg import (
    NcPoly,
    is_analytic_word,
    is_antianalytic_word,
    parse_poly,
)
from ncplush.ldlt import LdltFactorization, Obstruction, ldlt_factor
from ncplush.mmr import block_view, build_mmr

P = parse_poly
C = NcPoly.const


def grid(g, rows):
    return [[P(e, g) if isinstance(e, str) else C(g, e) for e in row] for row in rows]


def permuted(rows, perm):
    return [[rows[i][j] for j in perm] for i in perm]


def assert_exact(rows, fac):
    assert permuted(rows, fac.perm) == fac.reconstruct()


def test_constant_diagonal_matrix():
    rows = grid(1, [[2, 0], [0, 3]])
    fac = ldlt_factor(rows)
    # largest-pivot rule takes the 3 first
    assert fac.perm == (1, 0)
    assert fac.diag_values() == [3, 2]
    assert all(fac.constant)
    assert fac.column(0) == [C(1, 1), C(1, 0)]
    assert_exact(rows, fac)


def test_single_schur_step():
    rows = grid(1, [["1", "x1'"], ["x1", "x1*x1'"]])
    fac = ldlt_factor(rows)
    assert fac.perm == (0, 1)
    assert fac.diag_values() == [1, 0]
    assert fac.lower[1][0] == P("x1")
    assert fac.column(0) == [C(1, 1), P("x1")]
    assert_exact(rows, fac)


def test_obstruction_when_no_constant_pivot():
    result = ldlt_factor(grid(1, [["x1*x1'"]]))
    assert isinstance(result, Obstruction)
    assert result.residual[0][0] == P("x1*x1'")
    assert result.perm_prefix == ()
    assert "obstruction" in result.dump()


def test_obstruction_carries_prefix_multipliers():
    rows = grid(1, [[1, 1, 1], [1, 1, 2], [1, 2, 1]])
    result = ldlt_factor(rows)
    assert isinstance(result, Obstruction)
    assert result.perm_prefix == (0,) and result.residual_indices == (1, 2)
    # Pi M Pi' = L diag(D_prefix, residual) L' over the order prefix + residual
    order = result.perm_prefix + result.residual_indices
    L = [[e.constant_value() for e in row] for row in result.lower]
    middle = [[1, 0, 0]] + [[0] + [e.constant_value() for e in row]
                            for row in result.residual]
    for i in range(3):
        for j in range(3):
            product = sum(L[i][a] * middle[a][b] * L[j][b]
                          for a in range(3) for b in range(3))
            assert product == rows[order[i]][order[j]].constant_value()


def test_validation_errors():
    with pytest.raises(NotSymmetric):
        ldlt_factor(grid(1, [["1", "x1"], ["x1", "1"]]))  # (0,1) must be x1'
    with pytest.raises(DirectionLettersPresent):
        ldlt_factor(grid(1, [["h1'*h1"]]))


def test_identity_lower_columns():
    fac = ldlt_factor(grid(1, [[5, 0, 0], [0, 1, 0], [0, 0, 2]]))
    for i in range(3):
        col = fac.column(i)
        assert col[i] == C(1, 1)
        assert sum(0 if entry.is_zero() else 1 for entry in col) == 1
    with pytest.raises(IndexError):
        fac.column(3)


def _numeric_ldlt_largest_pivot(a):
    """Float LDL' with the same pivot rule, as an independent oracle."""
    a = a.astype(float).copy()
    n = a.shape[0]
    perm = list(range(n))
    remaining = list(range(n))
    lower = np.eye(n)
    diag = np.zeros(n)
    order = []
    while remaining:
        piv = max(remaining, key=lambda i: (abs(a[i, i]), -i))
        k = len(order)
        order.append(piv)
        remaining.remove(piv)
        diag[k] = a[piv, piv]
        for r in remaining:
            factor = a[r, piv] / a[piv, piv]
            lower[r, piv] = factor
        for i in remaining:
            for j in remaining:
                a[i, j] -= a[i, piv] * a[piv, j] / a[piv, piv]
    # reindex lower into pivot coordinates
    out = np.eye(n)
    for r_pos, r_orig in enumerate(order):
        for c_pos, c_orig in enumerate(order):
            if c_pos < r_pos:
                out[r_pos, c_pos] = lower[r_orig, c_orig]
    return perm, order, out, diag


def test_matches_numeric_factorization_on_constant_matrices():
    rng = random.Random(61)
    for _ in range(10):
        b = np.array([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(3)] for _ in range(3)], dtype=object)
        a = b @ b.T + np.diag([Fraction(k + 1) for k in range(3)])
        rows = [[C(1, a[i, j]) for j in range(3)] for i in range(3)]
        fac = ldlt_factor(rows)
        assert_exact(rows, fac)
        _, order, l_num, d_num = _numeric_ldlt_largest_pivot(
            np.array([[float(a[i, j]) for j in range(3)] for i in range(3)]))
        assert list(fac.perm) == order
        assert np.allclose([float(v) for v in fac.diag_values()], d_num, atol=1e-12)
        l_sym = np.array([[float(fac.lower[i][j].constant_value())
                           for j in range(3)] for i in range(3)])
        assert np.allclose(l_sym, l_num, atol=1e-12)


def test_plush_corpus_factorizations(small_corpus):
    for inst in small_corpus:
        q = complex_hessian(inst["p"])
        if q.is_zero():
            continue
        border, middle = build_mmr(q)
        blocks = block_view(middle, border)
        for block, families in ((blocks.q1, is_antianalytic_word),
                                (blocks.q5, is_analytic_word)):
            if not block:
                continue
            fac = ldlt_factor(block)
            assert isinstance(fac, LdltFactorization)
            assert_exact(block, fac)
            values = fac.diag_values()
            assert all(v is not None and v >= 0 for v in values)
            # constant-pivot columns stay on one side of the letter split
            for k, value in enumerate(values):
                if value and value > 0:
                    for entry in fac.column(k):
                        assert all(families(w) for w in entry.terms)


def test_empty_and_zero_matrices():
    fac = ldlt_factor(grid(1, [[0, 0], [0, 0]]))
    assert fac.diag_values() == [0, 0]
    assert fac.perm == (0, 1)
    with pytest.raises(ValueError):
        ldlt_factor([])
