"""Numeric backend: evaluation, eigenvalues, sampling coherence."""

import numpy as np
import pytest

from ncplush.calculus import complex_hessian
from ncplush.errors import NotSymmetric, WrongBidegree
from ncplush.freealg import MatrixTuple, direct_sum, parse_poly
from ncplush.mmr import build_mmr
from ncplush.numeval import (
    MAX_MATRIX_SIZE,
    SamplePolicy,
    eval_middle_matrix,
    eval_quadratic,
    min_eigenvalue,
    quadratic_min_eigenvalue,
    random_tuple,
    symmetrize,
)

P = parse_poly


def test_eval_quadratic_gram_case():
    rng = np.random.default_rng(1)
    X = random_tuple(1, 3, rng)
    H = random_tuple(1, 3, rng)
    got = eval_quadratic(P("h1'*h1"), X, H)
    assert np.allclose(got, H.entries[0].T @ H.entries[0])
    assert min_eigenvalue(symmetrize(got)) >= -1e-12


def test_eval_quadratic_zero_and_bidegree_check():
    rng = np.random.default_rng(2)
    X = random_tuple(1, 2, rng)
    H = random_tuple(1, 2, rng)
    assert np.array_equal(eval_quadratic(P("0"), X, H), np.zeros((2, 2)))
    for text in ("h1*h1", "h1'*h1'", "h1*x1*h1'*h1'", "x1*h1'", "h1'*x1*h1 + x1"):
        with pytest.raises(WrongBidegree):
            eval_quadratic(P(text), X, H)
    assert eval_quadratic(P("h1'*x1*h1 + h1*x1'*h1'"), X, H).shape == (2, 2)


def test_eval_quadratic_negative_case():
    rng = np.random.default_rng(3)
    X = random_tuple(1, 1, rng)
    H = MatrixTuple([np.array([[1.0]])])
    assert quadratic_min_eigenvalue(P("0 - h1'*h1"), X, H) == pytest.approx(-1.0)


def test_eval_middle_matrix_identity_block():
    _, middle = build_mmr(P("h1'*h1"))
    X = MatrixTuple([np.zeros((2, 2))])
    assert np.allclose(eval_middle_matrix(middle, X), np.eye(2))


def test_eval_middle_matrix_hand_blocks():
    from ncplush.freealg import NcPoly
    from ncplush.mmr import MiddleMatrix

    rows = [[NcPoly.const(1, 1), P("x1'")], [P("x1"), P("x1*x1'")]]
    middle = MiddleMatrix(1, tuple(tuple(r) for r in rows))
    X = MatrixTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
    got = eval_middle_matrix(middle, X)
    want = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert np.allclose(got, want)
    eigs = np.linalg.eigvalsh(got)
    assert eigs[0] >= -1e-12 and np.sum(eigs > 1e-12) == 2


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)
    assert min_eigenvalue(np.diag([2.0, -5.0])) == pytest.approx(-5.0)
    assert min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)
    with pytest.raises(NotSymmetric):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_policy_validation_and_sizes():
    with pytest.raises(ValueError):
        SamplePolicy(())
    with pytest.raises(ValueError):
        SamplePolicy((1,), tol=0.0)
    for sizes in ((0,), (-2,), (1, MAX_MATRIX_SIZE + 1)):
        with pytest.raises(ValueError):
            SamplePolicy(sizes)
    with pytest.raises(ValueError):
        SamplePolicy((1,), samples_per_size=0)
    for tol in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(ValueError):
            SamplePolicy((1,), tol=tol)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SamplePolicy((1,), seed=-1)
    assert SamplePolicy(seed=2**100).rng() is not None
    assert SamplePolicy((1, MAX_MATRIX_SIZE), 1).sizes == (1, MAX_MATRIX_SIZE)
    assert SamplePolicy((2,)).sizes_for(1000) == (2,)
    assert SamplePolicy().sizes_for(4) == (1, 2, 3)
    assert SamplePolicy().sizes_for(8) == (1, 2, 3, 4, 5)
    assert SamplePolicy().sizes_for(1000)[-1] == MAX_MATRIX_SIZE


def test_positivity_transfer_coherence(small_corpus):
    # PSD-ness of q across samples agrees with PSD-ness of the middle matrix
    rng = np.random.default_rng(40)
    cases = [(complex_hessian(inst["p"]), True) for inst in small_corpus[:6]]
    cases.append((complex_hessian(P("x1'*x1*x1'*x1")), False))
    cases.append((complex_hessian(P("x1*x1'*x1 + x1'*x1*x1'")), False))
    tol = 1e-8
    for q, expect_psd in cases:
        if q.is_zero():
            continue
        _, middle = build_mmr(q)
        q_min = np.inf
        m_min = np.inf
        for n in (1, 2, 3):
            for _ in range(40):
                X = random_tuple(q.nvars, n, rng)
                H = random_tuple(q.nvars, n, rng)
                q_min = min(q_min, quadratic_min_eigenvalue(q, X, H))
                m_min = min(m_min, min_eigenvalue(
                    symmetrize(eval_middle_matrix(middle, X))))
        assert (q_min >= -tol) == expect_psd
        assert (m_min >= -tol) == expect_psd


def test_direct_sum_respect():
    rng = np.random.default_rng(41)
    q = complex_hessian(P("x1'*x1 + x1'*x1*x1'*x1"))
    X1, H1 = random_tuple(1, 2, rng), random_tuple(1, 2, rng)
    X2, H2 = random_tuple(1, 3, rng), random_tuple(1, 3, rng)
    joint = quadratic_min_eigenvalue(q, direct_sum([X1, X2]), direct_sum([H1, H2]))
    separate = min(quadratic_min_eigenvalue(q, X1, H1),
                   quadratic_min_eigenvalue(q, X2, H2))
    assert abs(joint - separate) < 1e-10
