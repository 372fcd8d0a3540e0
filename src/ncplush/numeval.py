"""Numeric backend: matrix-tuple sampling, quadratic and middle-matrix
evaluation, and eigenvalue tests.

Floats live only here.  Random tuples have i.i.d. uniform [-1, 1] entries
with no symmetry imposed, and every sampler takes an explicit seed so runs
replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from .errors import NotSymmetric, WrongBidegree
from .freealg import MatrixTuple, NcPoly, evaluate
from .mmr import MiddleMatrix

# Largest matrix size a sample policy or ``ncplush eval`` may use: a tuple
# costs g*n*n floats, and the witness search draws two per sample.
MAX_MATRIX_SIZE = 64


@dataclass(frozen=True)
class SamplePolicy:
    """Sampling plan for positivity and witness searches."""

    sizes: tuple[int, ...]
    samples_per_size: int = 200
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("sample policy needs at least one size")
        if not all(1 <= n <= MAX_MATRIX_SIZE for n in self.sizes):
            raise ValueError(f"matrix sizes must lie in 1..{MAX_MATRIX_SIZE}, "
                             f"got {list(self.sizes)}")
        if self.samples_per_size < 1:
            raise ValueError("samples per size must be >= 1")
        if not (isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerance must be positive and finite")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def default_policy(hessian_degree: int, seed: int = 0) -> SamplePolicy:
    """Witness-search default: sizes 1..max(3, ceil(d/2)+1), 200 samples each,
    capped at ``MAX_MATRIX_SIZE``."""
    n_max = min(max(3, ceil(hessian_degree / 2) + 1), MAX_MATRIX_SIZE)
    return SamplePolicy(tuple(range(1, n_max + 1)), 200, 1e-8, seed)


def random_tuple(g: int, n: int, rng: np.random.Generator) -> MatrixTuple:
    return MatrixTuple(rng.uniform(-1.0, 1.0, (g, n, n)))


def eval_quadratic(q: NcPoly, X: MatrixTuple, H: MatrixTuple) -> np.ndarray:
    """Evaluate a hessian-shaped quadratic (one h and one h' per term)."""
    for word in q.terms:
        hs = sum(1 for c in word if c & 2 and not c & 1)
        hts = sum(1 for c in word if c & 2 and c & 1)
        if (hs, hts) != (1, 1):
            raise WrongBidegree(
                "eval_quadratic expects bidegree (1,1) in the direction letters")
    if q.is_zero():
        return np.zeros((X.n, X.n))
    return evaluate(q, X, H)


def eval_middle_matrix(M: MiddleMatrix, X: MatrixTuple) -> np.ndarray:
    """Blockwise evaluation: an (N*n) x (N*n) real symmetric matrix."""
    size = M.size
    n = X.n
    out = np.zeros((size * n, size * n))
    for i in range(size):
        for j in range(size):
            entry = M.entries[i][j]
            if not entry.is_zero():
                out[i * n:(i + 1) * n, j * n:(j + 1) * n] = evaluate(entry, X)
    return out


def symmetrize(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def min_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense eigensolve)."""
    A = np.asarray(A, dtype=float)
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise NotSymmetric("min_eigenvalue expects a symmetric matrix")
    return float(np.linalg.eigvalsh(A)[0])


def quadratic_min_eigenvalue(q: NcPoly, X: MatrixTuple, H: MatrixTuple) -> float:
    """Min eigenvalue of the symmetrized evaluation of q at (X, H)."""
    return min_eigenvalue(symmetrize(eval_quadratic(q, X, H)))
