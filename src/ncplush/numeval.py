"""Numeric backend: matrix-tuple sampling, quadratic and middle-matrix
evaluation, and eigenvalue tests.

The float side of the package is this module together with
``freealg.evaluate``/``MatrixTuple``, ``witness.float_tuple`` and
``ncplush eval``; each imports numpy on first use, so a certificate, which
is exact, never loads it.  Random tuples have i.i.d. uniform [-1, 1] entries
with no symmetry imposed, and every sampler takes an explicit seed so runs
replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite
from typing import TYPE_CHECKING, Optional

from .errors import NotSymmetric, WrongBidegree
from .freealg import KIND_H, KIND_HT, MatrixTuple, NcPoly, evaluate
from .mmr import MiddleMatrix

if TYPE_CHECKING:
    import numpy as np

# Largest matrix size a sample policy or ``ncplush eval`` may use: a tuple
# costs g*n*n floats, and the witness search draws two per sample.
MAX_MATRIX_SIZE = 64


@dataclass(frozen=True)
class SamplePolicy:
    """Sampling plan for the witness search.

    ``sizes=None`` sizes the search from the hessian (see ``sizes_for``).
    """

    sizes: Optional[tuple[int, ...]] = None
    samples_per_size: int = 200
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.sizes is not None and not self.sizes:
            raise ValueError("sample policy needs at least one size")
        if not all(1 <= n <= MAX_MATRIX_SIZE for n in self.sizes or ()):
            raise ValueError(f"matrix sizes must lie in 1..{MAX_MATRIX_SIZE}, "
                             f"got {list(self.sizes)}")
        if self.samples_per_size < 1:
            raise ValueError("samples per size must be >= 1")
        if not (isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def sizes_for(self, hessian_degree: int) -> tuple[int, ...]:
        """The given sizes, else 1..max(3, ceil(d/2)+1) for hessian degree d,
        capped at ``MAX_MATRIX_SIZE``."""
        if self.sizes is not None:
            return self.sizes
        return tuple(range(1, min(max(3, ceil(hessian_degree / 2) + 1),
                                  MAX_MATRIX_SIZE) + 1))

    def rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(self.seed)


def random_tuple(g: int, n: int, rng: np.random.Generator) -> MatrixTuple:
    return MatrixTuple(rng.uniform(-1.0, 1.0, (g, n, n)))


def check_bidegree(q: NcPoly) -> None:
    """Raise WrongBidegree unless every term has one h and one h'."""
    for word in q.terms:
        kinds = [c & 3 for c in word]
        if kinds.count(KIND_H) != 1 or kinds.count(KIND_HT) != 1:
            raise WrongBidegree(
                "a hessian-shaped quadratic needs bidegree (1,1) in the direction letters")


def eval_quadratic(q: NcPoly, X: MatrixTuple, H: MatrixTuple) -> np.ndarray:
    """Evaluate a hessian-shaped quadratic (one h and one h' per term)."""
    check_bidegree(q)
    return evaluate(q, X, H)


def eval_middle_matrix(M: MiddleMatrix, X: MatrixTuple) -> np.ndarray:
    """Blockwise evaluation: an (N*n) x (N*n) real symmetric matrix."""
    import numpy as np

    size = M.size
    n = X.n
    out = np.zeros((size * n, size * n))
    for i in range(size):
        for j in range(size):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = evaluate(M.entries[i][j], X)
    return out


def symmetrize(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def min_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense eigensolve)."""
    import numpy as np

    A = np.asarray(A, dtype=float)
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise NotSymmetric("min_eigenvalue expects a symmetric matrix")
    return float(np.linalg.eigvalsh(A)[0])


def quadratic_min_eigenvalue(q: NcPoly, X: MatrixTuple, H: MatrixTuple, *,
                             check: bool = True) -> float:
    """Min eigenvalue of the symmetrized evaluation of q at (X, H).

    ``check=False`` skips the bidegree check, for a caller that ran
    ``check_bidegree(q)`` once before evaluating the same q many times.
    """
    if check:
        check_bidegree(q)
    return min_eigenvalue(symmetrize(evaluate(q, X, H)))
