"""Exact symbolic LDL' factorization with constant pivots.

The factorization pivots only on diagonal entries that are nonzero rational
constants: permute such an entry to the front, divide its column by it, and
take the Schur complement  C - B A^{-1} B'  of the remaining block.  When the
residual is entirely zero the factorization closes with zero diagonal
entries; when it is nonzero but offers no constant pivot the routine returns
an :class:`Obstruction` carrying the residual and the multipliers of the
pivots already taken (for positive inputs from the certification pipeline
this never happens, so an obstruction is itself a refutation signal).

Pivot choice is deterministic: largest absolute constant first, ties to the
lowest original index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import DirectionLettersPresent, NotSymmetric
from .freealg import NcPoly
from .mmr import MiddleMatrix

Grid = list[list[NcPoly]]


@dataclass(frozen=True)
class LdltFactorization:
    """Permutation, unit lower triangular L, and diagonal D with
    Pi M Pi' = L D L' exactly.

    ``perm[i]`` is the original index sitting at pivot position i, so the
    permuted matrix is ``M[perm[i]][perm[j]]``.  ``constant[i]`` flags
    whether ``diag[i]`` is a rational constant (always true on the
    constant-pivot path, zeros included).
    """

    nvars: int
    perm: tuple[int, ...]
    lower: tuple[tuple[NcPoly, ...], ...]
    diag: tuple[NcPoly, ...]
    constant: tuple[bool, ...]

    @property
    def size(self) -> int:
        return len(self.perm)

    def column(self, i: int) -> list[NcPoly]:
        """L e_i, the i-th column of L (0-based)."""
        if not 0 <= i < self.size:
            raise IndexError(f"column {i} out of range for size {self.size}")
        return [self.lower[r][i] for r in range(self.size)]

    def diag_values(self) -> list[Fraction]:
        """The diagonal as rationals (valid when every entry is constant)."""
        return [entry.constant_value() for entry in self.diag]

    def reconstruct(self) -> Grid:
        """The product L D L' as a grid, for exactness audits."""
        n = self.size
        zero = NcPoly.zero(self.nvars)
        out: Grid = [[zero] * n for _ in range(n)]
        cols = [self.column(k) for k in range(n)]
        for k in range(n):
            dk = self.diag[k]
            if dk.is_zero():
                continue
            for i in range(n):
                li = cols[k][i]
                if li.is_zero():
                    continue
                for j in range(n):
                    lj = cols[k][j]
                    if not lj.is_zero():
                        out[i][j] = out[i][j] + li * dk * lj.T
        return out

    def dump(self) -> str:
        lines = [f"perm: {list(self.perm)}",
                 "D: [ " + " | ".join(str(d) for d in self.diag) + " ]",
                 "L:"]
        for row in self.lower:
            lines.append("[ " + " | ".join(str(e) for e in row) + " ]")
        return "\n".join(lines)


@dataclass(frozen=True)
class Obstruction:
    """A nonzero residual with no constant diagonal pivot.

    ``residual`` is the current Schur complement over ``residual_indices``
    (original positions, in order); ``perm_prefix`` lists the pivots already
    taken.  ``lower`` is the unit lower triangular L of those pivots over the
    order ``perm_prefix + residual_indices``; its residual columns are those
    of the identity, so with Pi that order,
    Pi M Pi' = L diag(D_prefix, residual) L'.
    """

    nvars: int
    perm_prefix: tuple[int, ...]
    residual_indices: tuple[int, ...]
    residual: tuple[tuple[NcPoly, ...], ...]
    lower: tuple[tuple[NcPoly, ...], ...]

    def dump(self) -> str:
        lines = [f"obstruction after {len(self.perm_prefix)} pivot(s); "
                 f"residual on positions {list(self.residual_indices)}:"]
        for row in self.residual:
            lines.append("[ " + " | ".join(str(e) for e in row) + " ]")
        return "\n".join(lines)


def _as_grid(matrix: Union[MiddleMatrix, Sequence[Sequence[NcPoly]]]
             ) -> tuple[int, Grid]:
    if isinstance(matrix, MiddleMatrix):
        rows = matrix.grid()
    else:
        rows = [list(row) for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("matrix must be nonempty")
    return rows[0][0].nvars, rows


def ldlt_factor(matrix: Union[MiddleMatrix, Sequence[Sequence[NcPoly]]]
                ) -> Union[LdltFactorization, Obstruction]:
    """Factor a symmetric matrix of direction-free polynomials."""
    if isinstance(matrix, MiddleMatrix) and matrix.size == 0:
        return LdltFactorization(matrix.nvars, (), (), (), ())
    g, rows = _as_grid(matrix)
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if rows[i][j].has_directions():
                raise DirectionLettersPresent(
                    f"entry ({i},{j}) contains direction letters")
            if rows[i][j] != rows[j][i].T:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) "
                                   "are not involution-transposes")

    work: dict[tuple[int, int], NcPoly] = {
        (i, j): rows[i][j] for i in range(n) for j in range(n)}
    remaining = list(range(n))
    order: list[int] = []
    diag: list[NcPoly] = []
    below: dict[tuple[int, int], NcPoly] = {}  # (row original, pivot original)
    zero = NcPoly.zero(g)

    while remaining:
        if all(work[(i, j)].is_zero() for i in remaining for j in remaining):
            order.extend(remaining)
            diag.extend([zero] * len(remaining))
            break
        candidates = []
        for i in remaining:
            value = work[(i, i)].constant_value()
            if value is not None and value != 0:
                candidates.append((i, value))
        if not candidates:
            idx = tuple(remaining)
            residual = tuple(tuple(work[(i, j)] for j in remaining)
                             for i in remaining)
            return Obstruction(g, tuple(order), idx, residual,
                               _unit_lower(g, order + remaining, below))
        pivot, value = max(candidates, key=lambda iv: (abs(iv[1]), -iv[0]))
        order.append(pivot)
        diag.append(NcPoly.const(g, value))
        remaining.remove(pivot)
        inv = Fraction(1) / value
        col = {r: work[(r, pivot)] for r in remaining
               if not work[(r, pivot)].is_zero()}
        for i, wi in col.items():
            scaled = below[(i, pivot)] = wi * inv
            for j in remaining:
                wj = work[(pivot, j)]
                if not wj.is_zero():
                    work[(i, j)] = work[(i, j)] - scaled * wj

    return LdltFactorization(
        g, tuple(order), _unit_lower(g, order, below), tuple(diag),
        tuple(d.constant_value() is not None for d in diag))


def _unit_lower(g: int, order: list[int], below: dict[tuple[int, int], NcPoly]
                ) -> tuple[tuple[NcPoly, ...], ...]:
    """Unit lower triangular L over ``order`` from the stored multipliers
    (keyed by original row and pivot positions)."""
    n = len(order)
    zero, one = NcPoly.zero(g), NcPoly.const(g, 1)
    lower: Grid = [[zero] * n for _ in range(n)]
    for a in range(n):
        lower[a][a] = one
        for b in range(a):
            entry = below.get((order[a], order[b]))
            if entry is not None:
                lower[a][b] = entry
    return tuple(tuple(row) for row in lower)
