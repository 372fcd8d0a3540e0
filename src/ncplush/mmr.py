"""Border-vector / middle-matrix representation of direction-quadratics.

Any symmetric polynomial f that is homogeneous of degree two in the
direction letters factors as f = V' M V, where V is a vector of monomials
each led by a single direction letter and M is a symmetric matrix of
direction-free polynomials.

Each term of f splits uniquely: writing the term as  a d1 b d2 c  with d1, d2
its two direction letters and a, b, c direction-free words, the left border
monomial is (a d1)' (direction letter leading after involution), the right
border monomial is d2 c, and b is the middle-matrix word.  Half of the
coefficient goes to the (left, right) slot and half (involuted) to the
(right, left) slot, which makes M symmetric; because f is symmetric the two
halves recombine so that V' M V reproduces f exactly.

Border monomials are stratified by their whole word:

    A   h-led, fully untransposed        A_k holds tails of length k
    B   h-led, some transposed letter
    At  h'-led, fully transposed
    Bt  h'-led, some untransposed letter

stacked in the order (A, B, At, Bt), descending k inside each family,
lexicographic inside each stratum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    NotQuadraticInDirections,
    NotSymmetric,
    UnsplittableMonomial,
)
from .freealg import (
    NcPoly,
    Word,
    format_word,
    h_count,
    is_analytic_word,
    is_antianalytic_word,
    word_involution,
)

_FAMILY_ORDER = {"A": 0, "B": 1, "At": 2, "Bt": 3}


class StratumTag(NamedTuple):
    family: str  # "A" | "B" | "At" | "Bt"
    k: int       # tail length; the border monomial has degree k + 1


def stratum_of(word: Word) -> StratumTag:
    """Stratum of a border monomial (direction letter leading)."""
    head = word[0]
    if not head & 2:
        raise UnsplittableMonomial(f"border monomial {format_word(word)} "
                                   "does not start with a direction letter")
    k = len(word) - 1
    if head & 1:
        return StratumTag("At" if is_antianalytic_word(word) else "Bt", k)
    return StratumTag("A" if is_analytic_word(word) else "B", k)


def _border_sort_key(word: Word):
    tag = stratum_of(word)
    return (_FAMILY_ORDER[tag.family], -tag.k,
            tuple((c & 3, c >> 2) for c in word))


@dataclass(frozen=True)
class BorderVector:
    """Ordered distinct border monomials with their stratum tags."""

    nvars: int
    entries: tuple[Word, ...]
    strata: tuple[StratumTag, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def max_degree(self) -> int:
        return max((len(w) for w in self.entries), default=0)

    def family_indices(self, family: str) -> list[int]:
        return [i for i, tag in enumerate(self.strata) if tag.family == family]

    def dump(self) -> str:
        return "\n".join(f"{format_word(word)}    [{tag.family}_{tag.k}]"
                         for word, tag in zip(self.entries, self.strata))


@dataclass(frozen=True)
class MiddleMatrix:
    """Symmetric matrix of direction-free polynomials."""

    nvars: int
    entries: tuple[tuple[NcPoly, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def grid(self) -> list[list[NcPoly]]:
        return [list(row) for row in self.entries]

    def dump(self) -> str:
        return "\n".join("[ " + " | ".join(str(e) for e in row) + " ]"
                         for row in self.entries)


def build_mmr(f: NcPoly) -> tuple[BorderVector, MiddleMatrix]:
    """Minimal middle-matrix representation of a symmetric direction-quadratic.

    The border contains exactly the monomials some term of f needs, each once
    (so they are distinct and no entry is a scalar multiple of another), and
    V' M V re-expands to f exactly.
    """
    for word in f.terms:
        if h_count(word) != 2:
            raise NotQuadraticInDirections(
                f"term {format_word(word)} has direction degree {h_count(word)}, need 2")
    if not f.is_symmetric():
        raise NotSymmetric("middle-matrix representation needs a symmetric input")

    half = Fraction(1, 2)
    slots: dict[tuple[Word, Word], dict[Word, Fraction]] = {}

    def put(u: Word, v: Word, mid: Word, coeff: Fraction) -> None:
        cell = slots.setdefault((u, v), {})
        s = cell.get(mid, 0) + coeff
        if s:
            cell[mid] = s
        else:
            cell.pop(mid, None)

    for word, coeff in f.terms.items():
        d1, d2 = (i for i, c in enumerate(word) if c & 2)
        u = word_involution(word[:d1 + 1])
        mid = word[d1 + 1:d2]
        v = word[d2:]
        put(u, v, mid, coeff * half)
        put(v, u, word_involution(mid), coeff * half)

    used = sorted({w for pair in slots for w in pair}, key=_border_sort_key)
    index = {w: i for i, w in enumerate(used)}
    size = len(used)
    zero = NcPoly.zero(f.nvars)
    grid: list[list[NcPoly]] = [[zero] * size for _ in range(size)]
    for (u, v), cell in slots.items():
        if cell:
            grid[index[u]][index[v]] = NcPoly._raw(f.nvars, cell)

    border = BorderVector(f.nvars, tuple(used),
                          tuple(stratum_of(w) for w in used))
    middle = MiddleMatrix(f.nvars, tuple(tuple(row) for row in grid))
    return border, middle


def expand_mmr(border: BorderVector, middle: MiddleMatrix) -> NcPoly:
    """Re-expand V' M V; the reconstruction identity for tests and audits."""
    g = middle.nvars
    out = NcPoly.zero(g)
    for i, u in enumerate(border.entries):
        left = NcPoly.monomial(g, word_involution(u))
        for j, v in enumerate(border.entries):
            entry = middle.entries[i][j]
            if not entry.is_zero():
                out = out + left * entry * NcPoly.monomial(g, v)
    return out


@dataclass(frozen=True)
class QBlocks:
    """The six named submatrices of a middle matrix, aligned to the strata.

    Dimension-0 blocks appear as empty lists when a family is absent.
    """

    q1: list  # A  x A
    q2: list  # A  x B
    q4: list  # B  x B
    q5: list  # At x At
    q6: list  # At x Bt
    q8: list  # Bt x Bt


def _submatrix(middle: MiddleMatrix, rows: list[int], cols: list[int]) -> list:
    return [[middle.entries[i][j] for j in cols] for i in rows]


def block_view(middle: MiddleMatrix, border: BorderVector) -> QBlocks:
    """Slice the middle matrix along the stratum families."""
    a = border.family_indices("A")
    b = border.family_indices("B")
    at = border.family_indices("At")
    bt = border.family_indices("Bt")
    return QBlocks(
        q1=_submatrix(middle, a, a),
        q2=_submatrix(middle, a, b),
        q4=_submatrix(middle, b, b),
        q5=_submatrix(middle, at, at),
        q6=_submatrix(middle, at, bt),
        q8=_submatrix(middle, bt, bt),
    )


def check_degree_bound(border: BorderVector, hessian_degree: int) -> bool:
    """True iff every border monomial has degree at most floor(d/2)."""
    return border.max_degree() <= hessian_degree // 2
