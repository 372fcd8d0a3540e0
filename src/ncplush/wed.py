"""Wed-class combinatorics: recognizing hessians and directional derivatives.

Two monomials with one h and one h' each are *Levi wed* when they share the
same base word (replace h_j -> x_j and h_k' -> x_k') and differ only in which
untransposed position carries the h and which transposed position carries the
h'.  A polynomial is a complex hessian exactly when every term has one h and
one h' and every Levi class present is complete with a common coefficient.

Monomials with a single direction letter are *1-wed* when their base words
agree; a polynomial is a directional derivative exactly when its 1-wed
classes are complete with common coefficients.  The marker kind follows the
letter it replaces, so one class can mix h- and h'-carrying members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import MixedLetters, NotADerivative, WrongBidegree
from .freealg import (
    KIND_H,
    NcPoly,
    Word,
    is_analytic_word,
    is_antianalytic_word,
    word_key,
)


def _direction_positions(word: Word) -> tuple[list[int], list[int]]:
    """Positions of h letters and of h' letters."""
    hs = [i for i, c in enumerate(word) if c & 2 and not c & 1]
    hts = [i for i, c in enumerate(word) if c & 2 and c & 1]
    return hs, hts


def _strip_directions(word: Word) -> Word:
    """The base word: every direction letter replaced by its variable."""
    return tuple(c & ~KIND_H for c in word)


@dataclass(frozen=True)
class WedClass:
    """An equivalence class of wed monomials.

    ``representative`` is the canonical member (earliest marker positions),
    ``members`` the full class, ``kind`` either "levi" or "one".
    """

    representative: Word
    members: frozenset[Word]
    kind: str

    def __contains__(self, word: Word) -> bool:
        return word in self.members

    def __len__(self) -> int:
        return len(self.members)


def _levi_members_ordered(base: Word) -> list[Word]:
    """All marker placements over a base word, ordered by (h' pos, h pos)."""
    plain = [i for i, c in enumerate(base) if not c & 1]
    transposed = [i for i, c in enumerate(base) if c & 1]
    out = []
    for v in transposed:
        for u in plain:
            w = list(base)
            w[u] |= KIND_H
            w[v] |= KIND_H
            out.append(tuple(w))
    return out


def levi_class(m: Word) -> WedClass:
    """The Levi wed class of a monomial with exactly one h and one h'."""
    hs, hts = _direction_positions(m)
    if len(hs) != 1 or len(hts) != 1:
        raise WrongBidegree(
            "Levi classes need exactly one h and one h' letter, got "
            f"{len(hs)} and {len(hts)}")
    members = _levi_members_ordered(_strip_directions(m))
    return WedClass(members[0], frozenset(members), "levi")


def _one_members_ordered(base: Word) -> list[Word]:
    """All single-marker placements over a base word, by marker position."""
    out = []
    for i, c in enumerate(base):
        w = list(base)
        w[i] = c | KIND_H
        out.append(tuple(w))
    return out


def one_class(m: Word) -> WedClass:
    """The 1-wed class of a monomial with exactly one direction letter."""
    hs, hts = _direction_positions(m)
    if len(hs) + len(hts) != 1:
        raise WrongBidegree(
            f"1-wed classes need exactly one direction letter, got {len(hs) + len(hts)}")
    members = _one_members_ordered(_strip_directions(m))
    return WedClass(members[0], frozenset(members), "one")


def _first_class_defect(p: NcPoly,
                        markers_ok: Callable[[list[int], list[int]], bool],
                        members_ordered: Callable[[Word], list[Word]]
                        ) -> Optional[Word]:
    """The first word breaking class completeness, or None.

    In graded-lex order: the first term whose (h positions, h' positions)
    fail ``markers_ok``; else, class by class, the earliest member of
    ``members_ordered(base)`` that is missing or whose coefficient differs
    from the first member's.
    """
    words = sorted(p.terms, key=word_key)
    for word in words:
        if not markers_ok(*_direction_positions(word)):
            return word
    seen: set[Word] = set()
    for word in words:
        base = _strip_directions(word)
        if base in seen:
            continue
        seen.add(base)
        coeff = None
        for member in members_ordered(base):
            got = p.terms.get(member)
            if got is None or (coeff is not None and got != coeff):
                return member
            coeff = got
    return None


def is_complex_hessian(q: NcPoly) -> tuple[bool, Optional[Word]]:
    """Decide whether q is a complex hessian.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is the
    monomial breaking the one-h-one-h' condition, the earliest-placement
    missing class member, or the earliest member carrying a deviant
    coefficient.
    """
    witness = _first_class_defect(
        q, lambda hs, hts: len(hs) == 1 and len(hts) == 1, _levi_members_ordered)
    return witness is None, witness


def is_directional_derivative(f: NcPoly, *, allow_mixed: bool = False
                              ) -> tuple[bool, Optional[Word]]:
    """Decide whether f is a full directional derivative.

    By default the input must be purely analytic (letters x, h) or purely
    antianalytic (letters x', h'); ``allow_mixed=True`` runs the general
    1-wed test instead.
    """
    if not allow_mixed:
        pure = (all(is_analytic_word(w) for w in f.terms)
                or all(is_antianalytic_word(w) for w in f.terms))
        if not pure:
            raise MixedLetters(
                "expected a purely analytic or purely antianalytic polynomial")
    witness = _first_class_defect(
        f, lambda hs, hts: len(hs) + len(hts) == 1, _one_members_ordered)
    return witness is None, witness


def antiderivative(f: NcPoly) -> NcPoly:
    """The unique direction-free F with full_derivative(F) = f and F(0) = 0.

    Each complete 1-wed class with coefficient c and base word w of degree N
    accounts for exactly the N equal terms that differentiating c*w produces,
    so the class contributes c*w.  Raises :class:`NotADerivative` when the
    class structure fails.
    """
    ok, witness = is_directional_derivative(f, allow_mixed=True)
    if not ok:
        raise NotADerivative(f"not a directional derivative; witness term "
                             f"{witness!r}")
    out: dict[Word, Fraction] = {}
    seen: set[Word] = set()
    for word, coeff in f.terms.items():
        base = _strip_directions(word)
        if base not in seen:
            seen.add(base)
            out[base] = coeff
    return NcPoly._raw(f.nvars, out)
