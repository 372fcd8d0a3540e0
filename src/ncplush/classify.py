"""The plurisubharmonicity decision pipeline.

``decide_plush`` takes a symmetric polynomial p and either

* certifies it by producing the canonical decomposition

      p = sum_i d_i f_i' f_i + sum_j e_j k_j k_j' + F + F'

  with positive rational weights and analytic f_i, k_j, F, re-expanded and
  checked exactly; or

* refutes it with a concrete matrix-tuple counterexample on which the
  complex hessian is not positive semidefinite; or

* reports inconclusive when a stray word forces a refutation but the
  sampling budget found no witness (never silently labelled a refutation).

The decision reads only the words of p.  A structural screen first looks
for a stray word, a mixed word that is neither hereditary nor
antihereditary; the complex hessian q of such a p has a mixed border
monomial, so p is not plush, and a seeded random search on q looks for the
witness.  Otherwise every mixed word of p is a'b or ab' with nonempty
analytic a, b, so the coefficients of p fill in two unique constant Gram
matrices G_f and G_k, and an exact LDL' of each with nonnegative D is the
certificate.  When an LDL' has a negative pivot or an obstruction, its
negative direction c (c'Gc < 0) gives a witness with exact rational
entries (see ``witness.gram_witness``), of any size, and e0'q(X, H)e0 < 0
is replayed exactly on them; nothing falls back to the search.  A float
view of it is added when it fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isnan, nan
from typing import Optional, Union

from .calculus import _require_direction_free, complex_hessian
from .errors import InternalInconsistency, NotSymmetric
from .freealg import (
    MatrixTuple,
    NcPoly,
    Word,
    format_word,
    is_analytic_word,
    is_antianalytic_word,
    is_antihereditary_word,
    is_hereditary_word,
    word_involution,
    word_key,
)
from .ldlt import LdltFactorization, Obstruction, ldlt_factor
from .numeval import (
    MAX_MATRIX_SIZE,
    SamplePolicy,
    check_bidegree,
    quadratic_min_eigenvalue,
    random_tuple,
)
from .witness import SparseTuple, float_tuple, gram_witness, negative_direction, replay_at_e0
# unused here; the benchmark's traced run wraps these names on this module
from .mmr import block_view, build_mmr  # noqa: F401
from .wed import antiderivative, is_directional_derivative  # noqa: F401

# refutation paths
MIXED_BLOCK = "mixed_block"
ODD_DEGREE = "odd_degree"
OBSTRUCTION = "obstruction"
NEGATIVE_PIVOT = "negative_pivot"


@dataclass(frozen=True)
class Violation:
    """A failed necessary condition (sound refutation signal)."""

    kind: str
    detail: str


@dataclass(frozen=True)
class Counterexample:
    """Matrix tuples on which the hessian evaluation is indefinite.

    A witness built from a Gram LDL' has exact sparse ``exact_X``/``exact_H``
    and the negative ``exact_value`` e0' q(X, H) e0 computed from them, which
    is the proof; its float ``X``, ``H`` and ``eigenvalue`` are an optional
    view, and ``no_view_reason`` says why they are None.  A searched witness
    has only the float fields and rests on its ``eigenvalue``.
    """

    X: Optional[MatrixTuple]
    H: Optional[MatrixTuple]
    eigenvalue: Optional[float]
    path: str
    size: int
    exact_value: Optional[Fraction] = None
    exact_X: Optional[SparseTuple] = None
    exact_H: Optional[SparseTuple] = None
    no_view_reason: Optional[str] = None


@dataclass(frozen=True)
class Decomposition:
    """The weighted canonical form; weights stay rational so the
    re-expansion check is exact (unit weights would need square roots)."""

    weights_f: tuple[Fraction, ...]
    fs: tuple[NcPoly, ...]
    weights_k: tuple[Fraction, ...]
    ks: tuple[NcPoly, ...]
    F: NcPoly

    def expand(self) -> NcPoly:
        out = NcPoly.zero(self.F.nvars)
        for d, f in zip(self.weights_f, self.fs):
            out = out + d * (f.T * f)
        for e, k in zip(self.weights_k, self.ks):
            out = out + e * (k * k.T)
        return out + self.F + self.F.T


@dataclass(frozen=True)
class PlushVerdict:
    """Outcome of the decision: exactly one arm is populated, and a reason
    only when the verdict is inconclusive."""

    kind: str  # "plush" | "not_plush" | "inconclusive"
    decomposition: Optional[Decomposition] = None
    ldlt_analytic: Optional[LdltFactorization] = None
    ldlt_antianalytic: Optional[LdltFactorization] = None
    # the words indexing the rows of each Gram matrix (``perm`` points here)
    words_analytic: tuple[Word, ...] = ()
    words_antianalytic: tuple[Word, ...] = ()
    counterexample: Optional[Counterexample] = None
    reason: Optional[str] = None

    @property
    def is_plush(self) -> bool:
        return self.kind == "plush"

    def exit_code(self) -> int:
        return {"plush": 0, "not_plush": 2, "inconclusive": 3}[self.kind]

    def report(self) -> str:
        return format_report(self)


def _cut(word: Word) -> int:
    """Length of the leading run of letters of one kind in a mixed word."""
    return [c & 1 for c in word].index(1 - (word[0] & 1))


def structural_screen(p: NcPoly) -> Optional[Violation]:
    """Look for a stray word in p: a mixed word that is neither hereditary
    nor antihereditary.

    Returns None when there is none.  A stray word gives the complex
    hessian q a mixed border monomial, so p is not plush on any nc open
    set.  The label is the parity of deg q, the largest mixed-word length
    of p (the terms of q that one mixed word gives cannot cancel):
    ``odd_degree`` when it is odd, else ``mixed_block``.  Every other
    necessary condition is read off the Gram LDL' of p.
    """
    stray = [w for w in p.terms if not (is_hereditary_word(w) or is_antihereditary_word(w))]
    if not stray:
        return None
    degree = max(len(w) for w in p.terms
                 if not (is_analytic_word(w) or is_antianalytic_word(w)))
    if degree % 2 == 1:
        return Violation(ODD_DEGREE, f"hessian degree {degree} is odd")
    return Violation(
        MIXED_BLOCK,
        f"word {format_word(min(stray, key=word_key))} is neither hereditary nor "
        "antihereditary, so the hessian has a mixed border monomial")


def find_witness(q: NcPoly, violation: Violation,
                 policy: Optional[SamplePolicy] = None) -> Optional[Counterexample]:
    """Random search for (X, H) with a negative hessian eigenvalue.

    Entries are i.i.d. uniform on [-1, 1] over the policy's sizes for q; the
    violation only labels the path.  A sample whose evaluation overflows is
    skipped.  Returns None when the budget is exhausted (the caller reports
    inconclusive).
    """
    policy = policy or SamplePolicy()
    check_bidegree(q)
    rng = policy.rng()
    g = q.nvars
    for n in policy.sizes_for(q.degree()):
        for _ in range(policy.samples_per_size):
            X, H = random_tuple(g, n, rng), random_tuple(g, n, rng)
            value = quadratic_min_eigenvalue(q, X, H, check=False)
            if value <= -policy.tol:  # False for the nan of an overflow
                return Counterexample(X, H, value, violation.kind, n)
    return None


def _gram_entries(p: NcPoly) -> tuple[dict, dict]:
    """Split the mixed terms of p into the Gram entries (G_f, G_k).

    A word a'b (a, b nonempty analytic words) is G_f[a, b] and a word ab' is
    G_k[a, b]; each splits in exactly one way.  Pure words belong to F + F'.
    p must pass the structural screen, so every mixed word is of one form.
    The exact LDL' of each matrix either certifies p or, through its
    negative direction, builds the witness that refutes it.
    """
    gram_f: dict[tuple[Word, Word], Fraction] = {}
    gram_k: dict[tuple[Word, Word], Fraction] = {}
    for word, coeff in p.terms.items():
        if is_analytic_word(word) or is_antianalytic_word(word):
            continue
        cut = _cut(word)
        head, tail = word[:cut], word[cut:]
        if word[0] & 1:
            gram_f[(word_involution(head), tail)] = coeff
        else:
            gram_k[(head, word_involution(tail))] = coeff
    return gram_f, gram_k


def decide_plush(p: NcPoly, policy: Optional[SamplePolicy] = None) -> PlushVerdict:
    """Decide nc plurisubharmonicity of a symmetric polynomial.

    ``policy`` steers only the witness search for inputs with a stray word.
    """
    if not p.is_symmetric():
        raise NotSymmetric("decide_plush requires p' = p")
    _require_direction_free(p, "decide_plush")
    violation = structural_screen(p)
    if violation is not None:  # search a witness on q; the violation labels it
        q, policy = complex_hessian(p), policy or SamplePolicy()
        witness = find_witness(q, violation, policy)
        if witness is not None:
            return PlushVerdict("not_plush", counterexample=witness)
        return PlushVerdict("inconclusive", reason=(
            f"{violation.kind}: {violation.detail} (refutation is forced, but no witness "
            f"within {policy.samples_per_size} samples per size "
            f"{list(policy.sizes_for(q.degree()))})"))
    g = p.nvars

    facs: list[Optional[LdltFactorization]] = []
    word_lists: list[tuple[Word, ...]] = []
    squares: list[tuple[tuple[Fraction, ...], tuple[NcPoly, ...]]] = []
    for side, gram in zip(("analytic", "antianalytic"), _gram_entries(p)):
        words = tuple(sorted({w for pair in gram for w in pair}, key=word_key))
        fac = None
        if words:
            fac = ldlt_factor([[NcPoly.const(g, gram.get((a, b), 0)) for b in words]
                               for a in words])
        diag = fac.diag_values() if isinstance(fac, LdltFactorization) else []
        if isinstance(fac, Obstruction) or any(d < 0 for d in diag):
            return _refute_gram(p, side, gram, words, fac)
        weights, pieces = [], []
        for i, d in enumerate(diag):
            if d > 0:  # weight D[i] on the square of sum_r L[r, i] word_r
                weights.append(d)
                pieces.append(NcPoly(g, {words[fac.perm[r]]: fac.lower[r][i].constant_value()
                                         for r in range(i, fac.size)}))
        squares.append((tuple(weights), tuple(pieces)))
        facs.append(fac)
        word_lists.append(words)

    F = (p.filter_terms(lambda w: bool(w) and is_analytic_word(w))
         + NcPoly.const(g, p.constant_term() / 2))
    decomposition = Decomposition(*squares[0], *squares[1], F)
    if not verify_decomposition(p, decomposition):
        raise InternalInconsistency("Gram certificate failed re-expansion")
    return PlushVerdict("plush", decomposition=decomposition,
                        ldlt_analytic=facs[0], ldlt_antianalytic=facs[1],
                        words_analytic=word_lists[0], words_antianalytic=word_lists[1])


def _refute_gram(p: NcPoly, side: str, gram: dict, words: tuple[Word, ...],
                 fac: Union[LdltFactorization, Obstruction]) -> PlushVerdict:
    """Refute p from a failed LDL' of one Gram matrix with a constructed
    witness, checked exactly on its complex hessian q."""
    path = OBSTRUCTION if isinstance(fac, Obstruction) else NEGATIVE_PIVOT
    c, value = negative_direction(fac, words)
    if side == "antianalytic":  # G_k[a, b] is G_f[rev a, rev b] of the transposes
        gram = {(a[::-1], b[::-1]): v for (a, b), v in gram.items()}
        c = {a[::-1]: v for a, v in c.items()}
    n, X, H = gram_witness(p.nvars, gram, c, value)
    if side == "antianalytic":
        X, H = ([{(col, row): v for (row, col), v in m.items()} for m in tup] for tup in (X, H))
    q = complex_hessian(p)
    exact = replay_at_e0(q, X, H)
    if exact >= 0:
        raise InternalInconsistency("constructed Gram witness is not negative")
    Xf, Hf, eigenvalue, no_view = _float_view(q, X, H, n)
    return PlushVerdict("not_plush", counterexample=Counterexample(
        Xf, Hf, eigenvalue, path, n, exact, X, H, no_view))


def _float_view(q: NcPoly, X: SparseTuple, H: SparseTuple, n: int) -> tuple:
    """(X, H, min eigenvalue of q there) in floats and None, or three Nones
    and the reason there is no float view."""
    if n > MAX_MATRIX_SIZE:
        return None, None, None, f"size {n} > {MAX_MATRIX_SIZE}"
    try:
        Xf, Hf = float_tuple(X, n), float_tuple(H, n)
    except OverflowError:  # an entry beyond the float range
        Xf = None
    eigenvalue = nan if Xf is None else quadratic_min_eigenvalue(q, Xf, Hf, check=False)
    if isnan(eigenvalue):
        return None, None, None, "an entry or the value of q leaves the float range"
    return Xf, Hf, eigenvalue, None


def verify_decomposition(p: NcPoly, decomposition: Decomposition) -> bool:
    """Exact re-expansion check with a shape audit: positive weights,
    analytic pieces free of h-letters, and p equal to the expanded
    decomposition."""
    _require_direction_free(p, "verify_decomposition")
    if any(d <= 0 for d in decomposition.weights_f):
        return False
    if any(e <= 0 for e in decomposition.weights_k):
        return False
    for poly in (*decomposition.fs, *decomposition.ks, decomposition.F):
        if poly.has_directions() or not all(map(is_analytic_word, poly.terms)):
            return False
    return decomposition.expand() == p


# ---------------------------------------------------------------------------
# reports and JSON
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _grid_lines(name: str, grids) -> list[str]:
    """``{name}{j} = [a b; c d]`` for the rows of grid j, entries as text."""
    return [f"{name}{j} = [" + "; ".join(" ".join(row) for row in grid) + "]"
            for j, grid in enumerate(grids, start=1)]


def _matrix_lines(name: str, tup: MatrixTuple) -> list[str]:
    return _grid_lines(name, ([map(_format_float, row) for row in m] for m in tup.entries))


def _sparse_entries(m: dict) -> list:  # [row, col, "num/den"] per nonzero entry
    return [[row, col, _format_fraction(v)] for (row, col), v in sorted(m.items())]


def format_report(verdict: PlushVerdict) -> str:
    lines = [f"verdict: {verdict.kind}"]
    if verdict.kind == "plush":
        dec = verdict.decomposition
        for d, f in zip(dec.weights_f, dec.fs):
            lines.append(f"f (weight {d}): {f}")
        for e, k in zip(dec.weights_k, dec.ks):
            lines.append(f"k (weight {e}): {k}")
        lines.append(f"F: {dec.F}")
        for side, fac, words in (
                ("analytic", verdict.ldlt_analytic, verdict.words_analytic),
                ("antianalytic", verdict.ldlt_antianalytic, verdict.words_antianalytic)):
            if fac is not None:
                lines.append(f"ldlt of the {side} Gram matrix:")
                lines.append(_words_line(words))
                lines.append(fac.dump())
    elif verdict.kind == "not_plush":
        cex = verdict.counterexample
        lines += [f"path: {cex.path}", f"size: {cex.size}",
                  f"float view: none ({cex.no_view_reason})" if cex.X is None
                  else f"eigenvalue: {_format_float(cex.eigenvalue)}"]
        if cex.exact_value is not None:
            lines.append(f"exact value: {_format_fraction(cex.exact_value)}")
        if cex.X is not None:
            lines += _matrix_lines("X", cex.X) + _matrix_lines("H", cex.H)
        for name, tup in (("X", cex.exact_X), ("H", cex.exact_H)):
            if tup is not None:  # "row col num/den" per nonzero entry
                lines += _grid_lines(f"exact {name}", ([map(str, e) for e in _sparse_entries(m)]
                                                       for m in tup))
    if verdict.reason is not None:
        lines.append(f"reason: {verdict.reason}")
    return "\n".join(lines)


def _words_line(words: tuple[Word, ...]) -> str:
    return "words: [" + ", ".join(format_word(w) for w in words) + "]"


def _ldlt_to_dict(fac: Optional[LdltFactorization], words: tuple[Word, ...]
                  ) -> Optional[dict]:
    if fac is None:
        return None
    return {
        "words": [format_word(w) for w in words],
        "perm": list(fac.perm),
        "diag": [str(d) for d in fac.diag],
        "lower": [[str(e) for e in row] for row in fac.lower],
    }


def verdict_to_dict(verdict: PlushVerdict, nvars: int) -> dict:
    out: dict = {"verdict": verdict.kind, "nvars": nvars}
    if verdict.decomposition is not None:
        dec = verdict.decomposition
        out["decomposition"] = {
            "weights_f": [str(d) for d in dec.weights_f],
            "fs": [str(f) for f in dec.fs],
            "weights_k": [str(e) for e in dec.weights_k],
            "ks": [str(k) for k in dec.ks],
            "F": str(dec.F),
        }
    if verdict.ldlt_analytic is not None or verdict.ldlt_antianalytic is not None:
        out["ldlt"] = {
            "analytic": _ldlt_to_dict(verdict.ldlt_analytic, verdict.words_analytic),
            "antianalytic": _ldlt_to_dict(verdict.ldlt_antianalytic,
                                          verdict.words_antianalytic),
        }
    if verdict.counterexample is not None:
        cex = verdict.counterexample
        out["counterexample"] = entry = {
            "path": cex.path,
            "eigenvalue": cex.eigenvalue,
            "size": cex.size,
            "X": None if cex.X is None else [m.tolist() for m in cex.X.entries],
            "H": None if cex.H is None else [m.tolist() for m in cex.H.entries],
        }
        if cex.X is None:
            entry["no_float_view"] = cex.no_view_reason
        if cex.exact_value is not None:
            entry.update(exact_value=_format_fraction(cex.exact_value),
                         exact_X=list(map(_sparse_entries, cex.exact_X)),
                         exact_H=list(map(_sparse_entries, cex.exact_H)))
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    return out
