"""The plurisubharmonicity decision pipeline.

``decide_plush`` takes a symmetric polynomial p and either

* certifies it by producing the canonical decomposition

      p = sum_i d_i f_i' f_i + sum_j e_j k_j k_j' + F + F'

  with positive rational weights and analytic f_i, k_j, F, re-expanded and
  checked exactly; or

* refutes it with a concrete matrix-tuple counterexample on which the
  complex hessian has a verified negative eigenvalue; or

* reports inconclusive when a refutation is mathematically forced but the
  sampling budget found no witness (never silently labelled a refutation).

The certificate route reads the Gram matrices of p: every mixed word of a
plush p is a'b or ab' with nonempty analytic a, b, so the coefficients of p
fill in two unique constant matrices G_f and G_k, and an exact LDL' of each
with nonnegative D is the certificate.  Any other outcome is refuted on the
complex hessian, whose structural screen (even degree, no mixed border
strata, hereditary/antihereditary blocks, border degree bound) labels the
refutation and steers the witness search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

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
    letter_index,
    word_involution,
    word_key,
)
from .ldlt import LdltFactorization, Obstruction, ldlt_factor
from .mmr import BorderVector, MiddleMatrix, block_view, build_mmr, check_degree_bound
from .numeval import (
    SamplePolicy,
    default_policy,
    quadratic_min_eigenvalue,
    random_tuple,
)
# unused here; the benchmark's traced run wraps these names on this module
from .wed import antiderivative, is_directional_derivative  # noqa: F401

# refutation paths
MIXED_BLOCK = "mixed_block"
HEREDITARY_VIOLATION = "hereditary_violation"
ODD_DEGREE = "odd_degree"
DEGREE_BOUND = "degree_bound"
OBSTRUCTION = "obstruction"
NUMERIC_SAMPLE = "numeric_sample"


@dataclass(frozen=True)
class Violation:
    """A failed structural necessary condition (sound refutation signal)."""

    kind: str
    detail: str
    border_word: Optional[Word] = None


@dataclass(frozen=True)
class Counterexample:
    """Matrix tuples on which the hessian evaluation is indefinite."""

    X: MatrixTuple
    H: MatrixTuple
    eigenvalue: float
    path: str

    @property
    def size(self) -> int:
        return self.X.n


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
    """Outcome of the decision: exactly one arm is populated."""

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


def structural_screen(q: NcPoly, border: BorderVector, middle: MiddleMatrix
                      ) -> Optional[Violation]:
    """Check the necessary conditions for positivity of a complex hessian.

    Returns None on pass; any violation soundly implies the polynomial is
    not plush on any nc open set (a numeric witness is still searched for).
    """
    degree = q.degree()
    if degree % 2 == 1:
        return Violation(ODD_DEGREE, f"hessian degree {degree} is odd")
    mixed = border.family_indices("B") + border.family_indices("Bt")
    if mixed:
        word = border.entries[min(mixed)]
        return Violation(
            MIXED_BLOCK,
            f"mixed border monomial {format_word(word)} forces a nonzero "
            "coupling outside the analytic/antianalytic blocks",
            border_word=word)
    blocks = block_view(middle, border)
    for row in blocks.q1:
        for entry in row:
            for w in entry.terms:
                if not is_hereditary_word(w):
                    return Violation(
                        HEREDITARY_VIOLATION,
                        f"analytic-block entry term {format_word(w)} is not hereditary")
    for row in blocks.q5:
        for entry in row:
            for w in entry.terms:
                if not is_antihereditary_word(w):
                    return Violation(
                        HEREDITARY_VIOLATION,
                        f"antianalytic-block entry term {format_word(w)} "
                        "is not antihereditary")
    if not check_degree_bound(border, degree):
        return Violation(
            DEGREE_BOUND,
            f"border degree {border.max_degree()} exceeds {degree // 2}")
    return None


def find_witness(q: NcPoly, hint: Optional[Violation] = None,
                 policy: Optional[SamplePolicy] = None) -> Optional[Counterexample]:
    """Random search for (X, H) with a negative hessian eigenvalue.

    Entries are i.i.d. uniform on [-1, 1] over the policy's sizes; for
    mixed-block hints the direction tuple is first seeded one-hot from the
    offending border monomial's direction letter.  Returns None when the
    budget is exhausted (the caller reports inconclusive).
    """
    if policy is None:
        policy = default_policy(q.degree())
    rng = policy.rng()
    g = q.nvars
    path = hint.kind if hint is not None else NUMERIC_SAMPLE
    hinted_index = None
    if hint is not None and hint.border_word:
        hinted_index = letter_index(hint.border_word[0])

    def check(X: MatrixTuple, H: MatrixTuple) -> Optional[Counterexample]:
        value = quadratic_min_eigenvalue(q, X, H)
        if value <= -policy.tol:
            return Counterexample(X, H, value, path)
        return None

    for n in policy.sizes:
        if hinted_index is not None:
            seed_h = [np.zeros((n, n)) for _ in range(g)]
            seed_h[hinted_index - 1] = np.eye(n)
            for _ in range(2):
                hit = check(random_tuple(g, n, rng), MatrixTuple(seed_h))
                if hit:
                    return hit
        for _ in range(policy.samples_per_size):
            hit = check(random_tuple(g, n, rng), random_tuple(g, n, rng))
            if hit:
                return hit
    return None


def _gram_entries(p: NcPoly) -> tuple[tuple[dict, dict], Optional[Word]]:
    """Split the mixed terms of p into the Gram entries (G_f, G_k).

    A word a'b (a, b nonempty analytic words) is G_f[a, b] and a word ab' is
    G_k[a, b]; each splits in exactly one way.  Pure words belong to F + F'.
    The second item is the first mixed term of neither form, else None.
    """
    gram_f: dict[tuple[Word, Word], Fraction] = {}
    gram_k: dict[tuple[Word, Word], Fraction] = {}
    for word, coeff in p.sorted_terms():
        if is_analytic_word(word) or is_antianalytic_word(word):
            continue
        cut = next(i for i, c in enumerate(word) if c & 1 != word[0] & 1)
        head, tail = word[:cut], word[cut:]
        if not (is_analytic_word(tail) or is_antianalytic_word(tail)):
            return (gram_f, gram_k), word
        if word[0] & 1:
            gram_f[(word_involution(head), tail)] = coeff
        else:
            gram_k[(head, word_involution(tail))] = coeff
    return (gram_f, gram_k), None


def decide_plush(p: NcPoly, policy: Optional[SamplePolicy] = None,
                 seed: int = 0) -> PlushVerdict:
    """Decide nc plurisubharmonicity of a symmetric polynomial."""
    if not p.is_symmetric():
        raise NotSymmetric("decide_plush requires p' = p")
    _require_direction_free(p, "decide_plush")
    g = p.nvars
    grams, stray = _gram_entries(p)
    if stray is not None:
        return _refute(p, Violation(
            OBSTRUCTION, f"term {format_word(stray)} is neither analytic, "
            "antianalytic, a'b nor ab' with analytic a, b"), policy, seed)

    facs: list[Optional[LdltFactorization]] = []
    word_lists: list[tuple[Word, ...]] = []
    squares: list[tuple[tuple[Fraction, ...], tuple[NcPoly, ...]]] = []
    for side, gram in zip(("analytic", "antianalytic"), grams):
        words = tuple(sorted({w for pair in gram for w in pair}, key=word_key))
        fac = None
        if words:
            fac = ldlt_factor([[NcPoly.const(g, gram.get((a, b), 0)) for b in words]
                               for a in words])
        if isinstance(fac, Obstruction):
            return _refute(p, Violation(
                OBSTRUCTION, f"no constant pivot in the {side} Gram matrix:\n"
                + _words_line(words) + "\n" + fac.dump()), policy, seed)
        diag = fac.diag_values() if fac is not None else []
        if any(d < 0 for d in diag):
            return _refute(p, Violation(
                NUMERIC_SAMPLE, f"a negative pivot in the {side} Gram matrix"),
                policy, seed)
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


def _refute(p: NcPoly, gram_violation: Violation,
            policy: Optional[SamplePolicy], seed: int) -> PlushVerdict:
    """Search a witness on the complex hessian of p.

    A failed structural screen labels the refutation and hints the search;
    when the screen passes, the Gram result labels it.
    """
    q = complex_hessian(p)
    border, middle = build_mmr(q)
    if policy is None:
        policy = default_policy(q.degree(), seed)
    violation = structural_screen(q, border, middle) or gram_violation
    witness = find_witness(q, violation, policy)
    if witness is not None:
        return PlushVerdict("not_plush", counterexample=witness)
    return PlushVerdict(
        "inconclusive",
        reason=f"{violation.kind}: {violation.detail} (refutation is forced, "
               f"but no witness within {policy.samples_per_size} samples per "
               f"size {list(policy.sizes)})")


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


def _matrix_lines(name: str, tup: MatrixTuple) -> list[str]:
    lines = []
    for j, mat in enumerate(tup.entries, start=1):
        rows = "; ".join(" ".join(_format_float(v) for v in row) for row in mat)
        lines.append(f"{name}{j} = [{rows}]")
    return lines


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
        lines.append(f"path: {cex.path}")
        lines.append(f"size: {cex.size}")
        lines.append(f"eigenvalue: {_format_float(cex.eigenvalue)}")
        lines.extend(_matrix_lines("X", cex.X))
        lines.extend(_matrix_lines("H", cex.H))
    else:
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


def _ldlt_from_dict(data: Optional[dict], nvars: int
                    ) -> tuple[Optional[LdltFactorization], tuple[Word, ...]]:
    from .freealg import parse_poly

    if data is None:
        return None, ()
    words = tuple(next(iter(parse_poly(s, nvars).terms)) for s in data.get("words", ()))
    diag = tuple(parse_poly(s, nvars) for s in data["diag"])
    lower = tuple(tuple(parse_poly(s, nvars) for s in row) for row in data["lower"])
    return LdltFactorization(nvars, tuple(data["perm"]), lower, diag,
                             tuple(d.constant_value() is not None for d in diag)), words


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
        out["counterexample"] = {
            "path": cex.path,
            "eigenvalue": cex.eigenvalue,
            "size": cex.size,
            "X": [m.tolist() for m in cex.X.entries],
            "H": [m.tolist() for m in cex.H.entries],
        }
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    return out


def verdict_from_dict(data: dict) -> PlushVerdict:
    from .freealg import parse_poly

    nvars = data["nvars"]
    decomposition = None
    if "decomposition" in data:
        dec = data["decomposition"]
        decomposition = Decomposition(
            tuple(Fraction(s) for s in dec["weights_f"]),
            tuple(parse_poly(s, nvars) for s in dec["fs"]),
            tuple(Fraction(s) for s in dec["weights_k"]),
            tuple(parse_poly(s, nvars) for s in dec["ks"]),
            parse_poly(dec["F"], nvars),
        )
    ldlt_a, words_a = _ldlt_from_dict(data.get("ldlt", {}).get("analytic"), nvars)
    ldlt_at, words_at = _ldlt_from_dict(data.get("ldlt", {}).get("antianalytic"), nvars)
    counterexample = None
    if "counterexample" in data:
        cex = data["counterexample"]
        counterexample = Counterexample(
            MatrixTuple([np.array(m) for m in cex["X"]]),
            MatrixTuple([np.array(m) for m in cex["H"]]),
            cex["eigenvalue"],
            cex["path"],
        )
    return PlushVerdict(data["verdict"], decomposition=decomposition,
                        ldlt_analytic=ldlt_a, ldlt_antianalytic=ldlt_at,
                        words_analytic=words_a, words_antianalytic=words_at,
                        counterexample=counterexample, reason=data.get("reason"))
