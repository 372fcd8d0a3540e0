"""Free algebra with involution over the rationals.

The algebra lives on ``4g`` noncommuting letters: for each variable index
``j`` in ``1..g`` there are ``x_j``, its formal transpose ``x_j'``, and the
direction letters ``h_j``, ``h_j'`` introduced by differentiation.

Representation
--------------
A letter is a single int code ``(index0 << 2) | kind`` with

    kind 0 = x      kind 1 = x'     kind 2 = h      kind 3 = h'

so the involution of a letter toggles the low bit, ``code & 2`` tests for a
direction letter, and ``code >> 2`` recovers the 0-based variable index.

A monomial (word) is a tuple of letter codes; the empty tuple is the unit.
A polynomial is a dict mapping words to nonzero ``Fraction`` coefficients.
Zero is the empty dict.  All symbolic arithmetic is exact; floats appear
only when evaluating on matrix tuples.

The text grammar (used by :func:`parse_poly` and :func:`format_poly`):
variables ``x1..xg``/``h1..hg``, postfix ``'`` for transpose, juxtaposition
or ``*`` for products, ``+ - ( )``, and rational literals ``p/q``.
Example: ``x1'*x1 + 2*x2*x2' - 1/3``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
    MissingDirection,
    ParseError,
    SizeMismatch,
)

Word = tuple[int, ...]

KIND_X = 0
KIND_XT = 1
KIND_H = 2
KIND_HT = 3

# Input caps of parse_poly: each nested '(' costs three Python stack frames,
# and the ambient g sizes every matrix tuple sampled for a polynomial
# (g*n*n floats), so x99999999 must not become g = 10**8.
MAX_PAREN_DEPTH = 200
MAX_VARIABLE_INDEX = 1000


def lx(j: int) -> int:
    """Letter code for x_j."""
    return ((j - 1) << 2) | KIND_X


def lxt(j: int) -> int:
    """Letter code for x_j'."""
    return ((j - 1) << 2) | KIND_XT


def lh(j: int) -> int:
    """Letter code for h_j."""
    return ((j - 1) << 2) | KIND_H


def lht(j: int) -> int:
    """Letter code for h_j'."""
    return ((j - 1) << 2) | KIND_HT


def letter_index(code: int) -> int:
    """1-based variable index of a letter code."""
    return (code >> 2) + 1


def format_letter(code: int) -> str:
    name = ("h" if code & 2 else "x") + str((code >> 2) + 1)
    return name + "'" if code & 1 else name


# ---------------------------------------------------------------------------
# Word-level helpers
# ---------------------------------------------------------------------------

def word_involution(word: Word) -> Word:
    """Reverse the word and transpose each letter."""
    return tuple(c ^ 1 for c in reversed(word))


def word_key(word: Word):
    """Graded-lex sort key.  Letter order within a degree is
    x1 < .. < xg < x1' < .. < xg' < h1 < .. < hg < h1' < .. < hg'."""
    return (len(word), tuple((c & 3, c >> 2) for c in word))


def h_count(word: Word) -> int:
    """Number of direction letters in the word."""
    return sum(1 for c in word if c & 2)


def is_analytic_word(word: Word) -> bool:
    return all(not (c & 1) for c in word)


def is_antianalytic_word(word: Word) -> bool:
    return all(c & 1 for c in word)


def is_hereditary_word(word: Word) -> bool:
    """True iff every transposed letter precedes every untransposed letter."""
    seen_plain = False
    for c in word:
        if c & 1:
            if seen_plain:
                return False
        else:
            seen_plain = True
    return True


def is_antihereditary_word(word: Word) -> bool:
    """True iff every transposed letter follows every untransposed letter."""
    seen_t = False
    for c in word:
        if c & 1:
            seen_t = True
        elif seen_t:
            return False
    return True


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return "*".join(format_letter(c) for c in word)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class NcPoly:
    """A noncommutative polynomial: exact rational combination of words.

    Every polynomial carries its ambient variable count ``nvars``; operations
    on mismatched ambients raise :class:`AmbientMismatch` rather than promote.
    Instances are immutable once built — do not mutate ``terms``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Word, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("ambient variable count must be >= 1")
        self.nvars = nvars
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                word = tuple(word)
                for c in word:
                    if not 0 <= (c >> 2) < nvars:
                        raise ValueError(
                            f"letter {format_letter(c)} outside ambient g={nvars}")
                clean[word] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Word, Fraction]) -> "NcPoly":
        # trusted internal path: assumes canonical words, skips validation
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = {w: c for w, c in terms.items() if c != 0}
        return p

    @classmethod
    def zero(cls, nvars: int) -> "NcPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "NcPoly":
        return cls(nvars, {(): Fraction(value)})

    @classmethod
    def monomial(cls, nvars: int, word: Iterable[int], coeff=1) -> "NcPoly":
        return cls(nvars, {tuple(word): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def constant_value(self) -> Optional[Fraction]:
        """The value of a constant polynomial, or None if nonconstant.
        Zero reports Fraction(0)."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=0)

    def has_directions(self) -> bool:
        return any(h_count(w) for w in self.terms)

    def transpose(self) -> "NcPoly":
        return NcPoly._raw(self.nvars,
                           {word_involution(w): c for w, c in self.terms.items()})

    @property
    def T(self) -> "NcPoly":
        return self.transpose()

    def is_symmetric(self) -> bool:
        return self.terms == self.transpose().terms

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms in descending graded-lex order (the printing order)."""
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]), reverse=True)

    def filter_terms(self, pred) -> "NcPoly":
        return NcPoly._raw(self.nvars, {w: c for w, c in self.terms.items() if pred(w)})

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: "NcPoly") -> None:
        if self.nvars != other.nvars:
            raise AmbientMismatch(
                f"ambient mismatch: g={self.nvars} vs g={other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPoly.const(self.nvars, other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_ambient(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return NcPoly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return NcPoly._raw(self.nvars, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPoly.const(self.nvars, other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return NcPoly._raw(self.nvars, {})
            q = Fraction(other)
            return NcPoly._raw(self.nvars, {w: c * q for w, c in self.terms.items()})
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check_ambient(other)
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return NcPoly._raw(self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPoly.const(self.nvars, other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # mutable dict inside; polynomials are not hashable

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"NcPoly(g={self.nvars}, {format_poly(self)})"


# ---------------------------------------------------------------------------
# Matrix tuples and evaluation
# ---------------------------------------------------------------------------

class MatrixTuple:
    """A tuple of g real n-by-n matrices, the substitution target for x (or h)."""

    __slots__ = ("nvars", "n", "entries")

    def __init__(self, entries: Sequence[np.ndarray]):
        mats = tuple(np.asarray(m, dtype=float) for m in entries)
        if not mats:
            raise ValueError("matrix tuple needs at least one component")
        n = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (n, n):
                raise SizeMismatch("all components must be square matrices of equal size")
        self.nvars = len(mats)
        self.n = n
        self.entries = mats

    def __eq__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return (self.nvars == other.nvars and self.n == other.n
                and all(np.array_equal(a, b) for a, b in zip(self.entries, other.entries)))

    def __repr__(self):
        return f"MatrixTuple(g={self.nvars}, n={self.n})"


def evaluate(p: NcPoly, X: MatrixTuple, H: Optional[MatrixTuple] = None) -> np.ndarray:
    """Evaluate p by substituting X_j for x_j (and H_j for h_j).

    Transposed letters evaluate to the matrix transposes, so the involution
    is compatible with matrix transposition.  The unit monomial evaluates to
    the identity.
    """
    if X.nvars != p.nvars:
        raise AmbientMismatch(f"polynomial has g={p.nvars}, tuple has g={X.nvars}")
    if p.has_directions():
        if H is None:
            raise MissingDirection("polynomial contains direction letters; H required")
        if H.nvars != p.nvars:
            raise AmbientMismatch(f"polynomial has g={p.nvars}, H has g={H.nvars}")
        if H.n != X.n:
            raise SizeMismatch(f"X has size {X.n}, H has size {H.n}")
    n = X.n
    # letter code -> matrix, built lazily per evaluation
    table: dict[int, np.ndarray] = {}

    def mat(code: int) -> np.ndarray:
        m = table.get(code)
        if m is None:
            src = H if code & 2 else X
            base = src.entries[code >> 2]
            m = base.T if code & 1 else base
            table[code] = m
        return m

    out = np.zeros((n, n))
    eye = np.eye(n)
    for word, coeff in p.terms.items():
        acc = eye
        for c in word:
            acc = acc @ mat(c)
        out += float(coeff) * acc
    return out


def direct_sum(tuples: Sequence[MatrixTuple]) -> MatrixTuple:
    """Componentwise block-diagonal sum of matrix tuples (same g)."""
    if not tuples:
        raise ValueError("direct_sum of an empty list")
    g = tuples[0].nvars
    for t in tuples:
        if t.nvars != g:
            raise AmbientMismatch("direct_sum components must share g")
    total = sum(t.n for t in tuples)
    comps = []
    for j in range(g):
        block = np.zeros((total, total))
        at = 0
        for t in tuples:
            block[at:at + t.n, at:at + t.n] = t.entries[j]
            at += t.n
        comps.append(block)
    return MatrixTuple(comps)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_coeff(q: Fraction) -> str:
    return str(q)  # Fraction prints p/q or p


def format_poly(p: NcPoly) -> str:
    """Deterministic text form: terms in descending graded-lex order."""
    if not p.terms:
        return "0"
    pieces = []
    for word, coeff in p.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if not word:
            body = format_coeff(mag)
        elif mag == 1:
            body = format_word(word)
        else:
            body = f"{format_coeff(mag)}*{format_word(word)}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "int", "var", "op"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "xh":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable '{ch}' needs an index", line, start_col)
            toks.append(_Token("var", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/()'":
            toks.append(_Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    return toks


class _Parser:
    def __init__(self, toks: list[_Token], nvars: Optional[int]):
        self.toks = toks
        self.pos = 0
        self.declared = nvars
        self.depth = 0

    def peek(self) -> Optional[_Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else _Token("op", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def expr(self, g: int) -> NcPoly:
        negate = False
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self.take()
            negate = tok.text == "-"
        acc = self.term(g)
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok and tok.kind == "op" and tok.text in "+-":
                self.take()
                rhs = self.term(g)
                acc = acc - rhs if tok.text == "-" else acc + rhs
            else:
                return acc

    def term(self, g: int) -> NcPoly:
        acc = self.factor(g)
        while True:
            tok = self.peek()
            if tok and tok.kind == "op" and tok.text == "*":
                self.take()
                acc = acc * self.factor(g)
            elif tok and (tok.kind in ("int", "var")
                          or (tok.kind == "op" and tok.text == "(")):
                acc = acc * self.factor(g)  # juxtaposition
            else:
                return acc

    def factor(self, g: int) -> NcPoly:
        tok = self.take()
        if tok.kind == "int":
            num = int(tok.text)
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.text == "/":
                self.take()
                den_tok = self.take()
                if den_tok.kind != "int":
                    raise ParseError("expected integer denominator",
                                     den_tok.line, den_tok.col)
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.col)
                value = Fraction(num, den)
            else:
                value = Fraction(num)
            poly = NcPoly.const(g, value)
        elif tok.kind == "var":
            index = int(tok.text[1:])
            if index < 1:
                raise ParseError("variable index must be >= 1", tok.line, tok.col)
            if self.declared is not None and index > self.declared:
                raise ParseError(
                    f"variable {tok.text} exceeds declared g={self.declared}",
                    tok.line, tok.col)
            if index > MAX_VARIABLE_INDEX:
                raise ParseError(
                    f"variable {tok.text} exceeds the limit of "
                    f"{MAX_VARIABLE_INDEX} variables", tok.line, tok.col)
            code = (lh(index) if tok.text[0] == "h" else lx(index))
            poly = NcPoly._raw(g, {(code,): Fraction(1)})
        elif tok.kind == "op" and tok.text == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}",
                                 tok.line, tok.col)
            poly = self.expr(g)
            close = self.take()
            if not (close.kind == "op" and close.text == ")"):
                raise ParseError("expected ')'", close.line, close.col)
            self.depth -= 1
        else:
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        while True:
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.text == "'":
                self.take()
                poly = poly.transpose()
            else:
                return poly


def parse_poly(text: str, nvars: Optional[int] = None) -> NcPoly:
    """Parse the text grammar into a polynomial.

    With ``nvars`` given, variable indices beyond it are rejected; otherwise
    the ambient count is inferred as the largest index seen (at least 1).
    Either way g is capped at ``MAX_VARIABLE_INDEX`` and parentheses at
    ``MAX_PAREN_DEPTH`` levels.
    """
    if nvars is not None and not 1 <= nvars <= MAX_VARIABLE_INDEX:
        raise ParseError(f"declared g={nvars} is outside 1..{MAX_VARIABLE_INDEX}", 1, 1)
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input", 1, 1)
    seen = max((int(t.text[1:]) for t in toks if t.kind == "var"), default=1)
    g = nvars if nvars is not None else max(seen, 1)
    parser = _Parser(toks, nvars)
    poly = parser.expr(g)
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing.text!r}",
                         trailing.line, trailing.col)
    return poly
