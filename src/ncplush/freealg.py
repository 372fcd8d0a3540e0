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
Example: ``x1'*x1 + 2*x2*x2' - 1/3``.  One regular expression cuts the text
into tokens at their offsets; a recursive descent adds the terms of a sum
into one dict, so parsing is linear; a :class:`ParseError` names line:column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
# the ambient g sizes every matrix tuple sampled for a polynomial
# (g*n*n floats), so x99999999 must not become g = 10**8, and products are
# expanded eagerly, so (x1+x2) repeated k times would hold 2**k terms.
MAX_PAREN_DEPTH = 200
MAX_VARIABLE_INDEX = 1000
MAX_TERMS = 10_000


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

    def __neg__(self):
        return NcPoly._raw(self.nvars, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NcPoly.const(self.nvars, other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

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


# Floats of prefix products one evaluate call may keep (8 MB).
EVAL_CACHE_FLOATS = 1 << 20


def evaluate(p: NcPoly, X: MatrixTuple, H: Optional[MatrixTuple] = None) -> np.ndarray:
    """Evaluate p by substituting X_j for x_j (and H_j for h_j).

    Transposed letters evaluate to the matrix transposes, so the involution
    is compatible with matrix transposition.  The unit monomial evaluates to
    the identity.  Words are multiplied out left to right; a prefix shared by
    several words is multiplied once while the kept products fit in
    EVAL_CACHE_FLOATS, which changes no bit of the result.
    """
    if X.nvars != p.nvars:
        raise AmbientMismatch(f"polynomial has g={p.nvars}, tuple has g={X.nvars}")
    directions = p.has_directions()
    if directions:
        if H is None:
            raise MissingDirection("polynomial contains direction letters; H required")
        if H.nvars != p.nvars:
            raise AmbientMismatch(f"polynomial has g={p.nvars}, H has g={H.nvars}")
        if H.n != X.n:
            raise SizeMismatch(f"X has size {X.n}, H has size {H.n}")
    n = X.n
    # letter code 4j + kind -> matrix of variable j, kinds x, x', h, h'
    hs = H.entries if directions else (None,) * p.nvars
    mats = [m for x, h in zip(X.entries, hs) for m in (x, x.T, h, h if h is None else h.T)]
    prods = [np.eye(n)]  # kept prefix products; node 0 is the unit word
    child: dict[tuple[int, int], int] = {}  # (node, letter) -> node
    out = np.zeros((n, n))
    for word, coeff in p.terms.items():
        node, acc = 0, prods[0]
        for c in word:
            key, node = (node, c), child.get((node, c), -1)
            if node >= 0:
                acc = prods[node]
            else:
                acc = acc @ mats[c]
                if len(prods) * n * n < EVAL_CACHE_FLOATS:
                    node = child[key] = len(prods)
                    prods.append(acc)
        out += coeff.numerator / coeff.denominator * acc  # float(coeff), inlined
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

def format_poly(p: NcPoly) -> str:
    """Deterministic text form: terms in descending graded-lex order."""
    if not p.terms:
        return "0"
    pieces = []
    for word, coeff in p.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if not word:
            body = str(mag)  # Fraction prints p/q or p
        elif mag == 1:
            body = format_word(word)
        else:
            body = f"{mag}*{format_word(word)}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Whitespace (space, tab, CR, LF) and then one token: an integer, a variable
# letter with its index digits, an operator, or any other character, which is
# an error.  \d takes no '²', which str.isdigit takes and int() cannot read.
_TOKEN = re.compile(r"[ \t\r\n]*(?:(?P<int>\d+)|(?P<var>[xh]\d*)|(?P<op>[-+*/()'])"
                    r"|(?P<bad>[^ \t\r\n]))")


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens ``(kind, text, offset)``; kind is int, var, the operator
    character itself, or end, which closes the list just past the last token."""
    toks, end = [], 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, at, end = m[kind], m.start(kind), m.end()
        if kind == "bad":
            raise _error(text, at, f"unexpected character {tok!r}")
        if tok in ("x", "h"):
            raise _error(text, at, f"variable {tok!r} needs an index")
        toks.append((tok if kind == "op" else kind, tok, at))
    toks.append(("end", "", end))
    return toks


def _index(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads: beyond every cap
        return MAX_VARIABLE_INDEX + 1


class _Parser:
    def __init__(self, text: str, toks: list, g: int, declared: Optional[int]):
        self.text, self.toks, self.g, self.declared = text, toks, g, declared
        self.pos = self.depth = 0

    def error(self, tok: tuple[str, str, int], message: str) -> ParseError:
        return _error(self.text, tok[2], message)

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        if tok[0] == "end":
            raise self.error(tok, "unexpected end of input")
        self.pos += 1
        return tok

    def expr(self) -> NcPoly:
        # one running sum; a word whose sum is zero leaves it and one that
        # comes back goes last, as when adding the terms one by one
        out: dict[Word, Fraction] = {}
        negate = self.peek() in ("+", "-") and self.take()[0] == "-"
        while True:
            for w, c in self.term().terms.items():
                s = out[w] = out.get(w, 0) + (-c if negate else c)
                if not s:
                    del out[w]
            if self.peek() not in ("+", "-"):
                return NcPoly._raw(self.g, out)
            negate = self.take()[0] == "-"

    def term(self) -> NcPoly:
        acc = self.factor()
        while True:
            kind = self.peek()
            if kind == "*":
                self.take()
            elif kind not in ("int", "var", "("):
                return acc  # neither '*' nor juxtaposition
            start = self.toks[self.pos]
            factor = self.factor()
            if len(acc.terms) * len(factor.terms) > MAX_TERMS:
                raise self.error(start, f"product exceeds the limit of {MAX_TERMS} terms")
            acc = acc * factor

    def integer(self, tok: tuple[str, str, int]) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error(tok, "integer literal is too long") from None

    def factor(self) -> NcPoly:
        tok = kind, text, _ = self.take()
        if kind == "int":
            num, den = self.integer(tok), 1
            if self.peek() == "/":
                self.take()
                den_tok = self.take()
                if den_tok[0] != "int":
                    raise self.error(den_tok, "expected integer denominator")
                den = self.integer(den_tok)
                if den == 0:
                    raise self.error(den_tok, "zero denominator")
            poly = NcPoly.const(self.g, Fraction(num, den))
        elif kind == "var":
            index = _index(text[1:])
            if index < 1:
                raise self.error(tok, "variable index must be >= 1")
            if self.declared is not None and index > self.declared:
                raise self.error(tok, f"variable {text} exceeds declared g={self.declared}")
            if index > MAX_VARIABLE_INDEX:
                raise self.error(tok, f"variable {text} exceeds the limit of "
                                      f"{MAX_VARIABLE_INDEX} variables")
            code = (lh(index) if text[0] == "h" else lx(index))
            poly = NcPoly._raw(self.g, {(code,): Fraction(1)})
        elif kind == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise self.error(tok, f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
            poly = self.expr()
            close = self.take()
            if close[0] != ")":
                raise self.error(close, "expected ')'")
            self.depth -= 1
        else:
            raise self.error(tok, f"unexpected token {text!r}")
        while self.peek() == "'":
            self.take()
            poly = poly.transpose()
        return poly


def parse_poly(text: str, nvars: Optional[int] = None) -> NcPoly:
    """Parse the text grammar into a polynomial.

    With ``nvars`` given, variable indices beyond it are rejected; otherwise
    the ambient count is inferred as the largest index seen (at least 1).
    Either way g is capped at ``MAX_VARIABLE_INDEX``, parentheses at
    ``MAX_PAREN_DEPTH`` levels, and each product at ``MAX_TERMS`` pairs of
    terms.  Parsing takes time linear in the length of ``text``.
    """
    if nvars is not None and not 1 <= nvars <= MAX_VARIABLE_INDEX:
        raise ParseError(f"declared g={nvars} is outside 1..{MAX_VARIABLE_INDEX}", 1, 1)
    toks = _tokenize(text)
    if toks[0][0] == "end":
        raise ParseError("empty input", 1, 1)
    g = nvars or max([1] + [_index(tok[1][1:]) for tok in toks if tok[0] == "var"])
    parser = _Parser(text, toks, g, nvars)
    poly = parser.expr()
    trailing = parser.toks[parser.pos]
    if trailing[0] != "end":
        raise parser.error(trailing, f"unexpected token {trailing[1]!r}")
    return poly
