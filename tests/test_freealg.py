"""Free-algebra core: arithmetic, involution, evaluation, grammar."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplush import freealg
from ncplush.calculus import complex_hessian
from ncplush.errors import AmbientMismatch, MissingDirection, ParseError, SizeMismatch
from ncplush.freealg import (
    MAX_PAREN_DEPTH,
    MAX_TERMS,
    MAX_VARIABLE_INDEX,
    MatrixTuple,
    NcPoly,
    direct_sum,
    evaluate,
    format_poly,
    is_analytic_word,
    lh,
    lht,
    lx,
    lxt,
    parse_poly,
    word_involution,
)

from conftest import random_poly


def P(text, g=None):
    return parse_poly(text, g)


# ---------------------------------------------------------------------------
# letters and words
# ---------------------------------------------------------------------------

def test_word_involution_reverses_and_transposes():
    w = (lx(1), lx(2))
    assert word_involution(w) == (lxt(2), lxt(1))
    assert word_involution(word_involution(w)) == w


# ---------------------------------------------------------------------------
# multiply
# ---------------------------------------------------------------------------

def test_multiply_concatenates_words():
    assert P("x1") * P("x1'") == P("x1*x1'")


def test_multiply_distributes():
    assert P("x1 + x2", 2) * P("x1", 2) == P("x1*x1 + x2*x1", 2)


def test_analytic_closed_under_products():
    p = P("x1*x2*x4 + x3*x1", 4)  # analytic but not symmetric
    assert all(map(is_analytic_word, p.terms)) and not p.is_symmetric()
    assert all(map(is_analytic_word, (p * p).terms))


def test_multiply_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        P("x1", 1) * P("x2", 2)


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------

def test_involution_examples():
    assert P("x1*x2", 2).T == P("x2'*x1'", 2)
    p = P("x1*x1' + x2'*x2", 2)
    assert p.T == p and p.is_symmetric()
    assert NcPoly.zero(1).T == NcPoly.zero(1)


def test_involution_is_involutive():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, 2)
        assert p.T.T == p


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_hand_example():
    X = MatrixTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
    got = evaluate(P("x1'*x1"), X)
    assert np.allclose(got, [[0.0, 0.0], [0.0, 1.0]])


def test_evaluate_constant_scales_identity():
    X = MatrixTuple([np.zeros((3, 3))])
    got = evaluate(NcPoly.const(1, Fraction(5, 2)), X)
    assert np.allclose(got, 2.5 * np.eye(3))


def test_evaluate_variable_is_substitution():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(evaluate(P("x1"), MatrixTuple([m])), m)


def test_evaluate_requires_direction_tuple():
    X = MatrixTuple([np.eye(2)])
    with pytest.raises(MissingDirection):
        evaluate(P("h1*x1"), X)
    with pytest.raises(SizeMismatch):
        evaluate(P("h1*x1"), X, MatrixTuple([np.eye(3)]))


def test_evaluate_compatible_with_transposition():
    rng = np.random.default_rng(5)
    X = MatrixTuple(rng.uniform(-1, 1, (2, 3, 3)))
    p = P("x1*x2*x1' - 2*x2'", 2)
    assert np.allclose(evaluate(p.T, X), evaluate(p, X).T, atol=1e-12)


def test_evaluate_is_multiplicative_homomorphism():
    rng = random.Random(11)
    nrng = np.random.default_rng(11)
    for _ in range(10):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2)
        X = MatrixTuple(nrng.uniform(-1, 1, (2, 3, 3)))
        lhs = evaluate(p * q, X)
        rhs = evaluate(p, X) @ evaluate(q, X)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def _evaluate_word_by_word(p, X, H):
    out = np.zeros((X.n, X.n))
    for word, coeff in p.terms.items():
        acc = np.eye(X.n)
        for c in word:
            m = (H if c & 2 else X).entries[c >> 2]
            acc = acc @ (m.T if c & 1 else m)
        out += float(coeff) * acc
    return out


@pytest.mark.parametrize("cache_floats", [None, 40, 1])
def test_evaluate_shared_prefixes_change_no_bit(monkeypatch, cache_floats):
    # kept prefix products, all (None), some (40) or none (1), give the
    # same floats as multiplying each word out on its own
    if cache_floats is not None:
        monkeypatch.setattr(freealg, "EVAL_CACHE_FLOATS", cache_floats)
    rng = random.Random(29)
    nrng = np.random.default_rng(29)
    for _ in range(20):
        p = random_poly(rng, 2)
        q = complex_hessian(p + p.T)
        X = MatrixTuple(nrng.uniform(-1, 1, (2, 3, 3)))
        H = MatrixTuple(nrng.uniform(-1, 1, (2, 3, 3)))
        for poly in (p, q):
            got, want = evaluate(poly, X, H), _evaluate_word_by_word(poly, X, H)
            assert got.tobytes() == want.tobytes()


def test_identity_testing_by_sampling():
    # nonzero p of degree d stays nonzero at a generic tuple of size d+1
    rng = random.Random(23)
    nrng = np.random.default_rng(23)
    for _ in range(20):
        p = random_poly(rng, 2, max_deg=3)
        if p.is_zero():
            continue
        n = p.degree() + 1
        X = MatrixTuple(nrng.uniform(-1, 1, (2, n, n)))
        assert np.max(np.abs(evaluate(p, X))) > 1e-10


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def test_direct_sum_sizes_and_pattern():
    rng = np.random.default_rng(3)
    t1 = MatrixTuple(rng.uniform(-1, 1, (2, 1, 1)))
    t2 = MatrixTuple(rng.uniform(-1, 1, (2, 2, 2)))
    t3 = MatrixTuple(rng.uniform(-1, 1, (2, 3, 3)))
    s = direct_sum([t1, t2])
    assert s.n == 3 and s.nvars == 2

    s3 = direct_sum([t1, t2, t3])
    for j in range(2):
        want = np.zeros((6, 6))
        want[:1, :1] = t1.entries[j]
        want[1:3, 1:3] = t2.entries[j]
        want[3:, 3:] = t3.entries[j]
        assert np.array_equal(s3.entries[j], want)

    with pytest.raises(ValueError):
        direct_sum([])


def test_direct_sum_commutes_with_evaluation():
    rng = np.random.default_rng(9)
    X = MatrixTuple(rng.uniform(-1, 1, (1, 2, 2)))
    p = P("x1*x1' + x1'*x1 - x1")
    ev_single = np.linalg.eigvals(evaluate(p, X))
    ev_double = np.linalg.eigvals(evaluate(p, direct_sum([X, X])))
    assert np.allclose(np.sort(ev_double), np.sort(np.concatenate([ev_single] * 2)),
                       atol=1e-10)


# ---------------------------------------------------------------------------
# ring axioms (property tests)
# ---------------------------------------------------------------------------

@st.composite
def polys(draw, g=2, max_deg=3, max_terms=3):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        length = draw(st.integers(0, max_deg))
        word = tuple(
            draw(st.sampled_from([lx, lxt, lh, lht]))(draw(st.integers(1, g)))
            for _ in range(length)
        )
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[word] = terms.get(word, 0) + coeff
    return NcPoly(g, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_involution_antiautomorphism(p, q):
    assert (p * q).T == q.T * p.T


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_printer_matches_grammar_example():
    p = P("x1'*x1 + 2*x2*x2' - 1/3", 2)
    assert format_poly(p) == "x1'*x1 + 2*x2*x2' - 1/3"


def test_parse_juxtaposition_and_parens():
    assert P("x1 x2", 2) == P("x1*x2", 2)
    assert P("(x1 + x2)'", 2) == P("x1' + x2'", 2)
    assert P("2(x1 - 1/2)") == P("2*x1 - 1")


def test_parse_transpose_powers():
    assert P("x1''") == P("x1")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + $")
    assert err.value.line == 1 and err.value.column == 6
    with pytest.raises(ParseError):
        parse_poly("x3", nvars=2)
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x1 +")
    for text, message in (("1/x1", "1:3: expected integer denominator"),
                          ("(x1/2)", "1:4: expected ')'"),
                          ("x1 + * x2", "1:6: unexpected token '*'"),
                          ("x1 +\n  x2 $", "2:6: unexpected character '$'"),
                          ("x1 +", "1:5: unexpected end of input"),
                          ("(x1", "1:4: unexpected end of input"),
                          ("x1 x2 \n (x1", "2:5: unexpected end of input"),
                          ("\tx", "1:2: variable 'x' needs an index"),
                          ("x1\r\n$", "2:1: unexpected character '$'"),
                          ("x1 \f", "1:4: unexpected character '\\x0c'"),
                          ("   ", "1:1: empty input"),
                          # int() reads at most sys.get_int_max_str_digits()
                          # digits, and no '²', which str.isdigit() accepts
                          ("1" * 5000 + "*x1", "1:1: integer literal is too long"),
                          ("x" + "1" * 5000, f"1:1: variable x{'1' * 5000} exceeds the "
                                             f"limit of {MAX_VARIABLE_INDEX} variables"),
                          ("x1 + ²", "1:6: unexpected character '²'")):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert str(err.value) == message
    depth = MAX_PAREN_DEPTH
    assert parse_poly("(" * depth + "x1" + ")" * depth) == P("x1")
    with pytest.raises(ParseError) as err:
        parse_poly("(" * 3000 + "x1" + ")" * 3000)
    assert err.value.line == 1 and err.value.column == depth + 1


def test_parse_caps_variable_index():
    cap = MAX_VARIABLE_INDEX
    assert P(f"x{cap}").nvars == cap
    with pytest.raises(ParseError) as err:
        parse_poly(f"x1 + h{cap + 1}")
    assert err.value.column == 6
    with pytest.raises(ParseError):
        parse_poly("x99999999")
    for g in (0, cap + 1, 100000000):
        with pytest.raises(ParseError):
            parse_poly("x1", g)


def test_parse_builds_linear_size(monkeypatch):
    # a sum of 2,000 distinct words; copying the running sum for every '+'
    # would build about 2000**2 / 2 dict entries
    letters = ["x1", "x2", "x3", "x1'", "x2'", "x3'"]
    words = itertools.islice(itertools.product(letters, repeat=5), 2000)
    text = " + ".join("*".join(word) for word in words)
    built = []
    raw = NcPoly._raw.__func__

    def counting_raw(cls, nvars, terms):
        built.append(len(terms))
        return raw(cls, nvars, terms)

    monkeypatch.setattr(NcPoly, "_raw", classmethod(counting_raw))
    assert len(parse_poly(text).terms) == 2000
    assert sum(built) <= 2 * len(text)


def test_parse_caps_term_count():
    assert len(P("(x1+x2)" * 13).terms) == 2**13 <= MAX_TERMS
    with pytest.raises(ParseError) as err:
        parse_poly("(x1+x2)" * 30)
    assert err.value.column == 13 * 7 + 1
    wide = "(" + "+".join(f"x{i}" for i in range(1, 102)) + ")"  # 101 terms
    with pytest.raises(ParseError) as err:
        parse_poly(wide * 2)
    assert err.value.column == len(wide) + 1


def test_parse_infers_ambient():
    assert P("x3").nvars == 3
    assert P("x3", 5).nvars == 5
    assert P("7").nvars == 1


def test_print_parse_roundtrip():
    rng = random.Random(77)
    for _ in range(40):
        p = random_poly(rng, 3, max_deg=4, max_terms=5, alphabet="x xt h ht")
        assert parse_poly(format_poly(p), p.nvars) == p
