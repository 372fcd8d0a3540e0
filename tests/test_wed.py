"""Wed classes, hessian/derivative recognition, antiderivatives."""

import random

import pytest

from ncplush.calculus import complex_hessian, full_derivative
from ncplush.errors import MixedLetters, NotADerivative, WrongBidegree
from ncplush.freealg import NcPoly, parse_poly
from ncplush.wed import (
    antiderivative,
    is_complex_hessian,
    is_directional_derivative,
    levi_class,
)

from conftest import random_analytic, random_poly

P = parse_poly


def single_word(text, g=None):
    poly = P(text, g)
    (word,) = poly.terms
    return word


def test_levi_class_four_members():
    cls = levi_class(single_word("h1'*h1*x1'*x1"))
    want = {single_word(s) for s in
            ("h1'*h1*x1'*x1", "h1'*x1*x1'*h1", "x1'*h1*h1'*x1", "x1'*x1*h1'*h1")}
    assert cls.members == want
    assert cls.representative == single_word("h1'*h1*x1'*x1")


def test_levi_class_rejects_wrong_bidegree():
    # two h' letters (or two h letters) do not form a Levi class
    for text in ("h1'*x1*h1'*x1", "x1'*h1*x1'*h1"):
        with pytest.raises(WrongBidegree):
            levi_class(single_word(text))
    assert single_word("h1'*x1*h1'*x1") not in levi_class(
        single_word("h1'*h1*x1'*x1")).members


def test_levi_class_singleton():
    cls = levi_class(single_word("h1'*h1"))
    assert cls.members == {single_word("h1'*h1")}


def test_wed_relations_are_equivalences():
    rng = random.Random(41)
    for _ in range(20):
        q = complex_hessian(random_poly(rng, 2, max_deg=3))
        for word in q.terms:
            cls = levi_class(word)
            assert word in cls  # reflexive
            for member in cls.members:
                assert levi_class(member) == cls  # symmetric + transitive


def test_is_complex_hessian_accepts_true_hessian():
    q = P("h1'*h1*x1'*x1 + h1'*x1*x1'*h1 + x1'*h1*h1'*x1 + x1'*x1*h1'*h1")
    ok, witness = is_complex_hessian(q)
    assert ok and witness is None
    assert q == complex_hessian(P("x1'*x1*x1'*x1"))


def test_is_complex_hessian_missing_member_witness():
    ok, witness = is_complex_hessian(P("h1'*h1*x1'*x1"))
    assert not ok
    assert witness == single_word("h1'*x1*x1'*h1")


def test_is_complex_hessian_trivial_and_p1():
    assert is_complex_hessian(NcPoly.zero(1)) == (True, None)
    ok, witness = is_complex_hessian(P("h1*x1"))  # no h'
    assert not ok and witness == single_word("h1*x1")


def test_is_complex_hessian_flags_unequal_coefficients():
    q = P("h1'*h1*x1'*x1 + h1'*x1*x1'*h1 + x1'*h1*h1'*x1 + 2*x1'*x1*h1'*h1")
    ok, witness = is_complex_hessian(q)
    assert not ok and witness is not None


def test_hessians_of_random_polys_are_recognized(small_corpus):
    rng = random.Random(42)
    for _ in range(15):
        p = random_poly(rng, 2, max_deg=3)
        ok, _ = is_complex_hessian(complex_hessian(p))
        assert ok
    for inst in small_corpus[:10]:
        ok, _ = is_complex_hessian(complex_hessian(inst["p"]))
        assert ok


def test_deleting_a_wed_member_flips_recognition():
    rng = random.Random(43)
    checked = 0
    for _ in range(30):
        q = complex_hessian(random_poly(rng, 2, max_deg=3))
        for word in sorted(q.terms):
            if len(levi_class(word)) >= 2:
                trimmed = NcPoly(q.nvars,
                                 {w: c for w, c in q.terms.items() if w != word})
                ok, _ = is_complex_hessian(trimmed)
                assert not ok
                checked += 1
                break
    assert checked >= 10


def test_is_directional_derivative_examples():
    ok, _ = is_directional_derivative(P("h1*x2 + x1*h2", 2))
    assert ok
    ok, witness = is_directional_derivative(P("h1*x2", 2))
    assert not ok and witness == single_word("x1*h2", 2)
    assert is_directional_derivative(NcPoly.zero(1)) == (True, None)


def test_is_directional_derivative_rejects_mixed_by_default():
    with pytest.raises(MixedLetters):
        is_directional_derivative(P("h1*x1'"))
    ok, _ = is_directional_derivative(P("h1'*x1 + x1'*h1"), allow_mixed=True)
    assert ok


def test_constants_are_not_derivatives():
    ok, witness = is_directional_derivative(P("h1 + 1"))
    assert not ok and witness == ()


def test_antiderivative_examples():
    assert antiderivative(P("h1'*x1 + x1'*h1")) == P("x1'*x1")
    assert antiderivative(P("h1*x2 + x1*h2", 2)) == P("x1*x2", 2)
    assert antiderivative(NcPoly.zero(2)) == NcPoly.zero(2)
    with pytest.raises(NotADerivative):
        antiderivative(P("h1*x2", 2))


def test_antiderivative_inverts_full_derivative():
    rng = random.Random(44)
    for _ in range(20):
        p = random_analytic(rng, 3, max_deg=3, min_deg=1)
        assert antiderivative(full_derivative(p)) == p
    for _ in range(10):
        # general mixed case: recover any zero-constant polynomial
        p = random_poly(rng, 2, max_deg=3)
        p = NcPoly(p.nvars, {w: c for w, c in p.terms.items() if w})
        assert antiderivative(full_derivative(p)) == p
