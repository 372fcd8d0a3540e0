"""Middle-matrix representation: construction, blocks, bounds."""

import random

import pytest

from ncplush.calculus import complex_hessian
from ncplush.errors import NotQuadraticInDirections, NotSymmetric
from ncplush.freealg import NcPoly, parse_poly
from ncplush.mmr import (
    BorderVector,
    block_view,
    build_mmr,
    check_degree_bound,
    expand_mmr,
    stratum_of,
)

from conftest import random_poly

P = parse_poly


def single_word(text, g=None):
    (word,) = P(text, g).terms
    return word


def test_single_slot():
    border, middle = build_mmr(P("h1'*h1"))
    assert border.entries == (single_word("h1"),)
    assert middle.entries[0][0] == NcPoly.const(1, 1)
    assert expand_mmr(border, middle) == P("h1'*h1")


def test_hessian_of_quartic_structure():
    q = complex_hessian(P("x1'*x1*x1'*x1"))
    border, middle = build_mmr(q)
    words = list(border.entries)
    assert words == [single_word("h1"), single_word("h1*x1'*x1"),
                     single_word("h1'*x1")]
    assert border.strata[0].family == "A"
    assert border.strata[1].family == "B"
    assert border.strata[2].family == "Bt"
    # mixed border couples to the analytic one while its own diagonal is zero
    assert middle.entries[1][1].is_zero()
    assert middle.entries[0][1] == NcPoly.const(1, 1)
    assert middle.entries[0][0] == P("x1*x1'")
    assert expand_mmr(border, middle) == q


def test_rejects_non_quadratic_and_nonsymmetric():
    with pytest.raises(NotQuadraticInDirections):
        build_mmr(P("h1*x1"))
    with pytest.raises(NotSymmetric):
        build_mmr(P("h1'*h1*x1"))  # transpose is x1'*h1'*h1, not present


def test_block_view_examples():
    q1_only = block_view(*reversed(build_mmr(complex_hessian(P("x1'*x1")))))
    assert q1_only.q1 == [[NcPoly.const(1, 1)]]
    assert q1_only.q4 == [] and q1_only.q5 == []

    q5_only = block_view(*reversed(build_mmr(complex_hessian(P("x1*x1'")))))
    assert q5_only.q5 == [[NcPoly.const(1, 1)]]
    assert q5_only.q1 == []

    mixed = block_view(*reversed(build_mmr(complex_hessian(P("x1'*x1*x1'*x1")))))
    assert mixed.q4 == [[NcPoly.zero(1)]]
    assert mixed.q2 == [[NcPoly.const(1, 1)]]
    assert mixed.q8 == [[NcPoly.const(1, 1)]]


def test_degree_bound_examples():
    border, _ = build_mmr(complex_hessian(P("x1'*x1")))
    assert check_degree_bound(border, 2)
    assert border.max_degree() == 1

    border4, _ = build_mmr(complex_hessian(P("x1'*x1'*x1*x1")))
    assert check_degree_bound(border4, 4)
    assert border4.max_degree() == 2

    word = single_word("h1*x1*x1")
    synthetic = BorderVector(1, (word,), (stratum_of(word),))
    assert not check_degree_bound(synthetic, 4)


def test_stratum_classification_and_capacity():
    assert stratum_of(single_word("h1*x1*x1")) == ("A", 2)
    assert stratum_of(single_word("h1*x1'")) == ("B", 1)
    assert stratum_of(single_word("h1'*x1'")) == ("At", 1)
    assert stratum_of(single_word("h1'*x1")) == ("Bt", 1)


def test_reconstruction_minimality_distinctness(small_corpus):
    rng = random.Random(51)
    polys = [complex_hessian(inst["p"]) for inst in small_corpus[:12]]
    for _ in range(8):
        p = random_poly(rng, 2, max_deg=3)
        polys.append(complex_hessian(p + p.T))
    for q in polys:
        if q.is_zero():
            continue
        border, middle = build_mmr(q)
        assert expand_mmr(border, middle) == q
        size = len(border.entries)
        assert all(middle.entries[i][j] == middle.entries[j][i].T
                   for i in range(size) for j in range(size))
        assert len(set(border.entries)) == size
        for i in range(size):
            row_nonzero = any(not middle.entries[i][j].is_zero() for j in range(size))
            assert row_nonzero  # minimal border: no dead rows
        for row in middle.entries:
            for entry in row:
                assert not entry.has_directions()
        # hessian-shaped input: h-led and h'-led strata never couple
        for i in range(size):
            for j in range(size):
                if (border.entries[i][0] & 1) != (border.entries[j][0] & 1):
                    assert middle.entries[i][j].is_zero()


def test_plush_corpus_block_structure(small_corpus):
    # sums of squares: mixed strata empty, Q1 hereditary, Q5 antihereditary
    from ncplush.freealg import is_antihereditary_word, is_hereditary_word

    for inst in small_corpus:
        q = complex_hessian(inst["p"])
        if q.is_zero():
            continue
        border, middle = build_mmr(q)
        assert not border.family_indices("B")
        assert not border.family_indices("Bt")
        blocks = block_view(middle, border)
        for row in blocks.q1:
            for entry in row:
                assert all(is_hereditary_word(w) for w in entry.terms)
        for row in blocks.q5:
            for entry in row:
                assert all(is_antihereditary_word(w) for w in entry.terms)


def test_full_hessian_four_block_form():
    # inputs with hh / h'h' patterns use the cross blocks but still expand
    from ncplush.calculus import full_hessian

    rng = random.Random(52)
    for _ in range(10):
        p = random_poly(rng, 2, max_deg=3)
        p = p + p.T
        f = full_hessian(p)
        if f.is_zero():
            continue
        border, middle = build_mmr(f)
        assert expand_mmr(border, middle) == f
