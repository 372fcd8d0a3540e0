"""End-to-end decision pipeline: screens, certificates, refutations."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from ncplush.calculus import complex_hessian
from ncplush.classify import (
    Decomposition,
    Violation,
    decide_plush,
    find_witness,
    format_report,
    structural_screen,
    verdict_to_dict,
    verify_decomposition,
)
from ncplush.errors import AlreadyDirectional, NotSymmetric
from ncplush.freealg import NcPoly, is_antihereditary_word, is_hereditary_word, parse_poly
from ncplush.ldlt import Obstruction, ldlt_factor
from ncplush.mmr import block_view, build_mmr, check_degree_bound
from ncplush.numeval import SamplePolicy, quadratic_min_eigenvalue, random_tuple

from conftest import COEFF_POOL, plush_instance, random_analytic, random_poly, random_word

P = parse_poly


def screen(p_text, g=None):
    return structural_screen(P(p_text, g))


def hessian_screen(q):
    """Reference screen read off the complex hessian q itself: its degree,
    the mixed families of its border vector and the border degree bound."""
    border, _ = build_mmr(q)
    degree = q.degree()
    if degree % 2 == 1:
        return Violation("odd_degree", f"hessian degree {degree} is odd")
    if border.family_indices("B") + border.family_indices("Bt"):
        return Violation("mixed_block", "mixed border monomial")
    if not check_degree_bound(border, degree):
        return Violation("degree_bound",
                         f"border degree {border.max_degree()} exceeds {degree // 2}")
    return None


def test_screen_passes_simple_square():
    assert screen("x1'*x1") is None


def test_screen_flags_mixed_block():
    violation = screen("x1'*x1*x1'*x1")
    assert violation is not None and violation.kind == "mixed_block"
    assert "x1'*x1*x1'*x1" in violation.detail


def test_screen_flags_odd_degree():
    violation = screen("x1'*x1*x1 + x1'*x1'*x1")
    assert violation is not None and violation.kind == "odd_degree"


def test_screen_flags_degree_bound():
    # hessian of x1'x1'x1'x1 + transpose: borders reach degree 3 > floor(4/2)
    violation = screen("x1'*x1'*x1'*x1 + x1'*x1*x1*x1")
    assert violation is not None and violation.kind == "degree_bound"


def test_decide_plush_single_square():
    verdict = decide_plush(P("x1'*x1"))
    assert verdict.is_plush
    dec = verdict.decomposition
    assert dec.fs == (P("x1"),)
    assert dec.weights_f == (Fraction(1),)
    assert dec.ks == () and dec.F == NcPoly.zero(1)
    assert verify_decomposition(P("x1'*x1"), dec)


def test_decide_plush_two_variable_shape():
    p = P("x1'*x1 + x2*x2' + x1*x2 + x2'*x1'", 2)
    verdict = decide_plush(p)
    assert verdict.is_plush
    dec = verdict.decomposition
    assert dec.fs == (P("x1", 2),)
    assert dec.ks == (P("x2", 2),)
    assert dec.F == P("x1*x2", 2)
    assert verify_decomposition(p, dec)


def test_decide_plush_zero_hessian_branch():
    p = P("x1 + x1' + 3")
    verdict = decide_plush(p)
    assert verdict.is_plush
    assert verdict.decomposition.F == P("x1 + 3/2")
    assert verdict.decomposition.fs == ()


def test_decide_plush_requires_symmetry():
    with pytest.raises(NotSymmetric):
        decide_plush(P("x1*x2", 2))


def test_decide_plush_refutes_quartic():
    verdict = decide_plush(P("x1'*x1*x1'*x1"))
    assert verdict.kind == "not_plush"
    cex = verdict.counterexample
    assert cex.path == "mixed_block"
    assert cex.size <= 3
    assert cex.eigenvalue <= -1e-8
    # replay the witness
    q = complex_hessian(P("x1'*x1*x1'*x1"))
    assert quadratic_min_eigenvalue(q, cex.X, cex.H) == pytest.approx(cex.eigenvalue)


def test_decide_plush_negative_weight_refuted():
    verdict = decide_plush(P("0 - x1'*x1"))
    assert verdict.kind == "not_plush"
    assert verdict.counterexample.path == "negative_pivot"


def test_find_witness_trivial_sign_case():
    q = P("0 - h1'*h1")
    cex = find_witness(q, Violation("negative_pivot", "label"), SamplePolicy((1,), 10, 1e-8, 0))
    assert cex is not None and cex.size == 1 and cex.path == "negative_pivot"
    assert cex.eigenvalue <= -1e-8


def test_find_witness_budget_exhaustion_is_none():
    violation = Violation("obstruction", "label")
    assert find_witness(P("h1'*h1"), violation, SamplePolicy((1, 2), 5, 1e-8, 0)) is None


def test_inconclusive_reported_distinctly():
    tiny = SamplePolicy((1,), 3, 1e-8, 0)  # n=1 commutes, never refutes this q
    verdict = decide_plush(P("x1'*x1*x1'*x1"), policy=tiny)
    assert verdict.kind == "inconclusive"
    assert verdict.counterexample is None
    assert "mixed_block" in verdict.reason
    assert verdict.exit_code() == 3


def test_verdict_determinism():
    p = P("x1'*x1*x1'*x1")
    a = decide_plush(p, SamplePolicy(seed=7))
    b = decide_plush(p, SamplePolicy(seed=7))
    assert a == b
    assert format_report(a) == format_report(b)


def test_verify_decomposition_rejects_tampering():
    p = P("x1'*x1 + x2'*x2", 2)
    verdict = decide_plush(p)
    dec = verdict.decomposition
    assert verify_decomposition(p, dec)
    dropped = Decomposition(dec.weights_f[:1], dec.fs[:1],
                            dec.weights_k, dec.ks, dec.F)
    assert not verify_decomposition(p, dropped)
    negated = Decomposition((Fraction(-1),) + dec.weights_f[1:], dec.fs,
                            dec.weights_k, dec.ks, dec.F)
    assert not verify_decomposition(p, negated)


def test_verify_decomposition_rejects_folded_weights():
    # weight 2 on f = x1 is exact; folding sqrt(2) into f cannot stay rational
    p = P("2*x1'*x1")
    good = Decomposition((Fraction(2),), (P("x1"),), (), (), NcPoly.zero(1))
    assert verify_decomposition(p, good)
    approx = Fraction(14142135623730951, 10**16)  # rational near sqrt(2)
    folded = Decomposition((Fraction(1),), (approx * P("x1"),), (), (),
                           NcPoly.zero(1))
    assert not verify_decomposition(p, folded)


def test_verify_decomposition_rejects_nonanalytic_parts():
    p = P("x1'*x1")
    bad = Decomposition((Fraction(1),), (P("x1'"),), (), (), NcPoly.zero(1))
    assert not verify_decomposition(p, bad)


def test_constructive_corpus_certified(small_corpus):
    rng = np.random.default_rng(99)
    for inst in small_corpus:
        p = inst["p"]
        verdict = decide_plush(p)
        assert verdict.is_plush
        assert verify_decomposition(p, verdict.decomposition)
        q = complex_hessian(p)
        assert q.degree() % 2 == 0
        if verdict.ldlt_analytic:
            assert all(v >= 0 for v in verdict.ldlt_analytic.diag_values())
        if verdict.ldlt_antianalytic:
            assert all(v >= 0 for v in verdict.ldlt_antianalytic.diag_values())
        if q.is_zero():
            continue
        for n in (1, 2, 3):
            for _ in range(5):
                X = random_tuple(p.nvars, n, rng)
                H = random_tuple(p.nvars, n, rng)
                assert quadratic_min_eigenvalue(q, X, H) >= -1e-8


def test_refutations_carry_verified_witnesses():
    rng = random.Random(101)
    base = P("x1'*x1*x1'*x1")
    done = 0
    while done < 5:
        # symmetric mixed cubic perturbation; its degree-3 hessian terms
        # cannot cancel against the degree-4 terms of the base hessian
        word = tuple(rng.choice([0, 1]) for _ in range(3))
        if len(set(word)) < 2:
            continue
        m = NcPoly.monomial(1, word, Fraction(1, 10))
        p = base + m + m.T
        assert p.is_symmetric()
        verdict = decide_plush(p)
        assert verdict.kind == "not_plush"
        cex = verdict.counterexample
        q = complex_hessian(p)
        assert quadratic_min_eigenvalue(q, cex.X, cex.H) <= -1e-8
        done += 1


def test_verdict_json_roundtrip():
    plush = decide_plush(P("x1'*x1 + x2*x2' + x1*x2 + x2'*x1'", 2))
    data = json.loads(json.dumps(verdict_to_dict(plush, 2)))
    assert data["verdict"] == "plush" and data["nvars"] == 2
    assert P(data["decomposition"]["F"], 2) == P("x1*x2", 2)

    refuted = decide_plush(P("x1'*x1*x1'*x1"))
    data2 = json.loads(json.dumps(verdict_to_dict(refuted, 1)))
    cex = refuted.counterexample
    assert data2["verdict"] == "not_plush"
    assert data2["counterexample"]["eigenvalue"] == cex.eigenvalue
    assert data2["counterexample"]["path"] == cex.path
    assert np.array_equal(data2["counterexample"]["X"], [m.tolist() for m in cex.X.entries])


def test_gram_factorizations_name_their_words():
    verdict = decide_plush(P("x1'*x1 + 2*x2'*x2 + x1'*x2 + x2'*x1 + x1*x1'", 2))
    assert verdict.is_plush
    report = format_report(verdict)
    assert "ldlt of the analytic Gram matrix:\nwords: [x1, x2]\nperm:" in report
    assert "ldlt of the antianalytic Gram matrix:\nwords: [x1]\nperm:" in report
    assert verdict_to_dict(verdict, 2)["ldlt"]["analytic"]["words"] == ["x1", "x2"]


@pytest.mark.parametrize("text", ["h1'*h1", "x1'*x1 + h1'*x1 + x1'*h1 + h1'*h1",
                                  "h1'*h1*h1'*h1"])
def test_decide_plush_rejects_direction_letters(text):
    with pytest.raises(AlreadyDirectional):
        decide_plush(P(text))


def test_verify_decomposition_rejects_direction_letters():
    decomposition = Decomposition((Fraction(1),), (P("h1"),), (), (), NcPoly.zero(1))
    with pytest.raises(AlreadyDirectional):
        verify_decomposition(P("h1'*h1"), decomposition)


def hessian_route_is_plush(p):
    """Reference verdict from the complex hessian: the structural screen
    passes and both diagonal middle-matrix blocks factor with constant
    nonnegative D."""
    q = complex_hessian(p)
    if hessian_screen(q) is not None:
        return False
    border, middle = build_mmr(q)
    blocks = block_view(middle, border)
    for block in (blocks.q1, blocks.q5):
        if not block:
            continue
        fac = ldlt_factor(block)
        if isinstance(fac, Obstruction):
            return False
        if any(d is None or d < 0 for d in fac.diag_values()):
            return False
    return True


def test_gram_route_agrees_with_hessian_route(small_corpus):
    rng = random.Random(4242)
    inputs = [inst["p"] for inst in small_corpus]
    base = P("x1'*x1*x1'*x1")
    while len(inputs) < 40:
        word = random_word(rng, 1, rng.randint(2, 4))
        m = NcPoly.monomial(1, word, rng.choice(COEFF_POOL))
        inputs.append(base + m + m.T)
    while len(inputs) < 70:
        r = random_poly(rng, rng.randint(1, 3), max_deg=4)
        if not (r + r.T).is_zero():
            inputs.append(r + r.T)
    for i in range(20):
        g = rng.randint(1, 3)
        plush = plush_instance(rng, g, max_deg=2)["p"]
        f = random_analytic(rng, g, max_deg=3, min_deg=1)
        eps = (Fraction(1, 10), Fraction(1, 1000))[i % 2]
        inputs.append(plush - eps * (f.T * f))
    # each has a word that is neither pure, nor a'b, nor ab'
    inputs.append(P("1/3*x1 + 1/3*x1' + x2*x2' - 2*x1*x2*x2' + 1/2*x1*x2'*x1"
                    " + 1/2*x1'*x2*x1' - 2*x2*x2'*x1'", 2))
    inputs.append(P("1/3*x1'*x2 + 1/3*x2'*x1 + x1'*x2'*x1'*x2 - x2*x2'*x2*x2"
                    " + x2'*x1*x2*x1 - x2'*x2'*x2*x2'", 2))
    assert len(inputs) == 92
    one_sample = SamplePolicy((1,), 1, 1e-8, 0)  # only is_plush is compared
    verdicts = [decide_plush(p, policy=one_sample).is_plush for p in inputs]
    assert verdicts == [hessian_route_is_plush(p) for p in inputs]
    assert 0 < sum(verdicts) < len(verdicts)


def test_mixed_border_iff_stray_word(small_corpus):
    """On a complex hessian the mixed-border check carries the whole block
    structure: q = complex_hessian(p) has a B or Bt border monomial exactly
    when p has a word that is neither hereditary nor antihereditary, and
    without one the analytic block is hereditary and the antianalytic block
    antihereditary.  So every stray word fails the screen, and the screen
    on the words of p agrees with the one read off q."""
    rng = random.Random(5150)
    inputs = [inst["p"] for inst in small_corpus]
    while len(inputs) < 430:
        r = random_poly(rng, rng.randint(1, 3), max_deg=rng.randint(2, 7))
        if not (r + r.T).is_zero():
            inputs.append(r + r.T)
    counts = {True: 0, False: 0}
    for p in inputs:
        stray = not all(is_hereditary_word(w) or is_antihereditary_word(w)
                        for w in p.terms)
        counts[stray] += 1
        q = complex_hessian(p)
        border, middle = build_mmr(q)
        mixed = border.family_indices("B") + border.family_indices("Bt")
        assert bool(mixed) == stray, p
        if not mixed:
            blocks = block_view(middle, border)
            assert all(is_hereditary_word(w)
                       for row in blocks.q1 for entry in row for w in entry.terms), p
            assert all(is_antihereditary_word(w)
                       for row in blocks.q5 for entry in row for w in entry.terms), p
        from_words, from_q = structural_screen(p), hessian_screen(q)
        assert (from_words is None) == (from_q is None), p
        if from_q is not None:
            assert from_words.kind == from_q.kind, p
            if from_q.kind != "mixed_block":
                assert from_words.detail == from_q.detail, p
        if stray:
            assert from_words is not None, p
    assert counts[True] >= 100 and counts[False] >= 100, counts
