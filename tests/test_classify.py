"""End-to-end decision pipeline: screens, certificates, refutations."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from ncplush.calculus import complex_hessian
from ncplush import classify
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
from ncplush.errors import AlreadyDirectional, NotSymmetric, WrongBidegree
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
    # a stray word of odd length: the label is the parity of the hessian degree
    violation = screen("x1*x1'*x1 + x1'*x1*x1'")
    assert violation is not None and violation.kind == "odd_degree"
    assert violation.detail == "hessian degree 3 is odd"
    # without a stray word an odd degree is left to the Gram LDL'
    assert screen("x1'*x1*x1 + x1'*x1'*x1") is None


def test_screen_passes_degree_bound_input():
    # hessian of x1'x1'x1'x1 + transpose: borders reach degree 3 > floor(4/2),
    # but there is no stray word, so the Gram LDL' refutes it
    p = P("x1'*x1'*x1'*x1 + x1'*x1*x1*x1")
    assert structural_screen(p) is None
    assert hessian_screen(complex_hessian(p)).kind == "degree_bound"


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


def test_find_witness_checks_the_bidegree():
    with pytest.raises(WrongBidegree):
        find_witness(P("h1*h1"), Violation("mixed_block", "label"))


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


def replay_at_e0(q, X, H):
    """e0' q(X, H) e0 in Fractions, from dense copies of the float tuples."""
    def exact(tup):
        return [[[Fraction(v) for v in row] for row in m] for m in tup.entries]

    mats = []  # letter code 4j + kind -> kinds x, x', h, h'
    for x, h in zip(exact(X), exact(H)):
        for m in (x, h):
            mats.append(m)
            mats.append([list(col) for col in zip(*m)])
    mats = [mats[4 * j + k] for j in range(X.nvars) for k in (0, 1, 2, 3)]
    total = Fraction(0)
    for word, coeff in q.terms.items():
        vec = [Fraction(int(i == 0)) for i in range(X.n)]
        for letter in reversed(word):
            m = mats[letter]
            vec = [sum(m[i][k] * vec[k] for k in range(X.n)) for i in range(X.n)]
        total += coeff * vec[0]
    return total


def assert_constructed(p, verdict):
    """A not_plush verdict with an exact negative value that a separate
    Fraction replay through q confirms, and a float eigenvalue that agrees."""
    assert verdict.kind == "not_plush", p
    cex = verdict.counterexample
    q = complex_hessian(p)
    assert cex.exact_value is not None and cex.exact_value < 0, p
    assert replay_at_e0(q, cex.X, cex.H) == cex.exact_value, p
    assert cex.eigenvalue <= -1e-8, p
    assert quadratic_min_eigenvalue(q, cex.X, cex.H) == pytest.approx(cex.eigenvalue)
    assert cex.eigenvalue <= float(cex.exact_value) + 1e-9, p  # e0 is a unit vector
    return cex


@pytest.mark.parametrize("text, path", [
    ("0 - x1'*x1", "negative_pivot"),
    ("0 - x1*x1'", "negative_pivot"),
    ("x1'*x1*x1 + x1'*x1'*x1", "obstruction"),
    ("x1'*x1'*x1'*x1 + x1'*x1*x1*x1", "obstruction"),
])
def test_gram_failure_gets_constructed_witness(text, path):
    p = P(text)
    verdict = decide_plush(p, SamplePolicy(tol=1e9))  # the search would find nothing
    cex = assert_constructed(p, verdict)
    assert cex.path == path and verdict.reason is None
    value = cex.exact_value
    assert f"exact value: {value.numerator}/{value.denominator}" in format_report(verdict)
    data = json.loads(json.dumps(verdict_to_dict(verdict, 1)))
    assert Fraction(data["counterexample"]["exact_value"]) == value


def test_gram_failures_near_the_boundary_are_all_exact():
    rng = random.Random(8080)
    inputs = []
    for eps in (Fraction(1, 10), Fraction(1, 10**3), Fraction(1, 10**6)):
        for _ in range(12):
            g = rng.randint(1, 3)
            plush = plush_instance(rng, g, max_deg=2)["p"]
            f = random_analytic(rng, g, max_deg=3, min_deg=1)
            inputs.append(plush - eps * (f.T * f))
    while len(inputs) < 76:
        r = random_poly(rng, rng.randint(1, 3), max_deg=rng.randint(2, 6))
        p = r + r.T
        if not p.is_zero() and all(is_hereditary_word(w) or is_antihereditary_word(w)
                                   for w in p.terms):
            inputs.append(p)
    kinds = {"plush": 0, "not_plush": 0, "inconclusive": 0}
    for p in inputs:
        verdict = decide_plush(p)
        kinds[verdict.kind] += 1
        if verdict.kind == "not_plush":
            assert_constructed(p, verdict)
    assert kinds["inconclusive"] == 0 and kinds["not_plush"] >= 40, kinds


def test_oversized_construction_falls_back_to_the_search(monkeypatch):
    monkeypatch.setattr(classify, "MAX_MATRIX_SIZE", 2)
    p = P("0 - x1'*x1")  # the construction needs size 3
    verdict = decide_plush(p)
    assert verdict.kind == "not_plush"
    assert verdict.counterexample.exact_value is None
    assert verdict.counterexample.path == "negative_pivot"
    assert "size 3 > 2" in verdict.reason and "reason: " in format_report(verdict)
    stuck = decide_plush(p, SamplePolicy(tol=1e9))
    assert stuck.kind == "inconclusive"
    assert stuck.reason.startswith("negative_pivot: ") and "size 3 > 2" in stuck.reason


def test_construction_outside_the_float_range_falls_back_to_the_search():
    # c'Gc = -10^-400 would need entries near 2^665 in a degree-6 hessian
    p = P("x1'*x1 - 1/1" + "0" * 400 + "*x1'*x1'*x1'*x1*x1*x1")
    verdict = decide_plush(p, SamplePolicy((1,), 2))
    assert verdict.kind in ("not_plush", "inconclusive")
    assert "the constructed witness would leave the float range" in verdict.reason


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
    assert "exact_value" not in data2["counterexample"]  # a searched witness
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
    antihereditary.  So every stray word fails the screen, with the kind the
    checks read off q give it.  Without a stray word a failed check on q
    leaves the refutation to the Gram LDL' of p."""
    rng = random.Random(5150)
    inputs = [inst["p"] for inst in small_corpus]
    while len(inputs) < 430:
        r = random_poly(rng, rng.randint(1, 3), max_deg=rng.randint(2, 7))
        if not (r + r.T).is_zero():
            inputs.append(r + r.T)
    counts = {True: 0, False: 0, "gram": 0}
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
        if stray:
            assert from_words is not None and from_words.kind == from_q.kind, p
            if from_q.kind != "mixed_block":
                assert from_words.detail == from_q.detail, p
        else:
            assert from_words is None, p
            if from_q is not None:
                assert_constructed(p, decide_plush(p))
                counts["gram"] += 1
    assert counts[True] >= 100 and counts[False] >= 100 and counts["gram"] >= 20, counts
