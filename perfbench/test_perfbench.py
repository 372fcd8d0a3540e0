"""Tests of the benchmark's own generators, checks and span arithmetic."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import oracle
import spans
from ncplush import NcPoly, classify, decide_plush, numeval
from workloads import WORKLOADS, boundary_instance, cases, format_text


def word_involution(word):
    return tuple(code ^ 1 for code in reversed(word))


def _take(workload, seed, n):
    return list(itertools.islice(cases(workload, seed), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic(workload):
    assert _take(workload, 5, 8) == _take(workload, 5, 8)
    assert _take(workload, 5, 8) != _take(workload, 6, 8)
    assert _take(workload, 5, 8) != list(itertools.islice(cases(workload, 5, stream=1), 8))


def test_boundary_inputs_have_negative_top_gram_entry():
    # the same rng stream as cases("refute_boundary", 3)
    rng = random.Random("refute_boundary:3:0")
    for i, case in enumerate(_take("refute_boundary", 3, 45)):
        again, m = boundary_instance(rng, i)
        assert again == case
        assert len(m) == 3 and all(code & 3 == 0 for code in m)
        assert case.p[word_involution(m) + m] < 0


def test_certificate_check_accepts_and_rejects_tampering():
    p = {(1, 0): Fraction(2), (0, 4, 5, 1): Fraction(1), (0, 4): Fraction(1),
         (5, 1): Fraction(1)}  # 2*x1'*x1 + x1*x2*x2'*x1' + x1*x2 + x2'*x1'
    dec = decide_plush(NcPoly(2, p)).decomposition
    fs, ks = [f.terms for f in dec.fs], [k.terms for k in dec.ks]
    wf, wk, F = list(dec.weights_f), list(dec.weights_k), dec.F.terms
    assert (wf, wk) == ([2], [1])
    assert oracle.certificate_error(p, wf, fs, wk, ks, F) is None
    assert oracle.certificate_error(p, [3], fs, wk, ks, F) == "re-expansion differs from p"
    assert oracle.certificate_error(p, [-2], fs, wk, ks, F) == "a weight is not positive"
    assert oracle.certificate_error(p, wf, fs, wk, ks, {(1,): Fraction(1)}) == (
        "a piece is not analytic")
    assert oracle.certificate_error(p, wf, fs, wk, [], F) is not None


def test_witness_check_accepts_and_rejects_tampering():
    p = {(1, 0, 1, 0): Fraction(1)}  # x1'*x1*x1'*x1
    verdict = decide_plush(NcPoly(1, p))
    assert verdict.kind == "not_plush"
    cex = verdict.counterexample
    X, H = np.stack(cex.X.entries), np.stack(cex.H.entries)
    assert oracle.witness_error(p, 1, X, H, cex.eigenvalue) is None
    assert oracle.witness_error(p, 1, X, np.zeros_like(H), cex.eigenvalue) is not None
    assert oracle.witness_error(p, 1, X, H, cex.eigenvalue * 2) is not None
    assert oracle.witness_error(p, 2, X, H, cex.eigenvalue) is not None


def test_self_times_on_a_hand_built_tree():
    S = spans.Span
    tree = [
        S(0, -1, 7, "root", 0.0, 10.0),
        S(1, 0, 7, "a", 1.0, 4.0),
        S(2, 0, 7, "c", 5.0, 9.0),
        S(3, 2, 7, "d", 6.0, 7.0),
        S(4, -1, 8, "root", 20.0, 21.0),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert spans.self_time_mismatch(tree) == 0.0

    # overlapping siblings are covered once in the parent, but each keeps its
    # own self time, so the decision's self times exceed its wall time
    overlap = tree + [S(5, 0, 7, "b", 3.5, 5.5)]
    assert spans.self_times(overlap)[0] == 2.0
    assert spans.self_time_mismatch(overlap) == 1.0


def test_installed_wrappers_nest_and_are_removed():
    originals = (classify.complex_hessian, numeval.evaluate, NcPoly.__mul__)
    tracer = spans.Tracer()
    root = tracer.wrap("classify.decide_plush", classify.decide_plush)
    with spans.installed(tracer):
        root(NcPoly(1, {(1, 0, 1, 0): Fraction(1)}))
    assert (classify.complex_hessian, numeval.evaluate, NcPoly.__mul__) == originals
    names = {s.name for s in tracer.spans}
    assert {"calculus.complex_hessian", "classify.find_witness", "freealg.evaluate"} <= names
    assert tracer.spans[0].parent_id == -1
    assert all(s.parent_id >= 0 for s in tracer.spans[1:])
    assert tracer.counts["numeval.witnesses"] == 1
    assert spans.self_time_mismatch(tracer.spans) < 1e-9


def test_format_text_round_trips():
    for case in _take("certify_deep", 1, 3):
        assert oracle.parse_text(format_text(case.p)) == case.p
