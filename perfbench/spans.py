"""In-memory spans around calls into the library's modules, from outside.

``Tracer.wrap`` returns a function that records a span (id, parent id,
decision id, name, start, end) around each call.  ``installed`` replaces
the names that ``ncplush.classify``, ``ncplush.numeval`` and ``ncplush.cli``
look up at call time, plus ``NcPoly.__mul__`` for work counts, and puts the
originals back on exit.  No file of the library changes.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from ncplush import classify, cli, numeval
from ncplush.freealg import NcPoly
from ncplush.ldlt import Obstruction


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a decision's root span
    decision_id: int
    name: str
    start: float
    end: float


class Tracer:
    """Spans and counts of one traced run; `decision` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.decision = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[Counter, object], None]] = None) -> Callable:
        """`fn` with a span named `name`; `count(counts, result)` runs inside it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = Span(span_id, parent, self.decision, name, start, end)

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id >= 0:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def self_time_mismatch(spans: list[Span]) -> float:
    """Largest |sum of a decision's self times - its root span's duration|."""
    own = self_times(spans)
    total: dict[int, float] = defaultdict(float)
    wall: dict[int, float] = {}
    for s in spans:
        total[s.decision_id] += own[s.span_id]
        if s.parent_id < 0:
            wall[s.decision_id] = wall.get(s.decision_id, 0.0) + s.end - s.start
    return max((abs(total[d] - wall.get(d, 0.0)) for d in total), default=0.0)


# -- counts taken from results at the layer boundary -------------------------

def _count_ldlt(counts: Counter, fac) -> None:
    if isinstance(fac, Obstruction):
        counts["ldlt.obstructions"] += 1
        counts["ldlt.pivots"] += len(fac.perm_prefix)
        return
    for value in fac.diag_values():
        counts["ldlt.pivots"] += value != 0
        counts["ldlt.zero_pivots"] += value == 0
        counts["ldlt.negative_pivots"] += value < 0


def _count_mmr(counts: Counter, result) -> None:
    border = result[0]
    for tag in border.strata:
        family = tag.family if tag.family in ("A", "At") else "mixed"
        counts[f"mmr.border_{family}"] += 1


def _count_hessian(counts: Counter, q) -> None:
    counts["calculus.hessian_terms"] += len(q.terms)


def _count_screen(counts: Counter, violation) -> None:
    if violation is not None:
        counts[f"classify.screen.{violation.kind}"] += 1


def _count_witness(counts: Counter, witness) -> None:
    counts["numeval.witnesses"] += witness is not None


def _count_sample(counts: Counter, _value) -> None:
    counts["numeval.samples"] += 1


# (module, attribute, span name, count hook)
_TARGETS = (
    (classify, "complex_hessian", "calculus.complex_hessian", _count_hessian),
    (classify, "build_mmr", "mmr.build_mmr", _count_mmr),
    (classify, "block_view", "mmr.block_view", None),
    (classify, "ldlt_factor", "ldlt.ldlt_factor", _count_ldlt),
    (classify, "structural_screen", "classify.structural_screen", _count_screen),
    (classify, "find_witness", "classify.find_witness", _count_witness),
    (classify, "verify_decomposition", "classify.verify_decomposition", None),
    (classify, "is_directional_derivative", "wed.is_directional_derivative", None),
    (classify, "antiderivative", "wed.antiderivative", None),
    (classify, "quadratic_min_eigenvalue", "numeval.quadratic_min_eigenvalue",
     _count_sample),
    (classify, "random_tuple", "numeval.random_tuple", None),
    (numeval, "evaluate", "freealg.evaluate", None),
    (numeval, "min_eigenvalue", "numeval.min_eigenvalue", None),
    (cli, "parse_poly", "freealg.parse_poly", None),
    (cli, "decide_plush", "classify.decide_plush", None),
)

SPAN_NAMES = ("cli.main",) + tuple(t[2] for t in _TARGETS)


def _counting_mul(counts: Counter, mul: Callable) -> Callable:
    @functools.wraps(mul)
    def counted(a, b):
        counts["freealg.polymul.calls"] += 1
        counts["freealg.polymul.term_pairs"] += len(a.terms) * (
            len(b.terms) if isinstance(b, NcPoly) else 1)
        return mul(a, b)

    return counted


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the library's call-time lookups through `tracer`'s wrappers."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _TARGETS]
    saved.append((NcPoly, "__mul__", NcPoly.__mul__))
    try:
        for module, attr, name, count in _TARGETS:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        NcPoly.__mul__ = _counting_mul(tracer.counts, NcPoly.__mul__)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
