"""Seeded input generators for the decision benchmark.

The generators follow the constructive corpus of the test suite but are kept
here, with their own word-dict arithmetic, so that edits to the tests or to
the library's algebra cannot move the benchmark's inputs.

A polynomial is a dict mapping words to nonzero ``Fraction`` coefficients.
A word is a tuple of letter codes ``(j - 1) << 2 | t`` where ``t`` is 0 for
``x_j`` and 1 for ``x_j'``; this is also the code the library uses, which
lets the checks compare a certificate with the input word by word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

Word = tuple[int, ...]
Poly = dict[Word, Fraction]

COEFF_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3),
]
WEIGHT_POOL = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(3, 2)]
EPSILONS = (Fraction(1, 10), Fraction(1, 10**3), Fraction(1, 10**6))

WORKLOADS = ("certify_deep", "refute_boundary", "cli_mixed")


# ---------------------------------------------------------------------------
# word-dict arithmetic
# ---------------------------------------------------------------------------

def padd(a: Poly, b: Poly, scale: Fraction = Fraction(1)) -> Poly:
    """a + scale * b."""
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + scale * c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = out.get(w, 0) + c1 * c2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def ptrans(a: Poly) -> Poly:
    """The involution: reverse each word and toggle each transpose bit."""
    return {tuple(c ^ 1 for c in reversed(w)): c for w, c in a.items()}


def degree(a: Poly) -> int:
    return max((len(w) for w in a), default=0)


def format_text(a: Poly) -> str:
    """The library's text grammar, terms in a fixed order."""
    if not a:
        return "0"
    pieces = []
    for w, c in sorted(a.items(), key=lambda wc: (len(wc[0]), wc[0])):
        letters = "*".join(f"x{(code >> 2) + 1}" + ("'" if code & 1 else "")
                           for code in w)
        mag = abs(c)
        body = str(mag) if not w else letters if mag == 1 else f"{mag}*{letters}"
        pieces.append(("-" if c < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {s} {b}" for s, b in pieces[1:])


# ---------------------------------------------------------------------------
# generators (the logic of the test suite's constructive corpus)
# ---------------------------------------------------------------------------

def random_word(rng: random.Random, g: int, length: int, transposes: bool) -> Word:
    kinds = (0, 1) if transposes else (0,)
    return tuple(((rng.randint(1, g) - 1) << 2) | rng.choice(kinds)
                 for _ in range(length))


def random_poly(rng: random.Random, g: int, max_deg: int, max_terms: int) -> Poly:
    terms: Poly = {}
    for _ in range(rng.randint(1, max_terms)):
        w = random_word(rng, g, rng.randint(0, max_deg), True)
        terms = padd(terms, {w: rng.choice(COEFF_POOL)})
    return terms


def random_analytic(rng: random.Random, g: int, max_deg: int = 3, max_terms: int = 3,
                    min_deg: int = 0, force_deg: Optional[int] = None) -> Poly:
    """A nonzero analytic polynomial; with `force_deg`, one of degree force_deg."""
    while True:
        degrees = [rng.randint(min_deg, max_deg) for _ in range(rng.randint(1, max_terms))]
        if force_deg is not None:
            degrees[0] = force_deg
        terms: Poly = {}
        for d in degrees:
            terms = padd(terms, {random_word(rng, g, d, False): rng.choice(COEFF_POOL)})
        if terms and (force_deg is None or degree(terms) == force_deg):
            return terms


def plush_instance(rng: random.Random, g: int, max_deg: int = 3,
                   max_summands: int = 3) -> Poly:
    """p = sum d f'f + sum e k k' + F + F' with random analytic pieces."""
    n_f = rng.randint(0, max_summands)
    n_k = rng.randint(0 if n_f else 1, max_summands)
    fs = [random_analytic(rng, g, max_deg) for _ in range(n_f)]
    ks = [random_analytic(rng, g, max_deg) for _ in range(n_k)]
    if not any(degree(q) >= 2 for q in fs + ks):
        target = fs if fs else ks
        target[0] = random_analytic(rng, g, max_deg, force_deg=rng.randint(2, max_deg))
    weights_f = [rng.choice(WEIGHT_POOL) for _ in fs]
    weights_k = [rng.choice(WEIGHT_POOL) for _ in ks]
    F = random_analytic(rng, g, max_deg) if rng.random() < 0.7 else {}
    p: Poly = {}
    for d, f in zip(weights_f, fs):
        p = padd(p, pmul(ptrans(f), f), d)
    for e, k in zip(weights_k, ks):
        p = padd(p, pmul(k, ptrans(k)), e)
    return padd(padd(p, F), ptrans(F))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One benchmark input; `expected` is None when only the check decides."""

    g: int
    p: Poly
    expected: Optional[str]
    text: str = ""


def certify_deep(rng: random.Random, i: int) -> Case:
    g = (3, 4)[i % 2]
    return Case(g, plush_instance(rng, g, max_deg=rng.randint(6, 10), max_summands=4), "plush")


def boundary_instance(rng: random.Random, i: int) -> tuple[Case, Word]:
    """plush_instance(max_deg=2) - eps * f'f with a degree-3 word m in f.

    Every summand has degree <= 2, so m'm splits in exactly one way and its
    coefficient is -eps * c_m**2 < 0: the Gram matrix has a negative diagonal
    entry and the answer is not_plush.  Returns the case and m.
    """
    g = (1, 2, 3)[i % 3]
    eps = EPSILONS[(i // 3) % 3]
    base = plush_instance(rng, g, max_deg=2)
    f = random_analytic(rng, g, max_deg=3, min_deg=1, force_deg=3)
    m = next(w for w in f if len(w) == 3)
    p = padd(base, pmul(ptrans(f), f), -eps)
    return Case(g, p, "not_plush"), m


def refute_boundary(rng: random.Random, i: int) -> Case:
    return boundary_instance(rng, i)[0]


def cli_mixed(rng: random.Random, i: int) -> Case:
    g = (1, 2, 3)[(i // 2) % 3]
    if i % 2:
        p = plush_instance(rng, g)
        return Case(g, p, "plush", format_text(p))
    while True:
        r = random_poly(rng, g, max_deg=4, max_terms=4)
        p = padd(r, ptrans(r))
        if p:
            return Case(g, p, None, format_text(p))


_MAKERS = {"certify_deep": certify_deep, "refute_boundary": refute_boundary,
           "cli_mixed": cli_mixed}


def cases(workload: str, seed: int, stream: int = 0) -> Iterator[Case]:
    """The workload's inputs for a seed; each stream is a separate sequence."""
    rng = random.Random(f"{workload}:{seed}:{stream}")
    make = _MAKERS[workload]
    i = 0
    while True:
        yield make(rng, i)
        i += 1
