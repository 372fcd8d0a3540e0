"""Witnesses built from a failed Gram LDL'.

A Gram matrix G of a symmetric polynomial p (``G_f[a, b]`` holds the word
a'b) that is not PSD has a direction c with c'Gc < 0, and its LDL' gives
one (``negative_direction``).  ``gram_witness`` turns c into matrix tuples
(X, H) with exact rational entries, of any size, and e0' q(X, H) e0 < 0
for the complex hessian q of p; ``replay_at_e0`` checks that value in
exact arithmetic.  This makes the Gram-matrix method of nc sums of squares
(Helton, "Positive noncommutative polynomials are sums of squares", Ann.
Math. 2002) constructive in the refuting direction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

from .freealg import MatrixTuple, NcPoly, Word, word_key
from .ldlt import LdltFactorization, Obstruction

# a sparse matrix per variable: {(row, column): entry}
SparseTuple = list[dict[tuple[int, int], Fraction]]


def negative_direction(fac: Union[LdltFactorization, Obstruction],
                       words: tuple[Word, ...]) -> tuple[dict[Word, Fraction], Fraction]:
    """A vector c with c'Gc < 0, and c'Gc, from a failed LDL'
    Pi G Pi' = L D L'.

    c = Pi' L^{-T} w.  For the first negative pivot D_i, w = e_i and
    c'Gc = D_i.  An obstruction's residual S has a zero diagonal and some
    S_ij != 0; there w holds v = t e_i + e_j with t = -(S_jj + 1)/(2 S_ij)
    on the residual positions, so c'Gc = v'Sv = -1.
    """
    if isinstance(fac, Obstruction):
        order = fac.perm_prefix + fac.residual_indices
        S = [[e.constant_value() for e in row] for row in fac.residual]
        i, j = next((i, j) for i, row in enumerate(S) for j, v in enumerate(row) if v)
        k = len(fac.perm_prefix)
        y = [Fraction(0)] * len(order)  # w, overwritten by L^{-T} w
        y[k + i] = -(S[j][j] + 1) / (2 * S[i][j])
        y[k + j] = Fraction(1)
        value = Fraction(-1)
    else:
        order = fac.perm
        value, i = next((d, i) for i, d in enumerate(fac.diag_values()) if d < 0)
        y = [Fraction(0)] * len(order)
        y[i] = Fraction(1)
    for r in reversed(range(len(order))):  # solve L' y = w
        acc = sum(fac.lower[m][r].constant_value() * y[m]
                  for m in range(r + 1, len(order)) if y[m])
        if acc:
            y[r] -= acc
    return {words[order[r]]: v for r, v in enumerate(y) if v}, value


def gram_witness(g: int, gram: dict, c: dict[Word, Fraction],
                 value: Fraction) -> tuple[int, SparseTuple, SparseTuple]:
    """Matrix tuples (X, H) of size n with exact rational entries and
    e0' q(X, H) e0 < 0 for every p whose G_f is ``gram``, given c with
    c'Gc = value < 0.

    The basis is e0, one e_w per nonempty suffix w of a word in supp(c), and
    a collapse vector z (last).  H_j e0 = s e_(j) + c_(j) z and
    X_j e_w = s e_(jw) + (c_(jw) / s^|w|) z; every other column is zero.
    Nothing maps into e0, so only G_f terms of q reach e0, and in those only
    the h on the last letter survives: D_a e0 = s^|a| e_a + c_a z for each
    Gram word a.  Hence exactly

        e0' q(X, H) e0 = c'Gc + sum over suffixes a of G[a, a] s^(2|a|).

    c is scaled by a power of two so |c'Gc| is near 1, and s = 2^-m is
    halved until the sum is below |c'Gc|/2, so the value is negative by
    construction; the caller replays it.
    """
    shift = (value.denominator.bit_length() - value.numerator.bit_length()) // 2
    value *= Fraction(4) ** shift
    nodes = sorted({a[i:] for a in c for i in range(len(a))}, key=word_key)
    diag_by_length: dict[int, Fraction] = {}  # |a| -> sum of G[a, a] over suffixes a
    for a in nodes:
        if (a, a) in gram:
            diag_by_length[len(a)] = diag_by_length.get(len(a), 0) + gram[(a, a)]
    m = 0
    while 2 * abs(sum(Fraction(d, 4 ** (m * k))
                      for k, d in diag_by_length.items())) >= -value:
        m += 1
    z = len(nodes) + 1
    s = Fraction(1, 2 ** m)
    index = {a: r for r, a in enumerate(nodes, start=1)}
    index[()] = 0
    X: SparseTuple = [{} for _ in range(g)]
    H: SparseTuple = [{} for _ in range(g)]
    for a in nodes:
        rest = a[1:]
        entries = (X if rest else H)[a[0] >> 2]
        entries[(index[a], index[rest])] = s
        if a in c:
            entries[(z, index[rest])] = c[a] * Fraction(2) ** (shift + m * len(rest))
    return z + 1, X, H


def replay_at_e0(q: NcPoly, X: SparseTuple, H: SparseTuple) -> Fraction:
    """e0' q(X, H) e0 in exact arithmetic, pushing e0 through each term of q
    from the right.  Entries are scaled to integers by a common denominator
    d, so a term of length k is an integer over d^k."""
    ratios = [{key: v.as_integer_ratio() for key, v in m.items()} for m in (*X, *H)]
    d = lcm(*(den for m in ratios for _, den in m.values()))
    # letter code 4j + kind -> {input index: [(output index, d * entry)]}
    maps: list[dict[int, list[tuple[int, int]]]] = []
    for x, h in zip(ratios[:len(X)], ratios[len(X):]):
        for m, transposed in ((x, False), (x, True), (h, False), (h, True)):
            cols: dict[int, list[tuple[int, int]]] = {}
            for (row, col), (num, den) in m.items():
                if transposed:
                    row, col = col, row
                cols.setdefault(col, []).append((row, num * (d // den)))
            maps.append(cols)
    by_length: dict[int, Fraction] = {}
    for word, coeff in q.terms.items():
        vec = {0: 1}
        for letter in reversed(word):
            cols = maps[letter]
            out: dict[int, int] = {}
            for i, vi in vec.items():
                for row, v in cols.get(i, ()):
                    out[row] = out.get(row, 0) + v * vi
            vec = out
            if not vec:
                break
        if vec.get(0):
            by_length[len(word)] = by_length.get(len(word), 0) + coeff * vec[0]
    return sum((Fraction(v, d ** k) for k, v in by_length.items()), Fraction(0))


def float_tuple(tup: SparseTuple, n: int) -> MatrixTuple:
    """Dense float copies; OverflowError when an entry leaves the float range."""
    import numpy as np

    mats = np.zeros((len(tup), n, n))
    for j, entries in enumerate(tup):
        for (row, col), v in entries.items():
            mats[j, row, col] = float(v)
    return MatrixTuple(mats)
