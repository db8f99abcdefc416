"""Shared test oracles: deliberately naive, independent implementations."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import List, Sequence

from hypothesis import strategies as st

from cfmoments.cfrac import TwoPeriodicParams


def cofactor_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Textbook cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def psd_by_principal_minors(rows: Sequence[Sequence[Fraction]]) -> bool:
    """PSD iff every principal minor (all subsets, not just leading) is >= 0."""
    n = len(rows)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = [[rows[i][j] for j in subset] for i in subset]
            if cofactor_det(sub) < 0:
                return False
    return True


def char_poly(rows: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Faddeev-LeVerrier: [1, c1, ..., cn] of det(xI - M) = x^n + c1*x^(n-1) + ... + cn."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    aux = [[Fraction(0)] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A*M_{k-1} + c_{k-1}*I ; c_k = -trace(A*M_k)/k
        m_k = _mat_mul(a, aux)
        for i in range(n):
            m_k[i][i] += coeffs[k - 1]
        product = _mat_mul(a, m_k)
        trace = sum((product[i][i] for i in range(n)), Fraction(0))
        coeffs.append(-trace / k)
        aux = m_k
    return coeffs


def _mat_mul(a: List[List[Fraction]], b: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] != 0:
                for j in range(n):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def psd_by_char_poly(rows: Sequence[Sequence[Fraction]]) -> bool:
    """A symmetric M is PSD iff every (-1)^k * c_k of det(xI - M) is >= 0."""
    coeffs = char_poly(rows)
    return all((-1) ** k * c >= 0 for k, c in enumerate(coeffs))


def random_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_symmetric(rng: random.Random, n: int) -> List[List[Fraction]]:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = random_fraction(rng)
    return rows


def random_gram(rng: random.Random, n: int) -> List[List[Fraction]]:
    """G^T G for a random rational G: PSD by construction."""
    g = [[random_fraction(rng) for _ in range(n)] for _ in range(rng.randint(1, n))]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = sum((row[i] * row[j] for row in g), Fraction(0))
    return rows


def fib(n_max: int) -> List[Fraction]:
    seq = [Fraction(0), Fraction(1)]
    while len(seq) <= n_max:
        seq.append(seq[-1] + seq[-2])
    return seq[: n_max + 1]


# hypothesis strategies shared across modules
period_fractions = st.fractions(
    min_value=Fraction(1, 4), max_value=4, max_denominator=6
)
seed_fractions = st.fractions(min_value=0, max_value=3, max_denominator=6)
param_triples = st.builds(TwoPeriodicParams, period_fractions, period_fractions, seed_fractions)
