"""Shared test oracles: deliberately naive, independent implementations."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import List, Sequence, Tuple

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


def kperiodic_by_fold(
    periods: Sequence[Fraction], w: Fraction, n_max: int
) -> List[Fraction]:
    """s_0..s_n_max folded top-down from the innermost term, afresh for every n."""
    cycle = [Fraction(p) for p in periods]
    values = []
    for n in range(n_max + 1):
        acc = Fraction(w)
        for j in range(n, 0, -1):
            acc = 1 / (cycle[(j - 1) % len(cycle)] + acc)
        values.append(acc)
    return values


def kperiodic_bottom_up(
    periods: Sequence[Fraction], w: Fraction, n_max: int
) -> List[Fraction]:
    """s_n = (P00*w + P01) / (P10*w + P11) with P_n = M_0 ... M_{n-1} over Fractions."""
    p00, p01, p10, p11 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    values = []
    for n in range(n_max + 1):
        values.append((p00 * w + p01) / (p10 * w + p11))
        c = Fraction(periods[n % len(periods)])
        p00, p01, p10, p11 = p01, p00 + c * p01, p11, p10 + c * p11
    return values


def convergents_by_two_step(
    params: TwoPeriodicParams, n_max: int
) -> List[Tuple[Fraction, Fraction]]:
    """(N_n, D_n) by the coupled two-step recurrences N_{n+2} = b*D_n + N_n,
    D_{n+2} = ab*D_n + a*N_n + D_n from N0 = w, N1 = 1, D0 = 1, D1 = a + w."""
    a, b, w = params.a, params.b, params.w
    nums = [w, Fraction(1)]
    dens = [Fraction(1), a + w]
    for n in range(n_max - 1):
        nums.append(b * dens[n] + nums[n])
        dens.append(a * b * dens[n] + a * nums[n] + dens[n])
    return list(zip(nums, dens))[: n_max + 1]


def fibonacci_by_three_term(coeff: Fraction, n_max: int) -> List[Fraction]:
    """F_0..F_n_max by the three-term loop F_{n+1} = coeff*F_n + F_{n-1} over Fractions."""
    seq = [Fraction(0), Fraction(1)]
    for n in range(1, n_max):
        seq.append(coeff * seq[n] + seq[n - 1])
    return seq[: n_max + 1]


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
