"""Shared test oracles: deliberately naive, independent implementations."""

from __future__ import annotations

import argparse
import itertools
import random
from fractions import Fraction
from math import isqrt
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from hypothesis import example
from hypothesis import strategies as st

from cfmoments.cfrac import AtomRatios, TwoPeriodicParams, kperiodic_convergents
from cfmoments.cli import build_parser, main
from cfmoments.exactnum import (
    DomainError,
    FieldMismatchError,
    InvariantError,
    QuadElem,
    Scalar,
    rational_sqrt,
)
from cfmoments.hankel import PsdResult, ScanReport, det_exact, hankel_matrix, psd_check
from cfmoments.measures import (
    Atom,
    DiscreteSignedMeasure,
    GeometricAtomFamily,
    PositivityVerdict,
    _merged,
)


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


def negative_witness_eager(
    rows: List[List[Fraction]],
) -> Tuple[Optional[Tuple[Fraction, ...]], List[Fraction]]:
    """Congruence elimination that updates every active row's basis vector at
    every pivot step, O(n^3) Fraction work whether or not a witness is found;
    returns (witness or None, positive pivots taken)."""
    n = len(rows)
    c = [list(row) for row in rows]
    basis = [
        [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]
    active = list(range(n))
    pivots: List[Fraction] = []
    while active:
        pivot = None
        for i in active:
            if c[i][i] < 0:
                return tuple(basis[i]), pivots
            if c[i][i] > 0 and pivot is None:
                pivot = i
        if pivot is None:
            for i in active:
                for j in active:
                    if i < j and c[i][j] != 0:
                        sign = 1 if c[i][j] > 0 else -1
                        return (
                            tuple(basis[i][t] - sign * basis[j][t] for t in range(n)),
                            pivots,
                        )
            return None, pivots
        d = c[pivot][pivot]
        pivots.append(d)
        active.remove(pivot)
        ratios = {j: c[pivot][j] / d for j in active}
        for j in active:
            if ratios[j] != 0:
                basis[j] = [
                    basis[j][t] - ratios[j] * basis[pivot][t] for t in range(n)
                ]
        for i in active:
            if ratios[i] == 0:
                continue
            for j in active:
                c[i][j] -= ratios[i] * c[pivot][j]
        for j in active:
            c[pivot][j] = Fraction(0)
            c[j][pivot] = Fraction(0)
    return None, pivots


def eliminate_by_fractions(
    rows: Sequence[Sequence[Fraction]], sizes: Iterable[int]
) -> Iterator[Tuple[Optional[Tuple[Fraction, ...]], List[Fraction]]]:
    """Congruence elimination over Fractions of the leading blocks of
    ``rows`` with the increasing ``sizes``, each bordered onto the one before:
    ``hankel._eliminate`` as it was before it ran on integers.  Yields each
    block's (witness or None, positive pivots) and stops after a witness.
    Fewer pivots than rows and no witness means the reduced block vanished.

    A negative diagonal of the reduced block maps back to a witness through
    that row's basis vector, and an all-zero diagonal with a nonzero
    off-diagonal entry yields one from a +/- pair of basis vectors.

    Bordering reduces each new row through the recorded pivot steps in order,
    checking its diagonal for < 0 before each step, and then resumes.  Each
    block before a witness is PSD, so its reduced diagonals stay >= 0 and
    each step takes the pivot that the larger block's own elimination would:
    every yield is what that block eliminated alone gives.  A pivot's row is
    stale in columns bordered after it was taken, so bordering reads the
    pivot's column, which froze at its value at that step.

    Each step records only (pivot, ratios); the basis vectors a witness needs
    are replayed from those records (``_fraction_basis_vectors``).
    """
    c = [list(row) for row in rows]
    steps: List[Tuple[int, Dict[int, Fraction]]] = []
    active: List[int] = []
    pivots: List[Fraction] = []
    for size in sizes:
        new = range(len(pivots) + len(active), size)
        for t, (p, ratios) in enumerate(steps):
            for k in new:
                row = c[k]
                if row[k] < 0:
                    yield tuple(_fraction_basis_vectors(size, steps[:t], [k])[0]), pivots[:t]
                    return
                ratio = ratios[k] = row[p] / pivots[t]
                if ratio:
                    for j in ratios:
                        row[j] -= ratio * c[j][p]
        for k in new:
            for j in active:
                c[j][k] = c[k][j]
            active.append(k)
        while active:
            pivot = None
            for i in active:
                if c[i][i] < 0:
                    yield tuple(_fraction_basis_vectors(size, steps, [i])[0]), pivots
                    return
                if c[i][i] > 0 and pivot is None:
                    pivot = i
            if pivot is None:
                for i in active:
                    for j in active:
                        if i < j and c[i][j] != 0:
                            sign = 1 if c[i][j] > 0 else -1
                            u, v = _fraction_basis_vectors(size, steps, [i, j])
                            yield tuple(x - sign * y for x, y in zip(u, v)), pivots
                            return
                break  # reduced block vanished
            d = c[pivot][pivot]
            pivots.append(d)
            active.remove(pivot)
            pivot_row = c[pivot]
            ratios = {j: pivot_row[j] / d for j in active}
            steps.append((pivot, ratios))
            moved = [i for i in active if ratios[i] != 0]
            for at, i in enumerate(moved):
                row, ratio = c[i], ratios[i]
                for j in moved[at:]:
                    row[j] = c[j][i] = row[j] - ratio * pivot_row[j]
        yield None, list(pivots)


def _fraction_basis_vectors(
    n: int, steps: List[Tuple[int, Dict[int, Fraction]]], targets: List[int]
) -> List[List[Fraction]]:
    """The elimination's basis vectors for rows ``targets``, replayed from its
    steps: row j starts as e_j, and each step takes ratio_j times the pivot's
    row from it.  Only the targets and the pivots are replayed, since those
    are the only rows the updates read; a pivot's row is final once taken."""
    basis = {
        j: [Fraction(1) if t == j else Fraction(0) for t in range(n)]
        for j in {*targets, *(pivot for pivot, _ in steps)}
    }
    for pivot, ratios in steps:
        source = basis[pivot]
        for j, ratio in ratios.items():
            if ratio != 0 and j in basis:
                basis[j] = [x - ratio * y for x, y in zip(basis[j], source)]
    return [basis[j] for j in targets]


def full_quadratic_form(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Fraction:
    """v'Mv over every entry of M, zeros of v included."""
    n = len(rows)
    return sum(
        (v[i] * rows[i][j] * v[j] for i in range(n) for j in range(n)), Fraction(0)
    )


def scan_by_orders(periods: Sequence[Scalar], w: Scalar, max_order: int) -> ScanReport:
    """The scan one order at a time: H_k built afresh from the sequence, its
    own determinant and a full ``psd_check`` up to the first non-PSD order,
    then that order's witness padded with zeros and re-verified over all of
    H_k."""
    if max_order < 0:
        raise DomainError("max_order must be >= 0")
    seq = kperiodic_convergents(periods, w, 2 * max_order)
    dets: List[Fraction] = []
    results: List[PsdResult] = []
    first_bad: Optional[int] = None
    for order in range(max_order + 1):
        rows = hankel_matrix(seq, order)
        dets.append(det_exact(rows))
        if first_bad is None:
            res = psd_check(rows)
            if not res.is_psd:
                first_bad = order
        else:
            padded = results[first_bad].witness + (Fraction(0),) * (order - first_bad)
            if full_quadratic_form(rows, padded) >= 0:
                raise InvariantError("padded witness failed to certify v'Mv < 0")
            res = PsdResult(is_psd=False, witness=padded)
        results.append(res)
    return ScanReport(
        periods=tuple(Fraction(p) for p in periods),
        w=Fraction(w),
        max_order=max_order,
        sequence=tuple(seq),
        determinants=tuple(dets),
        psd=tuple(res.is_psd for res in results),
        first_not_psd=first_bad,
        results=tuple(results),
    )


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
    return [value for _, _, value in rows_by_period_map(periods, w, n_max)]


def rows_by_period_map(
    periods: Sequence[Fraction], w: Fraction, n_max: int
) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """(N_n, D_n, s_n) for n = 0..n_max from P_n = M_0 ... M_{n-1} over Fractions:
    N_n = P00*w + P01, D_n = P10*w + P11 and s_n = N_n/D_n, every row with its own
    gcds and no jump."""
    p00, p01, p10, p11 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    rows = []
    for n in range(n_max + 1):
        num, den = p00 * w + p01, p10 * w + p11
        rows.append((num, den, num / den))
        c = Fraction(periods[n % len(periods)])
        p00, p01, p10, p11 = p01, p00 + c * p01, p11, p10 + c * p11
    return rows


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


def moment_by_families(measure: DiscreteSignedMeasure, n: int) -> QuadElem:
    """Order-n moment: head atoms by ``**``, then each family's closed form
    s * o^n * step/(1 - step) with step = g*l^n, one family at a time."""
    total = sum((a.weight * a.location**n for a in measure.head_atoms), measure.field.zero)
    for fam in measure.families:
        step = fam.weight_ratio * fam.location_ratio**n
        total = total + fam.location_sign**n * fam.scale * step / (1 - step)
    return total


def truncated_by_families(
    measure: DiscreteSignedMeasure, n: int, terms: int
) -> Tuple[QuadElem, QuadElem]:
    """(value, tail bound): each family's first ``terms`` atoms summed term by
    term, and the bound |s| * |step|^(1+terms) / (1 - |step|) per family."""
    zero = measure.field.zero
    value = sum((a.weight * a.location**n for a in measure.head_atoms), zero)
    bound = zero
    for fam in measure.families:
        step = fam.weight_ratio * fam.location_ratio**n
        partial = sum((step**m for m in range(1, terms + 1)), zero)
        value = value + fam.location_sign**n * fam.scale * partial
        bound = bound + abs(fam.scale) * abs(step) ** (1 + terms) / (1 - abs(step))
    return value, bound


def quadelem_sweep(
    measure: DiscreteSignedMeasure, first: int, last: int
) -> Iterator[Tuple[QuadElem, List[Tuple[QuadElem, QuadElem, QuadElem]]]]:
    """The grouped sweep in reduced ``QuadElem`` arithmetic, as the library
    ran it before its integer kernel.  For each order n in first..last (first
    is 0 or last): the head-atom moment and, for each group of families
    sharing (weight ratio g, location ratio l), (coefficient at the parity of
    n, bound weight, step g*l^n).  The coefficients sum the group's scales s
    (even n) or o*s (odd n); the bound weight sums |s|.  Each distinct
    location is raised by ``**`` once, at ``first``, then carried to each
    next order by one multiplication."""
    if last < 0:
        raise DomainError("moment order must be >= 0")
    zero = measure.field.zero
    cells: Dict[Tuple[QuadElem, QuadElem], List[QuadElem]] = {}
    for fam in measure.families:
        s = fam.scale
        cell = cells.setdefault((fam.weight_ratio, fam.location_ratio), [zero, zero, zero])
        cell[0] = cell[0] + s
        cell[1] = cell[1] + (s if fam.location_sign > 0 else -s)
        cell[2] = cell[2] + abs(s)
    heads = measure.head_atoms
    sites = [a.location for a in heads] + [ratio for _, ratio in cells]
    ratios = list(dict.fromkeys(sites))
    slots = [ratios.index(site) for site in sites]
    powers = [ratio**first for ratio in ratios]
    for order in range(first, last + 1):
        if order > first:
            powers = [power * ratio for power, ratio in zip(powers, ratios)]
        at = [powers[i] for i in slots]
        moment = sum((a.weight * p for a, p in zip(heads, at)), zero)
        groups = [
            (cell[order % 2], cell[2], weight_ratio * power)
            for ((weight_ratio, _), cell), power in zip(cells.items(), at[len(heads):])
        ]
        yield moment, groups


def moments_by_quadelem_sweep(
    measure: DiscreteSignedMeasure, first: int, last: int
) -> Iterator[QuadElem]:
    """Moments of orders first..last: each group adds coeff * step/(1 - step)."""
    for total, groups in quadelem_sweep(measure, first, last):
        for coeff, _, step in groups:
            if coeff != 0:
                total = total + coeff * step / (1 - step)
        yield total


def truncated_by_quadelem_sweep(
    measure: DiscreteSignedMeasure, order: int, terms: int
) -> Tuple[QuadElem, QuadElem]:
    """(value, tail bound) from ``quadelem_sweep``: each group's series summed
    term by term by ``geometric_partial_sum``, and its bound weight times
    |step|^(1+terms) / (1 - |step|)."""
    value, groups = next(quadelem_sweep(measure, order, order))
    if terms < 1:
        raise DomainError("terms must be >= 1")
    bound = measure.field.zero
    for coeff, weight, step in groups:
        if coeff == 0:
            last = step**terms
        else:
            partial, last = geometric_partial_sum(step, terms)
            value = value + coeff * partial
        bound = bound + weight * abs(last * step) / (1 - abs(step))
    return value, bound


def geometric_partial_sum(step: QuadElem, terms: int) -> Tuple[QuadElem, QuadElem]:
    """(S_terms, step^terms) for the partial sums S_m = step + ... + step^m,
    term by term as S_m = step * (1 + S_{m-1}) in reduced ``QuadElem``s.
    The last term walked is S_terms - S_(terms-1)."""
    previous, total = step.field.zero, step
    for _ in range(terms - 1):
        previous, total = total, (total + 1) * step
    return total, total - previous


def atom_ratios_by_quadelem(params: TwoPeriodicParams) -> AtomRatios:
    """The location and weight ratios in reduced ``QuadElem`` arithmetic, as
    the library built them before its integer kernel: q from its rational
    and surd parts, then each weight ratio as a quotient of QuadElems."""
    fld = params.field()
    a, w = params.a, params.w
    ab = a * params.b
    loc = fld.element((2 + ab) / 2, Fraction(-1, 2))
    one = fld.one
    even = (loc * (a * w - (one - loc))) / (loc * a * w + one - loc)
    odd = (loc * a - (one - loc) * w) / (a + (one - loc) * w)
    return AtomRatios(location=loc, even_weight=even, odd_weight=odd)


def classify_by_quadelem(params: TwoPeriodicParams) -> PositivityVerdict:
    """The positivity verdict from ``atom_ratios_by_quadelem``, by QuadElem
    signs, and its thresholds in Fractions, as the library decided them
    before its integer kernel (without the cross-checks of the routes)."""
    ratios = atom_ratios_by_quadelem(params)
    even, odd = ratios.even_weight, ratios.odd_weight
    even_nonneg = even.sign() >= 0
    a, b, w = params.a, params.b, params.w
    return PositivityVerdict(
        is_positive=even_nonneg and (even + odd).sign() >= 0 and (even - odd).sign() >= 0,
        even_ratio_nonneg=even_nonneg,
        a_ge_b=a >= b,
        w_above_even_threshold=a * w * w + a * b * w - b >= 0,
        w_above_order_threshold=w * w + w * (a + b) / 2 - 1 >= 0,
        even_ratio=even,
        odd_ratio=odd,
    )


def moment_measure_by_canonical(params: TwoPeriodicParams) -> DiscreteSignedMeasure:
    """The moment measure as the library built it before building its
    canonical form directly: all four families of the closed form, from
    ``atom_ratios_by_quadelem`` in QuadElem arithmetic, then ``canonical()``."""
    ratios = atom_ratios_by_quadelem(params)
    fld = ratios.location.field
    a = params.a
    q = ratios.location
    head = Atom(fld.one, (fld.one - q) / a)
    half = (q.inverse() - q) / (2 * a)
    families = (
        GeometricAtomFamily(half, ratios.even_weight, q, location_sign=1),
        GeometricAtomFamily(half, ratios.odd_weight, q, location_sign=1),
        GeometricAtomFamily(half, ratios.even_weight, q, location_sign=-1),
        GeometricAtomFamily(-half, ratios.odd_weight, q, location_sign=-1),
    )
    return DiscreteSignedMeasure(fld, (head,), families).canonical()


def family_atom(fam: GeometricAtomFamily, k: int) -> Atom:
    """The k-th atom (k >= 0) of a geometric family, at exponent 1 + k."""
    if k < 0:
        raise DomainError("atom index must be >= 0")
    m = 1 + k
    return Atom(
        location=fam.location_sign * fam.location_ratio**m,
        weight=fam.scale * fam.weight_ratio**m,
    )


def collect_atoms(
    measure: DiscreteSignedMeasure, max_exponent: int
) -> List[Atom]:
    """All atoms with family exponent <= max_exponent, merged by location.

    Head atoms are always included.  Useful as an exact oracle for sign
    patterns and for comparing two symbolic presentations of one measure on
    a finite window.
    """
    atoms = list(measure.head_atoms)
    for fam in measure.families:
        atoms += (family_atom(fam, k) for k in range(max_exponent))
    return [Atom(loc, weight) for loc, weight in _merged((a.location, a.weight) for a in atoms)]


def parse_by_top_level(argv: List[str]) -> argparse.Namespace:
    """The whole command line through a fresh top-level parser, which hands
    the tokens after a subcommand's name to that subcommand's parser."""
    return build_parser().parse_args(argv)


def assert_invariant_exit(capsys, argv: List[str]) -> None:
    """``cfmoments argv`` exits 3 with empty stdout and one error line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: internal invariant failed: ")


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


# (a, b, w) where the atom ratios are special
RATIO_EDGES = [
    TwoPeriodicParams(1, Fraction(1, 2), 1),  # degenerate field (ab(ab + 4) = 9/4), odd = 0
    TwoPeriodicParams(1, 2, Fraction(1, 2)),  # even = odd
    TwoPeriodicParams(Fraction(3, 2), Fraction(3, 2), Fraction(1, 2)),  # even = odd = 0, degenerate
    TwoPeriodicParams(1, Fraction(4, 3), 2),  # degenerate field
    TwoPeriodicParams(2, 7, 0),  # w = 0: even = -odd
    TwoPeriodicParams(Fraction("1e-28"), Fraction(3, 2), Fraction(1, 3)),  # large triples
]


def with_examples(params_list):
    """A decorator adding each of ``params_list`` as a hypothesis example."""

    def decorate(test):
        for params in params_list:
            test = example(params)(test)
        return test

    return decorate


# -- QuadElem oracle: the two-Fraction representation ------------------------


class PairField:
    """The radicand, its rational root (None unless a perfect square) and the
    element constructor that :class:`PairElem` needs."""

    def __init__(self, radicand: Scalar) -> None:
        self.radicand = Fraction(radicand)
        self.root = rational_sqrt(self.radicand)

    def element(self, rat: Scalar = 0, surd: Scalar = 0) -> PairElem:
        return PairElem(self, Fraction(rat), Fraction(surd))

    @property
    def one(self) -> PairElem:
        return self.element(1)


def _pair_sgn(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class PairElem:
    """``rat + surd*sqrt(radicand)`` stored as two Fractions, each operation
    written from its textbook formula: the oracle for ``exactnum.QuadElem``."""

    __slots__ = ("field", "rat", "surd")

    def __init__(self, field: PairField, rat: Fraction, surd: Fraction) -> None:
        if surd != 0 and field.root is not None:
            rat = rat + surd * field.root
            surd = Fraction(0)
        self.field = field
        self.rat = rat
        self.surd = surd

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other: object) -> Optional[PairElem]:
        if isinstance(other, PairElem):
            if other.field.radicand != self.field.radicand:
                raise FieldMismatchError(
                    f"cannot combine sqrt({self.field.radicand}) with "
                    f"sqrt({other.field.radicand}) elements"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> PairElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PairElem(self.field, self.rat + o.rat, self.surd + o.surd)

    __radd__ = __add__

    def __sub__(self, other: object) -> PairElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PairElem(self.field, self.rat - o.rat, self.surd - o.surd)

    def __rsub__(self, other: object) -> PairElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> PairElem:
        return PairElem(self.field, -self.rat, -self.surd)

    def __mul__(self, other: object) -> PairElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rad = self.field.radicand
        return PairElem(
            self.field,
            self.rat * o.rat + self.surd * o.surd * rad,
            self.rat * o.surd + self.surd * o.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> PairElem:
        """Multiplicative inverse via the conjugate: 1/(p+r*sqrt(d)) = (p-r*sqrt(d))/(p^2-r^2*d)."""
        norm = self.rat * self.rat - self.surd * self.surd * self.field.radicand
        if norm == 0:
            if self.rat == 0 and self.surd == 0:
                raise ZeroDivisionError("inverse of zero quadratic element")
            raise InvariantError(
                "zero norm for a nonzero element; radicand failed to fold"
            )
        return PairElem(self.field, self.rat / norm, -self.surd / norm)

    def __truediv__(self, other: object) -> PairElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> PairElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> PairElem:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        n = exponent
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __abs__(self) -> PairElem:
        return -self if self.sign() < 0 else self

    # -- exact decisions ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of p + r*sqrt(d), decided by comparing p^2 against r^2*d."""
        p, r = self.rat, self.surd
        if r == 0:
            return _pair_sgn(p)
        if p == 0:
            return _pair_sgn(r)
        sp, sr = _pair_sgn(p), _pair_sgn(r)
        if sp == sr:
            return sp
        gap = p * p - r * r * self.field.radicand
        if gap > 0:
            return sp
        if gap < 0:
            return sr
        raise InvariantError("p^2 == r^2*d with r != 0: radicand failed to fold")

    @property
    def is_rational(self) -> bool:
        return self.surd == 0

    def as_fraction(self) -> Fraction:
        if self.surd != 0:
            raise DomainError(f"{self} has a nonzero surd part")
        return self.rat

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairElem):
            if self.field.radicand == other.field.radicand:
                return self.rat == other.rat and self.surd == other.surd
            if self.surd == 0 and other.surd == 0:
                return self.rat == other.rat
            raise FieldMismatchError(
                "equality across different radicands is only defined for "
                "rational-valued elements"
            )
        if isinstance(other, (int, Fraction)):
            return self.surd == 0 and self.rat == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.surd == 0:
            return hash(self.rat)
        return hash((self.rat, self.surd, self.field.radicand))

    def _cmp(self, other: object) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot order PairElem against {type(other)!r}")
        return (self - o).sign()

    def __lt__(self, other: object) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: object) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: object) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: object) -> bool:
        return self._cmp(other) >= 0

    # -- rendering ----------------------------------------------------------

    def decimal(self, digits: int) -> str:
        """Correctly rounded decimal expansion with ``digits`` fractional digits.

        Computed from exact data and rounded half-to-even: the irrational
        case brackets sqrt(radicand) by integer square roots and refines the
        enclosure until both endpoints round to the same digit string (no ties
        can occur for an irrational value).
        """
        if digits < 1:
            raise DomainError("digits must be >= 1")
        if self.surd == 0:
            return _pair_decimal_of_fraction(self.rat, digits)
        rad = self.field.radicand
        u, v = rad.numerator, rad.denominator
        scale = Fraction(10) ** digits
        prec = digits + 8
        while True:
            shift = 10**prec
            k = isqrt(u * v * shift * shift)
            lo = Fraction(k, v * shift)
            hi = Fraction(k + 1, v * shift)
            if self.surd > 0:
                val_lo = self.rat + self.surd * lo
                val_hi = self.rat + self.surd * hi
            else:
                val_lo = self.rat + self.surd * hi
                val_hi = self.rat + self.surd * lo
            n_lo = _pair_round_half_even(val_lo * scale)
            n_hi = _pair_round_half_even(val_hi * scale)
            if n_lo == n_hi:
                return _pair_format_scaled(n_lo, digits)
            prec += 8

    def __str__(self) -> str:
        if self.surd == 0:
            return str(self.rat)
        rad = self.field.radicand
        surd_txt = f"{abs(self.surd)}*sqrt({rad})"
        if self.rat == 0:
            return surd_txt if self.surd > 0 else f"-{surd_txt}"
        op = "+" if self.surd > 0 else "-"
        return f"{self.rat} {op} {surd_txt}"

    def __repr__(self) -> str:
        return f"QuadElem({self.rat!r}, {self.surd!r}, sqrt={self.field.radicand!r})"


def _pair_round_half_even(x: Fraction) -> int:
    """The integer nearest x, ties to even."""
    whole, rem = divmod(x.numerator, x.denominator)
    double = 2 * rem
    if double > x.denominator or (double == x.denominator and whole % 2 != 0):
        whole += 1
    return whole


def _pair_decimal_of_fraction(x: Fraction, digits: int) -> str:
    return _pair_format_scaled(_pair_round_half_even(x * Fraction(10) ** digits), digits)


def _pair_format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    magnitude = abs(n)
    whole, frac = divmod(magnitude, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
