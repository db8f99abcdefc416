"""Exact Hankel-matrix machinery for rational moment sequences.

Determinants are computed fraction-free: denominators are cleared row by
row, Bareiss elimination runs over plain integers, and the single division
at the end restores the rational value.  Positive semidefiniteness is decided
by one congruence (LDL-style) elimination over Fractions, O(n^3): a negative
pivot, or a zero diagonal beside a nonzero off-diagonal entry, yields a
rational witness v with v'Mv < 0, re-verified before it is returned; when no
witness exists the matrix is PSD.  A PSD verdict is cross-checked against the
Bareiss determinant: the product of the positive pivots must equal det(M) at
full rank, and det(M) must be 0 when the reduced block vanished early.
Leading principal minors alone would not suffice on singular matrices, so
they are kept only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import List, Optional, Sequence, Tuple

from .cfrac import kperiodic_convergents
from .exactnum import DomainError, InvariantError, Scalar

Matrix = Sequence[Sequence[Fraction]]


@dataclass(frozen=True)
class HankelMatrix:
    """The (order+1) x (order+1) matrix with entry (i, j) = seq[i + j]."""

    order: int
    entries: Tuple[Tuple[Fraction, ...], ...]

    def det(self) -> Fraction:
        return det_exact(self.entries)

    def psd(self) -> "PsdResult":
        return psd_check(self.entries)


def hankel_matrix(seq: Sequence[Scalar], order: int) -> HankelMatrix:
    if order < 0:
        raise DomainError("order must be >= 0")
    needed = 2 * order + 1
    if len(seq) < needed:
        raise DomainError(
            f"need at least {needed} sequence entries for order {order}, got {len(seq)}"
        )
    values = [Fraction(x) for x in seq[:needed]]
    rows = tuple(
        tuple(values[i + j] for j in range(order + 1)) for i in range(order + 1)
    )
    return HankelMatrix(order, rows)


def det_exact(matrix: Matrix) -> Fraction:
    """Exact determinant by integer Bareiss elimination after clearing rows."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise DomainError("matrix must be square")
    work: List[List[int]] = []
    den_product = 1
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        row_den = lcm(*(f.denominator for f in fracs)) if fracs else 1
        den_product *= row_den
        work.append([int(f * row_den) for f in fracs])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (
                    work[i][j] * work[k][k] - work[i][k] * work[k][j]
                ) // prev
            work[i][k] = 0
        prev = work[k][k]
    return Fraction(sign * work[n - 1][n - 1], den_product)


@dataclass(frozen=True)
class PsdResult:
    """Exact PSD verdict with a certificate when the answer is negative.

    ``witness`` is a rational vector v with v' M v < 0, found by congruence
    elimination and re-verified before being returned; it is None exactly
    when the matrix is PSD.  A PSD verdict has passed the determinant
    cross-check described in the module docstring.
    """

    is_psd: bool
    witness: Optional[Tuple[Fraction, ...]] = None


def psd_check(matrix: Matrix) -> PsdResult:
    """Decide positive semidefiniteness of a symmetric rational matrix exactly."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise DomainError("matrix must be square")
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise DomainError("psd_check requires a symmetric matrix")
    witness, pivots = _negative_witness(rows)
    if witness is not None:
        if _quadratic_form(rows, witness) >= 0:
            raise InvariantError("witness failed to certify v'Mv < 0")
        return PsdResult(is_psd=False, witness=witness)
    # The elimination is a congruence by a unit-determinant transform, so
    # det(M) is the product of its pivots, or 0 if the block vanished early.
    expected = prod(pivots, start=Fraction(1)) if len(pivots) == n else Fraction(0)
    if det_exact(rows) != expected:
        raise InvariantError(
            "congruence pivots and Bareiss determinant disagree on a PSD verdict"
        )
    return PsdResult(is_psd=True)


def _quadratic_form(rows: Matrix, v: Tuple[Fraction, ...]) -> Fraction:
    n = len(rows)
    return sum(
        (v[i] * rows[i][j] * v[j] for i in range(n) for j in range(n)), Fraction(0)
    )


def _negative_witness(
    rows: List[List[Fraction]],
) -> Tuple[Optional[Tuple[Fraction, ...]], List[Fraction]]:
    """A vector v with v'Mv < 0 via congruence (LDL-style) elimination.

    Maintains the basis vectors of the reduced block; a negative diagonal
    pivot maps straight back to a witness, and an all-zero diagonal with a
    nonzero off-diagonal entry yields one from a +/- pair.  Returns the
    witness (None when the matrix is PSD) and the positive pivots taken;
    fewer than n pivots without a witness means the reduced block vanished.
    """
    n = len(rows)
    c = [row[:] for row in rows]
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
            return None, pivots  # reduced block vanished: PSD and singular
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


@dataclass(frozen=True)
class ScanReport:
    """Per-order determinants and PSD verdicts of a k-periodic scan."""

    periods: Tuple[Fraction, ...]
    w: Fraction
    max_order: int
    sequence: Tuple[Fraction, ...]
    determinants: Tuple[Fraction, ...]
    psd: Tuple[bool, ...]
    first_not_psd: Optional[int]
    results: Tuple[PsdResult, ...]


def scan_kperiodic(
    periods: Sequence[Scalar], w: Scalar, max_order: int
) -> ScanReport:
    """Hankel determinants and PSD verdicts of the k-periodic truncation
    sequence, through the given order.

    Reports what exact computation finds; it asserts nothing about where (or
    whether) definiteness fails.  H_k is the leading principal block of every
    later H_m, so after the first non-PSD order each later order is decided by
    the first witness padded with zeros, re-verified against that order's
    matrix, instead of a fresh elimination.
    """
    if max_order < 0:
        raise DomainError("max_order must be >= 0")
    seq = kperiodic_convergents(periods, w, 2 * max_order)
    dets: List[Fraction] = []
    verdicts: List[bool] = []
    results: List[PsdResult] = []
    first_bad: Optional[int] = None
    for order in range(max_order + 1):
        mat = hankel_matrix(seq, order)
        dets.append(mat.det())
        if first_bad is None:
            res = mat.psd()
        else:
            padded = results[first_bad].witness + (Fraction(0),) * (order - first_bad)
            if _quadratic_form(mat.entries, padded) >= 0:
                raise InvariantError("padded witness failed to certify v'Mv < 0")
            res = PsdResult(is_psd=False, witness=padded)
        results.append(res)
        verdicts.append(res.is_psd)
        if not res.is_psd and first_bad is None:
            first_bad = order
    return ScanReport(
        periods=tuple(Fraction(p) for p in periods),
        w=Fraction(w),
        max_order=max_order,
        sequence=tuple(seq),
        determinants=tuple(dets),
        psd=tuple(verdicts),
        first_not_psd=first_bad,
        results=tuple(results),
    )
