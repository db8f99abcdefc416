"""Exact Hankel-matrix machinery for rational moment sequences.

Determinants are computed fraction-free by one integer Bareiss routine:
denominators are cleared row by row, the elimination runs over plain
integers, and the single division at the end restores the rational value.
Until its first row swap each pivot of that pass is a leading principal minor
of the row-scaled matrix, so one pass also gives det M[:k+1, :k+1] for every
k up to the first zero pivot.

Positive semidefiniteness of one matrix is decided by one congruence
(LDL-style) elimination over Fractions, O(n^3): a negative pivot, or a zero
diagonal beside a nonzero off-diagonal entry, yields a rational witness v
with v'Mv < 0, re-verified before it is returned; when no witness exists the
matrix is PSD.  The basis vectors a witness is made of are rebuilt from the
recorded pivot steps only when one is returned.  A PSD verdict is
cross-checked against the Bareiss determinant: the product of the positive
pivots must equal det(M) at full rank, and det(M) must be 0 when the reduced
block vanished early.

A k-periodic scan builds H_K once; each H_k is its leading block, and one
Bareiss pass over H_K gives det H_k for every order up to its first zero
pivot (later orders take ``det_exact`` each).  Each order's verdict comes by
one of three routes:

1. Sylvester prefix: the orders before the first leading minor <= 0 are
   positive definite.  As a second check, one congruence elimination of the
   last of them must find no witness and one pivot per order, whose running
   products are those minors.
2. From the first leading minor <= 0, ``psd_check`` decides each order until
   the first non-PSD one.  Leading minors alone would not suffice there: a
   singular matrix can have nonnegative leading minors and not be PSD.
3. After the first non-PSD order, every later order is certified by that
   order's witness padded with zeros (H_k is a leading block of H_{k+1}),
   re-verified against each order's matrix over the witness's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .cfrac import kperiodic_convergents
from .exactnum import DomainError, InvariantError, Scalar

Matrix = Sequence[Sequence[Fraction]]


def hankel_matrix(
    seq: Sequence[Scalar], order: int
) -> Tuple[Tuple[Fraction, ...], ...]:
    """The rows of the (order+1) x (order+1) matrix with entry (i, j) = seq[i + j]."""
    if order < 0:
        raise DomainError("order must be >= 0")
    needed = 2 * order + 1
    if len(seq) < needed:
        raise DomainError(
            f"need at least {needed} sequence entries for order {order}, got {len(seq)}"
        )
    values = [Fraction(x) for x in seq[:needed]]
    return tuple(
        tuple(values[i + j] for j in range(order + 1)) for i in range(order + 1)
    )


def det_exact(matrix: Matrix) -> Fraction:
    """Exact determinant by integer Bareiss elimination after clearing rows."""
    return _bareiss(matrix)[0]


def _bareiss(matrix: Matrix) -> Tuple[Fraction, List[Fraction]]:
    """(det M, leading minors) by one integer Bareiss elimination.

    Row i is scaled to integers by d_i, the lcm of its denominators.  Before
    any row swap the pivot at step k is d_0...d_k * det M[:k+1, :k+1], so the
    pass records each leading minor as it goes.  A negative pivot is used as
    it comes; a zero pivot is the last minor recorded, and is then swapped
    with a lower row to finish the determinant (which is 0 when no lower row
    has a nonzero entry in its column).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DomainError("matrix must be square")
    work: List[List[int]] = []
    dens: List[int] = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        row_den = lcm(*(f.denominator for f in fracs))
        dens.append(row_den)
        work.append([f.numerator * (row_den // f.denominator) for f in fracs])
    minors: List[Fraction] = []
    leading = True
    scale = 1
    sign = 1
    prev = 1
    for k in range(n):
        if leading:
            scale *= dens[k]
            minors.append(Fraction(work[k][k], scale))
        if work[k][k] == 0:
            leading = False
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return Fraction(0), minors
        pivot_row = work[k]
        pivot = pivot_row[k]
        for row in work[k + 1 :]:
            head = row[k]
            row[k + 1 :] = [
                (x * pivot - head * y) // prev
                for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        prev = pivot
    return Fraction(sign * prev, prod(dens)), minors


@dataclass(frozen=True)
class PsdResult:
    """Exact PSD verdict with a certificate when the answer is negative.

    ``witness`` is a rational vector v with v' M v < 0, found by congruence
    elimination and re-verified before being returned; it is None exactly
    when the matrix is PSD.  A PSD verdict has passed one of the
    cross-checks described in the module docstring.
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
    """v'Mv summed over the nonzero entries of v only; ``rows`` may extend
    past len(v), as a matrix whose leading block is M."""
    support = [i for i, x in enumerate(v) if x]
    return sum(
        (v[i] * rows[i][j] * v[j] for i in support for j in support), Fraction(0)
    )


def _negative_witness(
    rows: List[List[Fraction]],
) -> Tuple[Optional[Tuple[Fraction, ...]], List[Fraction]]:
    """A vector v with v'Mv < 0 via congruence (LDL-style) elimination.

    A negative diagonal pivot of the reduced block maps back to a witness
    through that row's basis vector, and an all-zero diagonal with a nonzero
    off-diagonal entry yields one from a +/- pair of basis vectors.  Returns
    the witness (None when the matrix is PSD) and the positive pivots taken;
    fewer than n pivots without a witness means the reduced block vanished.

    The basis is built lazily: each pivot step records only (pivot, ratios),
    and the basis vectors a witness needs are rebuilt from those records when
    one is returned (``_basis_vectors``), by the same updates in the same
    order, so the witness is the one an eagerly kept basis would give.  A PSD
    verdict pays only for the elimination of the reduced block, which is
    symmetric and so updated one triangle at a time.
    """
    n = len(rows)
    c = [list(row) for row in rows]
    steps: List[Tuple[int, Dict[int, Fraction]]] = []
    active = list(range(n))
    pivots: List[Fraction] = []
    while active:
        pivot = None
        for i in active:
            if c[i][i] < 0:
                return tuple(_basis_vectors(n, steps, [i])[0]), pivots
            if c[i][i] > 0 and pivot is None:
                pivot = i
        if pivot is None:
            for i in active:
                for j in active:
                    if i < j and c[i][j] != 0:
                        sign = 1 if c[i][j] > 0 else -1
                        u, v = _basis_vectors(n, steps, [i, j])
                        return tuple(x - sign * y for x, y in zip(u, v)), pivots
            return None, pivots  # reduced block vanished: PSD and singular
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
    return None, pivots


def _basis_vectors(
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
    whether) definiteness fails.  H_K is built once and each H_k is its
    leading block.  One Bareiss pass over H_K gives det H_k for every order
    up to its first zero pivot; each later order takes its own ``det_exact``.
    The verdicts come by three routes:

    - the orders before the first leading minor <= 0 are positive definite
      by Sylvester's criterion, cross-checked by one congruence elimination
      of the last of them, whose pivots' running products must be the minors;
    - from that minor on, ``psd_check`` decides each order until the first
      non-PSD one;
    - every later order is certified by that order's witness padded with
      zeros, re-verified against each order's matrix.
    """
    if max_order < 0:
        raise DomainError("max_order must be >= 0")
    seq = kperiodic_convergents(periods, w, 2 * max_order)
    rows = hankel_matrix(seq, max_order)

    def block(order: int) -> List[List[Fraction]]:
        return [list(row[: order + 1]) for row in rows[: order + 1]]

    dets = _bareiss(rows)[1]
    dets += [det_exact(block(order)) for order in range(len(dets), max_order + 1)]
    definite = next((k for k, det in enumerate(dets) if det <= 0), len(dets))
    if definite:
        _check_sylvester(block(definite - 1), dets[:definite])
    results = [PsdResult(is_psd=True)] * definite
    first_bad: Optional[int] = None
    for order in range(definite, max_order + 1):
        if first_bad is None:
            res = psd_check(block(order))
            if not res.is_psd:
                first_bad = order
        else:
            padded = results[first_bad].witness + (Fraction(0),) * (order - first_bad)
            # H_order is a leading block of H_K, and padded is 0 past it
            if _quadratic_form(rows, padded) >= 0:
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


def _check_sylvester(rows: List[List[Fraction]], minors: List[Fraction]) -> None:
    """Second check of a positive definite prefix: the congruence elimination
    of its last matrix must find no witness and take one pivot per order,
    whose running products are the leading minors."""
    witness, pivots = _negative_witness(rows)
    if (
        witness is not None
        or len(pivots) != len(minors)
        or any(run != minor for run, minor in zip(accumulate(pivots, mul), minors))
    ):
        raise InvariantError(
            "congruence pivots and leading minors disagree on a positive definite prefix"
        )
