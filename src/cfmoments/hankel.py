"""Exact Hankel-matrix machinery for rational moment sequences.

Determinants are computed fraction-free by one integer Bareiss routine:
denominators are cleared row by row and the elimination runs over plain
integers.  Its pivot at step k, signed by its row swaps and divided by the
row scales, is det M[:k+1, :k+1], unless a swap has reached below row k, in
which case that minor is 0; so one pass gives every leading principal minor.

Positive semidefiniteness is decided by one congruence (LDL-style)
elimination over Fractions, O(n^3), bordered one leading block onto the next
(Golub & Van Loan, *Matrix Computations*), so one pass answers every leading
block in turn.  A negative pivot, or a zero diagonal beside a nonzero
off-diagonal entry, yields a rational witness v with v'Mv < 0, rebuilt from
the recorded pivot steps; when no witness exists the block is PSD.  One
helper certifies each verdict: a witness must give v'Mv < 0, and a PSD
block's pivot product (0 if its reduced block vanished) must equal its
Bareiss determinant.

A k-periodic scan builds H_K once, and each H_k is its leading block.  One
Bareiss pass over H_K gives det H_k for every order.  Each order's verdict
comes by one of two routes:

1. up to and including the first non-PSD order, from the one bordered
   elimination of H_K, certified against that order's determinant;
2. after it, from that order's witness padded with zeros (H_k is a leading
   block of H_{k+1}), re-verified against each order's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .cfrac import kperiodic_convergents
from .exactnum import DomainError, InvariantError, Scalar

Matrix = Sequence[Sequence[Fraction]]
# (witness or None, positive pivots taken) of one congruence elimination
Found = Tuple[Optional[Tuple[Fraction, ...]], List[Fraction]]


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
    """Exact determinant: the last leading minor of one integer Bareiss pass."""
    minors = _bareiss(matrix)
    return minors[-1] if minors else Fraction(1)


def _bareiss(matrix: Matrix) -> List[Fraction]:
    """det M[:k+1, :k+1] for every k, by one integer Bareiss elimination.

    Row i is scaled to integers by d_i, the lcm of its denominators.  A zero
    pivot is swapped with the first lower row nonzero in its column, and
    ``reach`` is the largest row index any swap has reached.  While
    ``reach <= k`` rows 0..k are the same set, so the pivot at step k is
    sign * d_0...d_k * det M[:k+1, :k+1].  Past that, a swap at step j < k
    reached below row k because rows j..k were zero in column j, so the first
    j+1 columns of M[:k+1, :k+1] have rank <= j and its minor is 0; when no
    lower row is nonzero in the column, every remaining minor is 0.
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
    scale = sign = prev = 1
    reach = 0
    for k in range(n):
        scale *= dens[k]
        minors.append(Fraction(sign * work[k][k], scale) if reach <= k else Fraction(0))
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign, reach = -sign, max(reach, i)
                    break
            else:
                return minors + [Fraction(0)] * (n - 1 - k)
        pivot_row = work[k]
        pivot = pivot_row[k]
        for row in work[k + 1 :]:
            head = row[k]
            row[k + 1 :] = [
                (x * pivot - head * y) // prev
                for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        prev = pivot
    return minors


@dataclass(frozen=True)
class PsdResult:
    """Exact PSD verdict with a certificate when the answer is negative.

    ``witness`` is a rational vector v with v' M v < 0, found by congruence
    elimination and re-verified before being returned; it is None exactly
    when the matrix is PSD.  A PSD verdict's pivot product has matched the
    Bareiss determinant, as the module docstring describes.
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
    return _certified(rows, n, next(_eliminate(rows, [n])), lambda: det_exact(rows))


def _certified(
    rows: Matrix, size: int, found: Found, det: Callable[[], Fraction]
) -> PsdResult:
    """The verdict of one elimination of the leading ``size`` block of
    ``rows``, certified: a witness must give v'Mv < 0, and a PSD verdict's
    pivots must agree with ``det()``, that block's Bareiss determinant."""
    witness, pivots = found
    if witness is not None:
        if _quadratic_form(rows, witness) >= 0:
            raise InvariantError("witness failed to certify v'Mv < 0")
        return PsdResult(is_psd=False, witness=witness)
    # The elimination is a congruence by a unit-determinant transform, so
    # det(M) is the product of its pivots, or 0 if the block vanished early.
    expected = prod(pivots, start=Fraction(1)) if len(pivots) == size else Fraction(0)
    if det() != expected:
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


def _eliminate(rows: Matrix, sizes: Iterable[int]) -> Iterator[Found]:
    """Congruence elimination of the leading blocks of ``rows`` with the
    increasing ``sizes``, each bordered onto the one before; yields each
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
    are replayed from those records (``_basis_vectors``), so a PSD verdict
    pays only for the reduced block, which is symmetric and so updated one
    triangle at a time.
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
                    yield tuple(_basis_vectors(size, steps[:t], [k])[0]), pivots[:t]
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
                    yield tuple(_basis_vectors(size, steps, [i])[0]), pivots
                    return
                if c[i][i] > 0 and pivot is None:
                    pivot = i
            if pivot is None:
                for i in active:
                    for j in active:
                        if i < j and c[i][j] != 0:
                            sign = 1 if c[i][j] > 0 else -1
                            u, v = _basis_vectors(size, steps, [i, j])
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
    leading block.  One Bareiss pass over H_K gives det H_k for every
    order.  Up to and including the first non-PSD order, one elimination of
    H_K, bordered one order at a time, decides each order, certified against
    that order's determinant; every later order is certified by that order's
    witness padded with zeros, re-verified against its matrix.
    """
    if max_order < 0:
        raise DomainError("max_order must be >= 0")
    seq = kperiodic_convergents(periods, w, 2 * max_order)
    rows = hankel_matrix(seq, max_order)
    dets = _bareiss(rows)
    results = [
        _certified(rows, k + 1, found, lambda: dets[k])
        for k, found in enumerate(_eliminate(rows, range(1, max_order + 2)))
    ]
    first_bad = None if results[-1].is_psd else len(results) - 1
    for order in range(len(results), max_order + 1):
        padded = results[first_bad].witness + (Fraction(0),) * (order - first_bad)
        # H_order is a leading block of H_K, and padded is 0 past it
        if _quadratic_form(rows, padded) >= 0:
            raise InvariantError("padded witness failed to certify v'Mv < 0")
        results.append(PsdResult(is_psd=False, witness=padded))
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
