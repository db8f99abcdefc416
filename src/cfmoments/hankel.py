"""Exact Hankel-matrix machinery for rational moment sequences.

Every engine runs on one integer form of its matrix, built once per call: row
i scaled by d_i, the lcm of its denominators, into the integer row W_i.

Determinants come from one fraction-free Bareiss elimination of W.  Its pivot
at step k, signed by its row swaps and divided by the row scales, is
det M[:k+1, :k+1], unless a swap has reached below row k, in which case that
minor is 0; so one pass gives every leading principal minor.

Positive semidefiniteness is decided by one congruence (LDL-style)
elimination, O(n^3), of the symmetric integer matrix S M S, S = diag(d_i)
(Golub & Van Loan, *Matrix Computations*).  Each division-free step ends by
dividing every remaining row by their common content, so one pass with no
bordering answers every leading block in turn.  A negative pivot, or a zero
diagonal beside a nonzero off-diagonal entry, yields a rational witness v with
v'Mv < 0, rebuilt in integers from the recorded steps; when no witness exists
the block is PSD.  Each verdict is certified: a witness must give v'Mv < 0,
summed in integers, and a PSD block's pivot product (0 if its reduced block
vanished) must equal its Bareiss determinant.

A k-periodic scan builds the integer form of H_K once, straight from the
sequence's numerators and denominators; each H_k is its leading block, and
one Bareiss pass gives every det H_k.  Up to and including the first non-PSD
order, the one elimination of H_K decides each order; after it, that order's
witness padded with zeros (H_k is a leading block of H_{k+1}) is re-verified
against each order's matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .cfrac import kperiodic_convergents
from .exactnum import DomainError, InvariantError, Scalar

Matrix = Sequence[Sequence[Fraction]]
Form = Tuple[List[List[int]], List[int]]  # integer rows W_i = d_i M_i, row scales d_i
# (witness or None, positive pivots taken) of one congruence elimination
Found = Tuple[Optional[Tuple[Fraction, ...]], List[Fraction]]
Step = Tuple[int, int, Dict[int, int]]  # pivot row, its value D, frozen pivot column


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
    return (_bareiss(_integer_form(matrix)) or [Fraction(1)])[-1]


def _integer_form(matrix: Matrix) -> Form:
    """The rows of a square ``matrix`` scaled to integers, with their scales."""
    if any(len(row) != len(matrix) for row in matrix):
        raise DomainError("matrix must be square")
    fracs = [[Fraction(x) for x in row] for row in matrix]
    dens = [lcm(*(f.denominator for f in row)) for row in fracs]
    return [[f.numerator * (d // f.denominator) for f in row] for row, d in zip(fracs, dens)], dens


def _bareiss(form: Form) -> List[Fraction]:
    """det M[:k+1, :k+1] for every k, by one Bareiss elimination of W.

    A zero pivot is swapped with the first lower row nonzero in its column,
    and ``reach`` is the largest row index any swap has reached.  While
    ``reach <= k`` rows 0..k are the same set, so the pivot at step k is
    sign * d_0...d_k * det M[:k+1, :k+1].  Past that, a swap at step j < k
    reached below row k because rows j..k were zero in column j, so the first
    j+1 columns of M[:k+1, :k+1] have rank <= j and its minor is 0; when no
    lower row is nonzero in the column, every remaining minor is 0.
    """
    rows, dens = form
    n = len(rows)
    work = [list(row) for row in rows]
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


class PsdResult(NamedTuple):
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
    form = rows, dens = _integer_form(matrix)
    if any(rows[i][j] * dens[j] != rows[j][i] * d for i, d in enumerate(dens) for j in range(i)):
        raise DomainError("psd_check requires a symmetric matrix")
    return next(_verdicts(form, [len(rows)], lambda: _bareiss(form)))


def _verdicts(
    form: Form, sizes: Sequence[int], minors: Callable[[], List[Fraction]]
) -> Iterator[PsdResult]:
    """The elimination's verdict on each leading block of the given ``sizes``,
    certified, up to the first witness: a witness must give v'Mv < 0, and a
    PSD verdict's pivot product, kept as a running product, must equal that
    block's Bareiss determinant, read from ``minors()``."""
    product, taken = Fraction(1), 0
    for size, (witness, pivots) in zip(sizes, _eliminate(form, sizes)):
        if witness is not None:
            if _quadratic_form(form, witness) >= 0:
                raise InvariantError("witness failed to certify v'Mv < 0")
            yield PsdResult(is_psd=False, witness=witness)
            return
        # The elimination is a congruence by a unit-determinant transform, so
        # det(M) is the product of its pivots, or 0 if the block vanished early.
        product = prod(pivots[taken:], start=product)
        taken = len(pivots)
        if (minors()[size - 1] if size else 1) != (product if taken == size else 0):
            raise InvariantError(
                "congruence pivots and Bareiss determinant disagree on a PSD verdict"
            )
        yield PsdResult(is_psd=True)


def _quadratic_form(form: Form, v: Tuple[Fraction, ...]) -> Fraction:
    """v'Mv in integers, over the nonzero entries of v only; the matrix may
    extend past len(v), as one whose leading block is M.  With u = q v over
    v's common denominator q, and L the lcm of the row scales d_i over v's
    support, v'Mv = sum_i u_i (L / d_i) (W_i . u) / (L q^2)."""
    rows, dens = form
    support = [i for i, x in enumerate(v) if x]
    q = lcm(*(v[i].denominator for i in support))
    u = [(i, v[i].numerator * (q // v[i].denominator)) for i in support]
    big = lcm(*(dens[i] for i in support))
    total = sum(x * (big // dens[i]) * sum(rows[i][j] * y for j, y in u) for i, x in u)
    return Fraction(total, big * q * q)


def _eliminate(form: Form, sizes: Iterable[int]) -> Iterator[Found]:
    """Congruence elimination of the leading blocks of the matrix with the
    increasing ``sizes``; yields each block's (witness or None, positive
    pivots) and stops after a witness.  Fewer pivots than rows and no witness
    means the reduced block vanished.

    It reduces C = S M S (entries W_ij d_j, kept as the upper triangle, row r
    from its diagonal on), which is Γ times the reduced matrix for one
    rational scale Γ.  A step on pivot p with D = C_pp turns every remaining
    row, in the block or below it, into D C_ij - C_ip C_pj and divides them
    all by their content g: Γ becomes Γ D / g, and the step's pivot of M is
    D / (Γ d_p^2).  A row below the block records the first step count before
    which its reduced diagonal was < 0; when rows join, the least count (then
    row) gives the witness their block's own elimination finds first.  Blocks
    before a witness are PSD, so each step takes the pivot a larger block's
    own elimination would, and each yield is what its block eliminated alone
    gives.  A negative diagonal in the block maps back to a witness through
    that row's basis vector, and an all-zero diagonal with a nonzero
    off-diagonal entry yields one from a +/- pair of basis vectors, replayed
    from each step's (pivot, D, frozen pivot column).
    """
    rows, dens = form
    c = [[x * d for x, d in zip(row[i:], dens[i:])] for i, row in enumerate(rows)]
    rest = list(range(len(c)))  # the row of each position of c, ascending
    top = bottom = 1  # Γ = top / bottom, in lowest terms
    steps: List[Step] = []
    pivots: List[Fraction] = []
    negative = {k: 0 for k in rest if c[k][0] < 0}
    joined = 0
    for size in sizes:
        late = [(negative[k], k) for k in range(joined, size) if k in negative]
        joined = size
        if late:
            t, k = min(late)
            yield tuple(_basis_vectors(size, steps[:t], dens, [k])[0]), pivots[:t]
            return
        while True:
            block = bisect_left(rest, size)
            pivot = None
            for at in range(block):
                if c[at][0] < 0:
                    yield tuple(_basis_vectors(size, steps, dens, [rest[at]])[0]), pivots
                    return
                if c[at][0] > 0 and pivot is None:
                    pivot = at
            if pivot is None:
                for a in range(block):
                    for b in range(a + 1, block):
                        if c[a][b - a] != 0:
                            sign = 1 if c[a][b - a] > 0 else -1
                            u, v = _basis_vectors(size, steps, dens, [rest[a], rest[b]])
                            yield tuple(x - sign * y for x, y in zip(u, v)), pivots
                            return
                break  # reduced block vanished
            p = rest.pop(pivot)
            d, *below = c.pop(pivot)
            column = [c[r].pop(pivot - r) for r in range(pivot)] + below
            pivots.append(Fraction(d * bottom, top * dens[p] ** 2))
            steps.append((p, d, dict(zip(rest, column))))
            c = [
                [d * x - h * y for x, y in zip(row, column[r:])]
                for r, (row, h) in enumerate(zip(c, column))
            ]
            g = gcd(*(gcd(*row) for row in c)) or 1
            if g > 1:
                c = [[x // g for x in row] for row in c]
            top, bottom = top * d, bottom * g
            g = gcd(top, bottom)
            top, bottom = top // g, bottom // g
            for at in range(block - 1, len(rest)):
                if c[at][0] < 0:
                    negative.setdefault(rest[at], len(steps))
        yield None, list(pivots)


def _basis_vectors(
    n: int, steps: List[Step], dens: List[int], targets: List[int]
) -> List[List[Fraction]]:
    """The basis vectors of rows ``targets``, replayed in integers and mapped
    back to M.  B_j starts as e_j; a step on pivot p with value D and column h
    makes it (B_p[p] D) B_j - (B_j[j] h_j) B_p over its content, a positive
    multiple of B_j / B_j[j] - (h_j / D) B_p / B_p[p].  Only the targets and
    the pivots, the rows the updates read, are replayed.  In M's coordinates
    the vector is S B_j, scaled to 1 at j."""
    basis = {
        j: [int(t == j) for t in range(n)]
        for j in {*targets, *(pivot for pivot, _, _ in steps)}
    }
    for pivot, d, column in steps:
        source = basis[pivot]
        lead = source[pivot] * d
        for j, h in column.items():
            if h != 0 and j in basis:
                own = basis[j][j] * h
                vec = [lead * x - own * y for x, y in zip(basis[j], source)]
                g = gcd(*vec)
                basis[j] = [x // g for x in vec]
    return [
        [Fraction(dens[m] * x, dens[j] * basis[j][j]) for m, x in enumerate(basis[j])]
        for j in targets
    ]


class ScanReport(NamedTuple):
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
    whether) definiteness fails.  The integer form of H_K is built once,
    straight from the sequence's numerators and denominators, and each H_k is
    its leading block.  One Bareiss pass over it gives det H_k for every
    order.  Up to and including the first non-PSD order, one content-reduced
    elimination of H_K decides each order, certified against that order's
    determinant; every later order is certified by that order's witness
    padded with zeros.  v'Mv sums over v's support alone, which every padded
    witness shares, so one integer check of that value covers every later order.
    """
    if max_order < 0:
        raise DomainError("max_order must be >= 0")
    seq = kperiodic_convergents(periods, w, 2 * max_order)
    n = max_order + 1
    nums, dens = [s.numerator for s in seq], [s.denominator for s in seq]
    scales = [lcm(*dens[i : i + n]) for i in range(n)]
    rows = [[nums[i + j] * (d // dens[i + j]) for j in range(n)] for i, d in enumerate(scales)]
    form = (rows, scales)
    dets = _bareiss(form)
    results = list(_verdicts(form, range(1, n + 1), lambda: dets))
    first_bad = None if results[-1].is_psd else len(results) - 1
    if len(results) < n and _quadratic_form(form, results[first_bad].witness) >= 0:
        raise InvariantError("padded witness failed to certify v'Mv < 0")
    for order in range(len(results), n):
        padded = results[first_bad].witness + (Fraction(0),) * (order - first_bad)
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
