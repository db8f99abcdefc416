"""Discrete signed measures with geometric atom tails, and their exact moments.

The measures here are finite sums of head atoms plus finitely many
*geometric families*: infinite atom sequences whose weights and locations are
both geometric.  That symbolic representation keeps every moment computable
in closed form inside a quadratic field, which is what makes the moment
identities of this package decidable exactly instead of numerically.

A family with scale s, weight ratio g, location ratio l and location sign o
denotes

    sum over m >= 1 of  (s * g^m) * delta at (o * l^m),

so its order-n moment is s * o^n * g*l^n / (1 - g*l^n), a plain geometric
series.  Families sharing (g, l) share that series, so one sweep over the
orders computes it once per group, times the group's sum of s or of o*s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple, TypeVar, Union

from .cfrac import TwoPeriodicParams, atom_ratios
from .exactnum import (
    DomainError,
    InvariantError,
    QuadElem,
    QuadField,
    Scalar,
)


_Key = TypeVar("_Key", bound=Hashable)


@dataclass(frozen=True)
class Atom:
    """A single weighted Dirac atom."""

    location: QuadElem
    weight: QuadElem


@dataclass(frozen=True)
class GeometricAtomFamily:
    """Infinite geometric atom tail; see the module docstring for semantics."""

    scale: QuadElem
    weight_ratio: QuadElem
    location_ratio: QuadElem
    location_sign: int = 1

    def atom(self, k: int) -> Atom:
        """The k-th atom (k >= 0), at exponent 1 + k."""
        if k < 0:
            raise DomainError("atom index must be >= 0")
        m = 1 + k
        return Atom(
            location=self.location_sign * self.location_ratio**m,
            weight=self.scale * self.weight_ratio**m,
        )


@dataclass(frozen=True)
class DiscreteSignedMeasure:
    """Head atoms plus geometric families over one quadratic field.

    ``bounded_support`` asserts that every atom lies in [-1, 1]; the Binet
    measure sets it to False because its atoms genuinely live outside.
    """

    field: QuadField
    head_atoms: Tuple[Atom, ...] = ()
    families: Tuple[GeometricAtomFamily, ...] = ()
    bounded_support: bool = True

    def __post_init__(self) -> None:
        rad = self.field.radicand
        one = self.field.one
        for atom in self.head_atoms:
            for part in (atom.location, atom.weight):
                if part.field.radicand != rad:
                    raise DomainError("atom does not live in the measure's field")
            if self.bounded_support:
                loc = atom.location
                if (one - loc).sign() < 0 or (one + loc).sign() < 0:
                    raise DomainError(f"atom location {loc} outside [-1, 1]")
        for fam in self.families:
            for part in (fam.scale, fam.weight_ratio, fam.location_ratio):
                if part.field.radicand != rad:
                    raise DomainError("family does not live in the measure's field")
            if fam.location_sign not in (1, -1):
                raise DomainError("location_sign must be +1 or -1")
            for name, ratio in (
                ("weight", fam.weight_ratio),
                ("location", fam.location_ratio),
            ):
                if (one - ratio).sign() <= 0 or (one + ratio).sign() <= 0:
                    raise DomainError(f"family {name} ratio must satisfy |ratio| < 1")

    # -- moments -------------------------------------------------------------

    def moment(self, order: int) -> QuadElem:
        """Exact order-n moment, in the measure's quadratic field."""
        return next(self._moment_sweep(order, order))

    def moments(self, n_max: int) -> List[QuadElem]:
        """Exact moments of orders 0..n_max, equal to ``moment(n)`` for each n."""
        return list(self._moment_sweep(0, n_max))

    def _moment_sweep(self, first: int, last: int) -> Iterator[QuadElem]:
        """Moments of orders first..last: each group adds coeff * step/(1 - step)."""
        for total, groups in self._sweep(first, last):
            for coeff, _, step in groups:
                if coeff != 0:
                    total = total + coeff * step / (1 - step)
            yield total

    def mass(self) -> QuadElem:
        return self.moment(0)

    def truncated_moment(self, order: int, terms: int) -> Tuple[QuadElem, QuadElem]:
        """Partial moment over the first ``terms`` atoms of each family.

        Returns (value, tail_bound).  The value literally sums each group's
        series term by term (head atoms are exact), making it an independent
        check on :meth:`moment`; the bound dominates everything left out:
        sum of |scale| * |g*l^n|^(1+terms) / (1 - |g*l^n|) per family, taken
        once per group as its bound weight times the group's tail.  A group
        whose coefficient at this order's parity is 0 adds nothing to the
        value, so only its step^terms is taken, by binary powering.
        """
        value, groups = next(self._sweep(order, order))
        if terms < 1:
            raise DomainError("terms must be >= 1")
        bound = self.field.zero
        for coeff, weight, step in groups:
            if coeff == 0:
                last = step**terms
            else:
                partial, last = _geometric_partial_sum(step, terms)
                value = value + coeff * partial
            bound = bound + weight * abs(last * step) / (1 - abs(step))
        return value, bound

    def _sweep(
        self, first: int, last: int
    ) -> Iterator[Tuple[QuadElem, List[Tuple[QuadElem, QuadElem, QuadElem]]]]:
        """For each order n in first..last (first is 0 or last, so only a last
        below 0 raises): the head-atom moment and, for each group of families
        sharing (weight ratio g, location ratio l), (coefficient at the parity
        of n, bound weight, step g*l^n).  The coefficients sum the group's scales s (even n) or
        o*s (odd n, o the location sign); the bound weight sums |s|.  Each
        distinct location ratio is raised by ``**`` once, at ``first``, then
        carried to each next order by one multiplication.
        """
        if last < 0:
            raise DomainError("moment order must be >= 0")
        zero = self.field.zero
        cells: Dict[Tuple[QuadElem, QuadElem], List[QuadElem]] = {}
        for fam in self.families:
            s = fam.scale
            cell = cells.setdefault((fam.weight_ratio, fam.location_ratio), [zero, zero, zero])
            cell[0] = cell[0] + s
            cell[1] = cell[1] + (s if fam.location_sign > 0 else -s)
            cell[2] = cell[2] + abs(s)
        heads = self.head_atoms
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

    # -- structure -----------------------------------------------------------

    def reflected(self) -> DiscreteSignedMeasure:
        """The image under t -> -t: locations negated, weights unchanged."""
        heads = tuple(Atom(-a.location, a.weight) for a in self.head_atoms)
        fams = tuple(
            replace(f, location_sign=-f.location_sign) for f in self.families
        )
        return DiscreteSignedMeasure(self.field, heads, fams, self.bounded_support)

    def scaled(self, factor: Union[Scalar, QuadElem]) -> DiscreteSignedMeasure:
        heads = tuple(Atom(a.location, a.weight * factor) for a in self.head_atoms)
        fams = tuple(replace(f, scale=f.scale * factor) for f in self.families)
        return DiscreteSignedMeasure(self.field, heads, fams, self.bounded_support)

    def with_head(
        self, location: Union[Scalar, QuadElem], weight: Union[Scalar, QuadElem]
    ) -> DiscreteSignedMeasure:
        loc = location if isinstance(location, QuadElem) else self.field.element(location)
        wt = weight if isinstance(weight, QuadElem) else self.field.element(weight)
        return DiscreteSignedMeasure(
            self.field,
            self.head_atoms + (Atom(loc, wt),),
            self.families,
            self.bounded_support,
        )

    def __add__(self, other: DiscreteSignedMeasure) -> DiscreteSignedMeasure:
        if not isinstance(other, DiscreteSignedMeasure):
            return NotImplemented
        if other.field.radicand != self.field.radicand:
            raise DomainError("cannot add measures over different fields")
        return DiscreteSignedMeasure(
            self.field,
            self.head_atoms + other.head_atoms,
            self.families + other.families,
            self.bounded_support and other.bounded_support,
        )

    def __sub__(self, other: DiscreteSignedMeasure) -> DiscreteSignedMeasure:
        return self + other.scaled(-1)

    def canonical(self) -> DiscreteSignedMeasure:
        """Merge co-located head atoms and identical families, drop zero terms,
        sort deterministically.  Structural equality of canonical forms is the
        measure-equality test used throughout."""
        heads = tuple(
            Atom(loc, weight)
            for loc, weight in _merged((a.location, a.weight) for a in self.head_atoms)
        )
        keyed = (
            ((f.weight_ratio, f.location_ratio, f.location_sign), f.scale)
            for f in self.families
            if f.weight_ratio != 0
        )
        fams = tuple(
            GeometricAtomFamily(scale, weight_ratio, location_ratio, location_sign)
            for (weight_ratio, location_ratio, location_sign), scale in _merged(keyed)
        )
        return DiscreteSignedMeasure(self.field, heads, fams, self.bounded_support)


def _geometric_partial_sum(step: QuadElem, terms: int) -> Tuple[QuadElem, QuadElem]:
    """(S_terms, step^terms) for the partial sums S_m = step + ... + step^m.

    Term by term as S_m = step * (1 + S_{m-1}): a product by the small step
    and an addition of 1 need no gcd of two large denominators, as adding
    step^m would.  The last term walked is S_terms - S_(terms-1).
    """
    previous, total = step.field.zero, step
    for _ in range(terms - 1):
        previous, total = total, (total + 1) * step
    return total, total - previous


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
        atoms += (fam.atom(k) for k in range(max_exponent))
    return [Atom(loc, weight) for loc, weight in _merged((a.location, a.weight) for a in atoms)]


def _merged(items: Iterable[Tuple[_Key, QuadElem]]) -> List[Tuple[_Key, QuadElem]]:
    """(key, sum of its values) for each distinct key, sorted by key, zero sums
    dropped.  Values collect in one list per key, so each item costs a single
    dict lookup and each key one hash per occurrence."""
    cells: Dict[_Key, List[QuadElem]] = {}
    for key, value in items:
        cells.setdefault(key, []).append(value)
    totals = ((key, sum(values[1:], values[0])) for key, values in cells.items())
    return sorted(((key, total) for key, total in totals if total != 0), key=lambda item: item[0])


# -- constructors -------------------------------------------------------------


def even_odd_measures(
    params: TwoPeriodicParams,
) -> Tuple[DiscreteSignedMeasure, DiscreteSignedMeasure]:
    """The pair of measures matching the even and odd convergents.

    Both share the head atom ((1-q)/a at 1, with q the location ratio) and a
    geometric tail on the positive locations q^m; they differ only in weight
    ratio (even vs odd).  The first measure's even moments and the second's
    odd moments reproduce s_n.
    """
    ratios = atom_ratios(params)
    fld = ratios.location.field
    a = params.a
    q = ratios.location
    head = Atom(fld.one, (fld.one - q) / a)
    scale = (q.inverse() - q) / a
    even = DiscreteSignedMeasure(
        fld,
        (head,),
        (GeometricAtomFamily(scale, ratios.even_weight, q),),
    )
    odd = DiscreteSignedMeasure(
        fld,
        (head,),
        (GeometricAtomFamily(scale, ratios.odd_weight, q),),
    )
    return even, odd


def moment_measure(params: TwoPeriodicParams) -> DiscreteSignedMeasure:
    """The discrete signed measure whose order-n moment equals s_n(a, b, w).

    Built in its closed form: head atom (1-q)/a at 1, plus four geometric
    families realising weights (even^m + odd^m)/2 on locations q^m and
    (even^m - odd^m)/2 on locations -q^m, all scaled by (1/q - q)/a.
    """
    ratios = atom_ratios(params)
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


def binet_measure() -> DiscreteSignedMeasure:
    """Two-atom measure in Q(sqrt(5)) whose order-n moment is F_{n+1}.

    Its atoms sit at (1 +/- sqrt(5))/2, so it deliberately opts out of the
    [-1, 1] support invariant.
    """
    fld = QuadField(5)
    golden = fld.element(Fraction(1, 2), Fraction(1, 2))
    conjugate = fld.element(Fraction(1, 2), Fraction(-1, 2))
    w_plus = fld.element(Fraction(1, 2), Fraction(1, 10))
    w_minus = fld.element(Fraction(1, 2), Fraction(-1, 10))
    return DiscreteSignedMeasure(
        fld,
        (Atom(golden, w_plus), Atom(conjugate, w_minus)),
        (),
        bounded_support=False,
    )


# -- positivity ---------------------------------------------------------------


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of the exact positivity test, with every intermediate flag.

    ``is_positive`` is decided by the sign route (even_ratio >= 0 and
    -even_ratio <= odd_ratio <= even_ratio).  The three surface flags express
    the equivalent parameter conditions: a >= b plus the two polynomial
    thresholds in w; for w > 0 the two routes provably coincide and the
    classifier verifies that they did.
    """

    is_positive: bool
    even_ratio_nonneg: bool
    a_ge_b: bool
    w_above_even_threshold: bool
    w_above_order_threshold: bool
    even_ratio: QuadElem
    odd_ratio: QuadElem


def classify_positivity(params: TwoPeriodicParams) -> PositivityVerdict:
    """Decide whether the moment measure is positive, two independent ways.

    Route one checks the atom-weight signs through the weight ratios; route
    two checks a >= b together with the polynomial forms of the two w
    thresholds (a*w^2 + a*b*w - b >= 0 and w^2 + w*(a+b)/2 - 1 >= 0, both
    equivalent to their square-root forms for w >= 0).  Any disagreement on
    their common domain is an InvariantError, not a verdict.
    """
    ratios = atom_ratios(params)
    even, odd = ratios.even_weight, ratios.odd_weight
    even_nonneg = even.sign() >= 0
    sum_nonneg = (even + odd).sign() >= 0
    diff_nonneg = (even - odd).sign() >= 0
    is_positive = even_nonneg and sum_nonneg and diff_nonneg

    a, b, w = params.a, params.b, params.w
    a_ge_b = a >= b
    w_even = a * w * w + a * b * w - b >= 0
    w_order = w * w + w * (a + b) / 2 - 1 >= 0

    if even_nonneg != w_even:
        raise InvariantError(
            f"even-ratio sign and its w threshold disagree at {params}"
        )
    if diff_nonneg != w_order:
        raise InvariantError(
            f"ratio ordering and its w threshold disagree at {params}"
        )
    if w > 0:
        if sum_nonneg != a_ge_b:
            raise InvariantError(
                f"-even <= odd and a >= b disagree at {params} (w > 0)"
            )
        if is_positive != (a_ge_b and w_even and w_order):
            raise InvariantError(f"positivity routes disagree at {params}")
    return PositivityVerdict(
        is_positive=is_positive,
        even_ratio_nonneg=even_nonneg,
        a_ge_b=a_ge_b,
        w_above_even_threshold=w_even,
        w_above_order_threshold=w_order,
        even_ratio=even,
        odd_ratio=odd,
    )
