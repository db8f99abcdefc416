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
series.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .cfrac import TwoPeriodicParams, atom_ratios
from .exactnum import (
    DomainError,
    InvariantError,
    QuadElem,
    QuadField,
    Scalar,
)


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

    def moment(self, order: int) -> QuadElem:
        """Exact order-n moment by summing the geometric series in closed form."""
        return self._moment_at(order, self.location_ratio**order)

    def _moment_at(self, order: int, power: QuadElem) -> QuadElem:
        """The order-n moment, given ``power`` = location_ratio**order."""
        step = self.weight_ratio * power
        one = self.scale.field.one
        value = self.scale * step / (one - step)
        if self.location_sign < 0 and order % 2 == 1:
            value = -value
        return value


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
        if order < 0:
            raise DomainError("moment order must be >= 0")
        heads = sum((a.weight * a.location**order for a in self.head_atoms), self.field.zero)
        return sum((fam.moment(order) for fam in self.families), heads)

    def moments(self, n_max: int) -> List[QuadElem]:
        """Exact moments of orders 0..n_max, equal to ``moment(n)`` for each n.

        Each distinct location ratio l, of head atoms and families alike,
        carries l^n from one order to the next by one multiplication.
        """
        if n_max < 0:
            raise DomainError("moment order must be >= 0")
        heads, fams = self.head_atoms, self.families
        sites = [a.location for a in heads] + [f.location_ratio for f in fams]
        ratios = list(dict.fromkeys(sites))
        slots = [ratios.index(site) for site in sites]
        powers = [self.field.one] * len(ratios)
        out = []
        for order in range(n_max + 1):
            if order:
                powers = [power * ratio for power, ratio in zip(powers, ratios)]
            at = [powers[i] for i in slots]
            total = sum((a.weight * p for a, p in zip(heads, at)), self.field.zero)
            for fam, power in zip(fams, at[len(heads):]):
                total = total + fam._moment_at(order, power)
            out.append(total)
        return out

    def mass(self) -> QuadElem:
        return self.moment(0)

    def truncated_moment(self, order: int, terms: int) -> Tuple[QuadElem, QuadElem]:
        """Partial moment over the first ``terms`` atoms of each family.

        Returns (value, tail_bound).  The value literally sums the omitted
        series term by term (head atoms are exact), making it an independent
        check on :meth:`moment`; the bound dominates everything left out:
        sum of |scale| * |g*l^n|^(1+terms) / (1 - |g*l^n|) per family.
        """
        if order < 0:
            raise DomainError("moment order must be >= 0")
        if terms < 1:
            raise DomainError("terms must be >= 1")
        value = sum((a.weight * a.location**order for a in self.head_atoms), self.field.zero)
        bound = self.field.zero
        one = self.field.one
        for fam in self.families:
            step = fam.weight_ratio * fam.location_ratio**order
            partial, last = _geometric_partial_sum(step, terms)
            if fam.location_sign < 0 and order % 2 == 1:
                partial = -partial
            value = value + fam.scale * partial
            tail = abs(fam.scale) * abs(last * step)
            bound = bound + tail / (one - abs(step))
        return value, bound

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
        merged_heads: Dict[QuadElem, QuadElem] = {}
        for atom in self.head_atoms:
            if atom.location in merged_heads:
                merged_heads[atom.location] = merged_heads[atom.location] + atom.weight
            else:
                merged_heads[atom.location] = atom.weight
        heads = tuple(
            Atom(loc, merged_heads[loc])
            for loc in sorted(merged_heads)
            if merged_heads[loc] != 0
        )
        merged_fams: Dict[Tuple[QuadElem, QuadElem, int], QuadElem] = {}
        for fam in self.families:
            key = (fam.weight_ratio, fam.location_ratio, fam.location_sign)
            if key in merged_fams:
                merged_fams[key] = merged_fams[key] + fam.scale
            else:
                merged_fams[key] = fam.scale
        fams = tuple(
            GeometricAtomFamily(
                scale=merged_fams[key],
                weight_ratio=key[0],
                location_ratio=key[1],
                location_sign=key[2],
            )
            for key in sorted(merged_fams)
            if merged_fams[key] != 0 and key[0] != 0
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
    merged: Dict[QuadElem, QuadElem] = {}
    for atom in measure.head_atoms:
        merged[atom.location] = merged.get(atom.location, measure.field.zero) + atom.weight
    for fam in measure.families:
        for k in range(max_exponent):
            atom = fam.atom(k)
            merged[atom.location] = (
                merged.get(atom.location, measure.field.zero) + atom.weight
            )
    return [Atom(loc, merged[loc]) for loc in sorted(merged) if merged[loc] != 0]


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
