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
``moment``, ``moments``, ``truncated_moment`` and ``truncated_moments`` all
read that one sweep.  Past the powers of each distinct location, it works
on unreduced integer triples (P, R, D) of (P + R*sqrt(U))/D and reduces
each value it returns once; its signs and inverses are checked exactly as
``QuadElem``'s are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple, TypeVar, Union

from .cfrac import TwoPeriodicParams, atom_ratios
from .exactnum import (
    DomainError,
    InvariantError,
    QuadElem,
    QuadField,
    Scalar,
    _FrozenRecord,
    _plus,
    _quotient,
    _reduced,
    _times,
    _Triple,
    surd_sign,
)


_Key = TypeVar("_Key", bound=Hashable)


class Atom(NamedTuple):
    """A single weighted Dirac atom."""

    location: QuadElem
    weight: QuadElem


class GeometricAtomFamily(NamedTuple):
    """Infinite geometric atom tail; see the module docstring for semantics."""

    scale: QuadElem
    weight_ratio: QuadElem
    location_ratio: QuadElem
    location_sign: int = 1


class DiscreteSignedMeasure(_FrozenRecord):
    """Head atoms plus geometric families over one quadratic field.

    ``bounded_support`` asserts that every atom lies in [-1, 1]; the Binet
    measure sets it to False because its atoms genuinely live outside.
    """

    __slots__ = ("field", "head_atoms", "families", "bounded_support")

    def __init__(
        self,
        field: QuadField,
        head_atoms: Tuple[Atom, ...] = (),
        families: Tuple[GeometricAtomFamily, ...] = (),
        bounded_support: bool = True,
    ) -> None:
        self._set(field, head_atoms, families, bounded_support)
        self._validate()

    @classmethod
    def _prechecked(
        cls,
        field: QuadField,
        head_atoms: Tuple[Atom, ...],
        families: Tuple[GeometricAtomFamily, ...],
    ) -> DiscreteSignedMeasure:
        """A measure with bounded support whose invariants the caller has already
        decided (``moment_measure``, through ``atom_ratios``), built without
        re-running ``_validate``."""
        measure = object.__new__(cls)
        measure._set(field, head_atoms, families, True)
        return measure

    def _validate(self) -> None:
        """Check each distinct field and each distinct (name, ratio) once, in
        first-occurrence order, so the first failure raises as it would with
        every occurrence checked.  |x| <= 1 and |x| < 1 are decided on the
        integer triple (P, R, D) of x as the signs of D -/+ P -/+ R*sqrt(U)."""
        rad = self.field.radicand
        u = self.field.int_radicand
        fields = {id(self.field)}  # field objects already found to share the radicand

        def foreign(*parts: QuadElem) -> bool:
            for part in parts:
                if id(part.field) not in fields:
                    if part.field.radicand != rad:
                        return True
                    fields.add(id(part.field))
            return False

        for atom in self.head_atoms:
            if foreign(atom.location, atom.weight):
                raise DomainError("atom does not live in the measure's field")
            if self.bounded_support:
                p, r, d = atom.location.triple
                if surd_sign(d - p, -r, u) < 0 or surd_sign(d + p, r, u) < 0:
                    raise DomainError(f"atom location {atom.location} outside [-1, 1]")
        checked = set()
        for fam in self.families:
            if foreign(fam.scale, fam.weight_ratio, fam.location_ratio):
                raise DomainError("family does not live in the measure's field")
            if fam.location_sign not in (1, -1):
                raise DomainError("location_sign must be +1 or -1")
            for name, ratio in (
                ("weight", fam.weight_ratio),
                ("location", fam.location_ratio),
            ):
                p, r, d = key = ratio.triple
                if (name, key) in checked:
                    continue
                checked.add((name, key))
                if surd_sign(d - p, -r, u) <= 0 or surd_sign(d + p, r, u) <= 0:
                    raise DomainError(f"family {name} ratio must satisfy |ratio| < 1")

    # -- moments -------------------------------------------------------------

    def moment(self, order: int) -> QuadElem:
        """Exact order-n moment, in the measure's quadratic field."""
        return self._sweep(order, order)[0][0]

    def moments(self, n_max: int) -> List[QuadElem]:
        """Exact moments of orders 0..n_max from one sweep over the orders,
        each equal to ``moment(n)``."""
        return [row[0] for row in self._sweep(0, n_max)]

    def mass(self) -> QuadElem:
        return self.moment(0)

    def truncated_moment(self, order: int, terms: int) -> Tuple[QuadElem, QuadElem]:
        """Partial moment over the first ``terms`` atoms of each family.

        Returns (value, tail_bound).  The value sums each group's series
        term by term (head atoms are exact) and never divides by 1 - step,
        so it checks :meth:`moment`'s closed form independently; the bound
        dominates everything left out: |scale| * |g*l^n|^(1+terms) /
        (1 - |g*l^n|) per family, taken once per group as its bound weight
        times the group's tail.
        """
        _, value, bound = self._sweep(order, order, terms)[0]
        return value, bound

    def truncated_moments(self, n_max: int, terms: int) -> List[Tuple[QuadElem, ...]]:
        """(moment, truncated value, tail bound) for each order 0..n_max from
        one sweep: row n equals ``(moment(n), *truncated_moment(n, terms))``."""
        return self._sweep(0, n_max, terms)

    def _sweep(
        self, first: int, last: int, terms: Optional[int] = None
    ) -> List[Tuple[QuadElem, ...]]:
        """The moment kernel: for each order n in first..last (first is 0 or
        last, so only a last below 0 raises), the row (moment,), or with
        ``terms`` (moment, truncated value, tail bound).

        Families group by their step g*l^n (weight ratio g, location ratio
        l).  A group's coefficient at the parity of n sums its scales s (even
        n) or o*s (odd n, o the location sign); its bound weight sums |s|.
        Each distinct location other than 1, of a head atom or a group, is
        raised by ``**`` once, at ``first``, then carried to each next order
        by one reduced product.  All else runs on unreduced integer triples
        (P, R, D) of (P + R*sqrt(U))/D: each group's step, its closed-form
        term coeff * step/(1 - step) and, with ``terms``, its partial sum and
        its tail bound.  Each value of a row is reduced once, at the end.
        """
        if last < 0:
            raise DomainError("moment order must be >= 0")
        if terms is not None and terms < 1:
            raise DomainError("terms must be >= 1")
        fld = self.field
        u = fld.int_radicand
        cells: Dict[Tuple[_Triple, _Triple], List[_Triple]] = {}
        for fam in self.families:
            p, r, d = fam.scale.triple
            o, sign = fam.location_sign, surd_sign(p, r, u)
            key = (fam.weight_ratio.triple, fam.location_ratio.triple)
            cell = cells.setdefault(key, [_ZERO] * 3)
            for i, k in enumerate((1, o, sign)):
                cell[i] = _plus(cell[i], (k * p, k * r, d))
        heads = self.head_atoms
        sites = [a.location.triple for a in heads] + [location for _, location in cells]
        # slot 0 holds the power of 1, which never moves; slot i > 0 the power
        # of moving[i - 1]
        moving = [site for site in dict.fromkeys(sites) if site != _ONE]
        slots = [moving.index(site) + 1 if site != _ONE else 0 for site in sites]
        ratios = [QuadElem(fld, p, r, d, 1) for p, r, d in moving]
        weights = [a.weight.triple for a in heads]
        groups = [
            (weight_ratio, [_reduced(fld, part).triple for part in cell])
            for (weight_ratio, _), cell in cells.items()
        ]
        powers = [ratio**first for ratio in ratios]
        rows: List[Tuple[QuadElem, ...]] = []
        for order in range(first, last + 1):
            if order > first:
                powers = [power * ratio for power, ratio in zip(powers, ratios)]
            table = [_ONE] + [power.triple for power in powers]
            at = [table[i] for i in slots]
            moment = _ZERO
            for weight, power in zip(weights, at):
                moment = _plus(moment, _times(weight, power, u))
            value, bound = moment, _ZERO
            for (weight_ratio, cell), power in zip(groups, at[len(heads):]):
                p, r, d = _times(weight_ratio, power, u)
                coeff = cell[order % 2]
                if coeff[0] or coeff[1]:
                    moment = _plus(moment, _times(coeff, _quotient(p, r, d - p, -r, u), u))
                    if terms:
                        value = _plus(value, _times(coeff, _partial_sum(p, r, d, u, terms), u))
                if terms:
                    bound = _plus(bound, _tail(cell[2], p, r, d, u, terms))
            if terms:
                rows.append((_reduced(fld, moment), _reduced(fld, value), _reduced(fld, bound)))
            else:
                rows.append((_reduced(fld, moment),))
        return rows

    # -- structure -----------------------------------------------------------

    def reflected(self) -> DiscreteSignedMeasure:
        """The image under t -> -t: locations negated, weights unchanged."""
        heads = tuple(Atom(-a.location, a.weight) for a in self.head_atoms)
        fams = tuple(f._replace(location_sign=-f.location_sign) for f in self.families)
        return DiscreteSignedMeasure(self.field, heads, fams, self.bounded_support)

    def scaled(self, factor: Union[Scalar, QuadElem]) -> DiscreteSignedMeasure:
        heads = tuple(Atom(a.location, a.weight * factor) for a in self.head_atoms)
        fams = tuple(f._replace(scale=f.scale * factor) for f in self.families)
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


_ZERO: _Triple = (0, 0, 1)
_ONE: _Triple = (1, 0, 1)


def _partial_sum(p: int, r: int, d: int, u: int, terms: int) -> _Triple:
    """S_terms = step + ... + step^terms for step = (p + r*sqrt(u))/d, over
    d^terms, summed term by term as S_m = step * (1 + S_(m-1)): integer
    products only, no division by 1 - step."""
    sp, sr, sd = 0, 0, 1
    for _ in range(terms):
        sp, sr, sd = p * (sd + sp) + r * sr * u, p * sr + r * (sd + sp), sd * d
    return sp, sr, sd


def _tail(weight: _Triple, p: int, r: int, d: int, u: int, terms: int) -> _Triple:
    """weight * |step|^(terms+1) / (1 - |step|) for step = (p + r*sqrt(u))/d,
    where |step| = sign * step by the exact sign of p + r*sqrt(u); a zero step
    (a weight ratio of 0) gives a zero triple."""
    sign = surd_sign(p, r, u)
    p, r = sign * p, sign * r
    tp, tr = p, r
    for _ in range(terms):
        tp, tr = tp * p + tr * r * u, tp * r + tr * p
    qp, qr, qd = _quotient(tp, tr, d - p, -r, u)
    return _times(weight, (qp, qr, qd * d**terms), u)


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


def _head_and_spread(params: TwoPeriodicParams, q: QuadElem) -> Tuple[Atom, _Triple]:
    """The head atom (1 - q)/a at 1, and (1/q - q)/a = (1 - q^2)/(q*a) as an
    unreduced triple, for the location ratio q."""
    fld = q.field
    p, r, d = q.triple
    an, ad = params.a.numerator, params.a.denominator
    head = Atom(fld.one, _reduced(fld, ((d - p) * ad, -r * ad, d * an)))
    u = fld.int_radicand
    spread = _quotient((d * d - p * p - r * r * u) * ad, -2 * p * r * ad, d * an * p, d * an * r, u)
    return head, spread


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
    q = ratios.location
    head, spread = _head_and_spread(params, q)
    scale = _reduced(q.field, spread)
    return tuple(
        DiscreteSignedMeasure(q.field, (head,), (GeometricAtomFamily(scale, ratio, q),))
        for ratio in (ratios.even_weight, ratios.odd_weight)
    )


def moment_measure(params: TwoPeriodicParams) -> DiscreteSignedMeasure:
    """The discrete signed measure whose order-n moment equals s_n(a, b, w).

    Its closed form is the head atom (1-q)/a at 1, plus four geometric
    families realising weights (even^m + odd^m)/2 on locations q^m and
    (even^m - odd^m)/2 on locations -q^m, all scaled by half = (1/q - q)/(2a).
    It is built in its canonical form (see :meth:`DiscreteSignedMeasure.canonical`)
    directly: if even = odd, the two families on -q^m cancel and the two on
    q^m merge into one of scale 2*half; otherwise each ratio's families come
    in the order (-q^m, q^m), the smaller ratio's first, as one comparison
    of even against odd decides.  A zero ratio's families drop out.  Every
    invariant the public constructor checks holds here by construction: the
    head atom sits at 1, and ``atom_ratios`` has decided 0 < q < 1 and
    |even|, |odd| < 1, all in one field.
    """
    ratios = atom_ratios(params)
    q, even, odd = ratios.location, ratios.even_weight, ratios.odd_weight
    fld = q.field
    head, (p, r, d) = _head_and_spread(params, q)
    half = _reduced(fld, (p, r, 2 * d))
    if even == odd:
        keyed = [(even, 1, half + half)]
    else:
        (pe, re, de), (po, ro, do) = even.triple, odd.triple
        pairs = [(even, half, half), (odd, -half, half)]  # scales on -q^m, q^m
        if surd_sign(pe * do - po * de, re * do - ro * de, fld.int_radicand) > 0:
            pairs.reverse()
        keyed = [
            (ratio, sign, scale)
            for ratio, minus, plus in pairs
            for sign, scale in ((-1, minus), (1, plus))
        ]
    families = tuple(
        GeometricAtomFamily(scale, ratio, q, sign) for ratio, sign, scale in keyed if ratio != 0
    )
    return DiscreteSignedMeasure._prechecked(fld, (head,), families)


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


class PositivityVerdict(NamedTuple):
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

    Route one checks the atom-weight signs through the weight ratios: the
    signs of the integer triples of even, even + odd and even - odd.  Route
    two checks a >= b together with the polynomial forms of the two w
    thresholds (a*w^2 + a*b*w - b >= 0 and w^2 + w*(a+b)/2 - 1 >= 0, both
    equivalent to their square-root forms for w >= 0), decided in integers
    with the denominators of a, b and w cleared.  Any disagreement on their
    common domain is an InvariantError, not a verdict.
    """
    ratios = atom_ratios(params)
    even, odd = ratios.even_weight, ratios.odd_weight
    u = even.field.int_radicand
    (pe, re, de), (po, ro, do) = even.triple, odd.triple
    xp, xr, yp, yr = pe * do, re * do, po * de, ro * de  # both over de * do
    even_nonneg = surd_sign(pe, re, u) >= 0
    sum_nonneg = surd_sign(xp + yp, xr + yr, u) >= 0
    diff_nonneg = surd_sign(xp - yp, xr - yr, u) >= 0
    is_positive = even_nonneg and sum_nonneg and diff_nonneg

    an, ad = params.a.numerator, params.a.denominator
    bn, bd = params.b.numerator, params.b.denominator
    wn, wd = params.w.numerator, params.w.denominator
    a_ge_b = an * bd >= bn * ad
    # times a'b'w'^2 and 2a'b'w'^2 (a = an/a', b = bn/b', w = wn/w')
    w_even = an * wn * (bd * wn + bn * wd) >= bn * ad * wd * wd
    w_order = wn * (2 * ad * bd * wn + (an * bd + bn * ad) * wd) >= 2 * ad * bd * wd * wd

    if even_nonneg != w_even:
        raise InvariantError(
            f"even-ratio sign and its w threshold disagree at {params}"
        )
    if diff_nonneg != w_order:
        raise InvariantError(
            f"ratio ordering and its w threshold disagree at {params}"
        )
    if wn > 0:
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
