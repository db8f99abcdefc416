"""Exact arithmetic over Q and over real quadratic extensions Q(sqrt(d)).

Everything in this package computes through two value types: stdlib
``fractions.Fraction`` for rationals (already canonical: reduced, positive
denominator) and :class:`QuadElem` for numbers ``p + r*sqrt(d)`` with
rational ``p, r`` and a fixed nonnegative rational radicand ``d = u/v``.

A QuadElem is stored as one reduced integer triple ``(P, R, D)`` with value
``(P + R*sqrt(U))/D``, where ``U = u*v`` is the field's integer radicand
(``sqrt(u/v) = sqrt(U)/v``).  ``D > 0`` and ``gcd(D, P, R) = 1``, and
``R = 0`` whenever ``U`` is a perfect square, so every value has exactly one
triple.  An operation costs integer products and gcds of bounded size: a
sum is reduced only by a factor of gcd(D1, D2), a product only by one its
smaller factor's norm allows.  There is no floating point anywhere; signs,
comparisons and decimal renderings are decided by exact integer arithmetic.

The integer kernels of ``cfrac`` and ``measures`` work on such triples
unreduced, through ``_times``, ``_plus`` and ``_quotient``, and reduce each
value they return once, by ``_reduced``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Any, Callable, Optional, Tuple, Union

Scalar = Union[int, Fraction]


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class FieldMismatchError(ValueError):
    """Elements of quadratic fields with different radicands were combined."""


class InvariantError(RuntimeError):
    """An internal identity that must hold exactly failed to hold."""


class _FrozenRecord:
    """Fields in ``__slots__``, set once by the constructor through ``_set``;
    ``==``, hash, repr and pickle go by field; setting or deleting raises AttributeError."""

    __slots__ = ()

    def _set(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of ``x`` when it is the square of a rational, else None."""
    if x.numerator < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def surd_sign(p: int, r: int, u: int) -> int:
    """Exact sign of p + r*sqrt(u) for integers p, r and u >= 0, decided by
    comparing p^2 against r^2*u; u must not be a perfect square unless r = 0."""
    sp, sr = (p > 0) - (p < 0), (r > 0) - (r < 0)
    if sp * sr >= 0:
        return sp or sr
    gap = p * p - r * r * u
    if gap == 0:
        raise InvariantError("p^2 == r^2*d with r != 0: radicand failed to fold")
    return sp if gap > 0 else sr


def surd_norm(p: int, r: int, u: int) -> int:
    """The norm p^2 - r^2*u of p + r*sqrt(u), for an element about to be
    inverted: a zero element raises ZeroDivisionError, and a nonzero one of
    norm 0 (u a perfect square with r != 0) raises InvariantError."""
    norm = p * p - r * r * u
    if norm == 0:
        if p == 0 and r == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        raise InvariantError("zero norm for a nonzero element; radicand failed to fold")
    return norm


_Triple = Tuple[int, int, int]


def _times(x: _Triple, y: _Triple, u: int) -> _Triple:
    """The product of two triples (P, R, D) over the radicand u, unreduced."""
    (p1, r1, d1), (p2, r2, d2) = x, y
    return p1 * p2 + r1 * r2 * u, p1 * r2 + r1 * p2, d1 * d2


def _plus(x: _Triple, y: _Triple) -> _Triple:
    """The sum of two triples (P, R, D), over the product of their D, unreduced."""
    (p1, r1, d1), (p2, r2, d2) = x, y
    return p1 * d2 + p2 * d1, r1 * d2 + r2 * d1, d1 * d2


def _quotient(xp: int, xr: int, yp: int, yr: int, u: int) -> _Triple:
    """x/y = x*conj(y)/N(y) for x = xp + xr*sqrt(u) and y = yp + yr*sqrt(u),
    as an unreduced triple whose D = |N(y)| > 0.  N(y) = 0 raises as
    ``QuadElem.inverse`` does."""
    norm = surd_norm(yp, yr, u)
    p, r = xp * yp - xr * yr * u, xr * yp - xp * yr
    return (p, r, norm) if norm > 0 else (-p, -r, -norm)


def _reduced(fld: QuadField, x: _Triple) -> QuadElem:
    """The triple (P, R, D), D > 0, as a reduced element of ``fld``."""
    return QuadElem(fld, x[0], x[1], x[2], x[2])


class QuadField:
    """Arithmetic context for numbers ``p + r*sqrt(radicand)``.

    A radicand that is a perfect rational square degenerates the field to Q:
    elements are then folded to have zero surd part, so structural equality
    coincides with equality of values in every field.
    """

    __slots__ = ("radicand", "root", "_int_radicand")

    def __init__(self, radicand: Scalar) -> None:
        rad = radicand if isinstance(radicand, Fraction) else Fraction(radicand)
        if rad.numerator < 0:
            raise DomainError(f"radicand must be nonnegative, got {rad}")
        self.radicand = rad
        self.root = rational_sqrt(rad)
        self._int_radicand = rad.numerator * rad.denominator

    @property
    def int_radicand(self) -> int:
        """U = u*v for the radicand u/v, so that sqrt(u/v) = sqrt(U)/v."""
        return self._int_radicand

    @property
    def is_degenerate(self) -> bool:
        """True when sqrt(radicand) is rational and the field is just Q."""
        return self.root is not None

    def element(self, rat: Scalar = 0, surd: Scalar = 0) -> QuadElem:
        """The element rat + surd*sqrt(radicand), folded to Q when the radicand is a square."""
        rat, surd = Fraction(rat), Fraction(surd) / self.radicand.denominator
        d = lcm(rat.denominator, surd.denominator)
        p = rat.numerator * (d // rat.denominator)
        r = surd.numerator * (d // surd.denominator)
        if self.root is None:
            return QuadElem(self, p, r, d, 1)
        return QuadElem(self, p + r * isqrt(self._int_radicand), 0, d, d)

    @property
    def zero(self) -> QuadElem:
        return QuadElem(self, 0, 0, 1, 1)

    @property
    def one(self) -> QuadElem:
        return QuadElem(self, 1, 0, 1, 1)

    def sqrt(self, x: Scalar) -> QuadElem:
        """sqrt(x) as a field element, for x >= 0 with radicand/x a rational square.

        Allows writing values like sqrt(7) inside Q(sqrt(252)), where
        sqrt(252) = 6*sqrt(7).
        """
        frac = Fraction(x)
        if frac < 0:
            raise DomainError(f"cannot take sqrt of negative {frac}")
        direct = rational_sqrt(frac)
        if direct is not None:
            return self.element(direct)
        scale = rational_sqrt(self.radicand / frac)
        if not scale:
            raise DomainError(
                f"sqrt({frac}) does not lie in Q(sqrt({self.radicand}))"
            )
        return self.element(0, 1 / scale)

    def __repr__(self) -> str:
        return f"QuadField({self.radicand})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadField):
            return self.radicand == other.radicand
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QuadField", self.radicand))


def _coerced(op: Callable[[QuadElem, QuadElem], Any]) -> Callable[[QuadElem, object], Any]:
    """An operator method whose other operand arrives in self's field: ints and
    Fractions coerce, another radicand raises FieldMismatchError, else NotImplemented."""

    def method(self: QuadElem, other: object) -> Any:
        if isinstance(other, QuadElem):
            if other.field is not self.field and other.field.radicand != self.field.radicand:
                raise FieldMismatchError(
                    f"cannot combine sqrt({self.field.radicand}) with "
                    f"sqrt({other.field.radicand}) elements"
                )
        elif isinstance(other, (int, Fraction)):
            other = QuadElem(self.field, other.numerator, 0, other.denominator, 1)
        else:
            return NotImplemented
        return op(self, other)

    return method


class QuadElem:
    """An element ``rat + surd*sqrt(radicand)`` of a fixed quadratic field.

    Stored as the reduced triple ``(P, R, D)`` of the module docstring, with
    the read-only Fractions ``rat = P/D`` and ``surd = R*v/D`` (radicand
    ``u/v``).  Every operation returns a reduced triple, so equality is both
    structural and mathematical.  Mixing radicands raises
    :class:`FieldMismatchError`; plain ints and Fractions coerce freely.
    """

    __slots__ = ("field", "_p", "_r", "_d")

    def __init__(self, field: QuadField, p: int, r: int, d: int, bound: int) -> None:
        """(p + r*sqrt(U))/d for d > 0, divided by gcd(bound, p, r).

        ``bound`` divides d and is a multiple of gcd(d, p, r): d itself, less
        where the operation knows better, 1 for a triple already reduced.
        """
        if bound != 1:
            g = gcd(bound, p, r)
            if g != 1:
                p, r, d = p // g, r // g, d // g
        self.field, self._p, self._r, self._d = field, p, r, d

    @property
    def rat(self) -> Fraction:
        """The rational part p of p + r*sqrt(radicand)."""
        return Fraction(self._p, self._d)

    @property
    def surd(self) -> Fraction:
        """The coefficient r of sqrt(radicand) in p + r*sqrt(radicand)."""
        return Fraction(self._r * self.field.radicand.denominator, self._d)

    @property
    def triple(self) -> Tuple[int, int, int]:
        """The reduced integer triple (P, R, D): the value is (P + R*sqrt(U))/D."""
        return self._p, self._r, self._d

    # -- ring operations ---------------------------------------------------

    @_coerced
    def __add__(self, o: QuadElem) -> QuadElem:
        return self._plus(o._p, o._r, o._d)

    __radd__ = __add__

    @_coerced
    def __sub__(self, o: QuadElem) -> QuadElem:
        return self._plus(-o._p, -o._r, o._d)

    @_coerced
    def __rsub__(self, o: QuadElem) -> QuadElem:
        return o - self

    def _plus(self, p2: int, r2: int, d2: int) -> QuadElem:
        """self + (p2 + r2*sqrt(U))/d2 by Knuth's fraction addition (TAOCP
        vol. 2, 4.5.1): with g = gcd(D, d2), only a factor of g can be common
        to the sum and lcm(D, d2), so the sum is reduced by gcd(g, P, R)."""
        d1 = self._d
        g = gcd(d1, d2)
        e1, e2 = d1 // g, d2 // g
        return QuadElem(self.field, self._p * e2 + p2 * e1, self._r * e2 + r2 * e1, d1 * e2, g)

    def __neg__(self) -> QuadElem:
        return QuadElem(self.field, -self._p, -self._r, self._d, 1)

    @_coerced
    def __mul__(self, o: QuadElem) -> QuadElem:
        big, small = (self, o) if self._d.bit_length() >= o._d.bit_length() else (o, self)
        p1, r1, d1, p2, r2, d2 = big._p, big._r, big._d, small._p, small._r, small._d
        u = self.field._int_radicand
        # A prime of d1 divides the product's content at most as often as the
        # small factor's norm N = p2^2 - r2^2*U, so the gcd with d1*d2 divides
        # d2*gcd(d1, N): its cost follows the small factor, not the product.
        bound = d2 * gcd(d1, p2 * p2 - r2 * r2 * u)
        return QuadElem(self.field, p1 * p2 + r1 * r2 * u, p1 * r2 + r1 * p2, d1 * d2, bound)

    __rmul__ = __mul__

    def inverse(self) -> QuadElem:
        """Multiplicative inverse via the conjugate: D/(P+R*sqrt(U)) = D*(P-R*sqrt(U))/(P^2-R^2*U)."""
        p, r, d = self._p, self._r, self._d
        norm = surd_norm(p, r, self.field._int_radicand)
        if norm < 0:
            norm, d = -norm, -d
        return QuadElem(self.field, d * p, -d * r, norm, norm)

    @_coerced
    def __truediv__(self, o: QuadElem) -> QuadElem:
        return self * o.inverse()

    @_coerced
    def __rtruediv__(self, o: QuadElem) -> QuadElem:
        return o * self.inverse()

    def __pow__(self, exponent: int) -> QuadElem:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __abs__(self) -> QuadElem:
        return -self if self.sign() < 0 else self

    # -- exact decisions ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of (P + R*sqrt(U))/D: the sign of P + R*sqrt(U), as D > 0."""
        return surd_sign(self._p, self._r, self.field._int_radicand)

    @property
    def is_rational(self) -> bool:
        return self._r == 0

    def as_fraction(self) -> Fraction:
        if self._r != 0:
            raise DomainError(f"{self} has a nonzero surd part")
        return Fraction(self._p, self._d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadElem):
            if (self._r or other._r) and other.field.radicand != self.field.radicand:
                raise FieldMismatchError(
                    "equality across different radicands is only defined for "
                    "rational-valued elements"
                )
            return (self._p, self._r, self._d) == (other._p, other._r, other._d)
        if isinstance(other, (int, Fraction)):
            return self._r == 0 and (self._p, self._d) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if self._r == 0:
            return hash(Fraction(self._p, self._d))
        return hash((self._p, self._r, self._d, self.field.radicand))

    @_coerced
    def __lt__(self, o: QuadElem) -> bool:
        return (self - o).sign() < 0

    @_coerced
    def __le__(self, o: QuadElem) -> bool:
        return (self - o).sign() <= 0

    @_coerced
    def __gt__(self, o: QuadElem) -> bool:
        return (self - o).sign() > 0

    @_coerced
    def __ge__(self, o: QuadElem) -> bool:
        return (self - o).sign() >= 0

    # -- rendering ----------------------------------------------------------

    def decimal(self, digits: int) -> str:
        """Correctly rounded decimal expansion with ``digits`` fractional digits.

        Rounded half-to-even from exact data.  An irrational value has no
        ties, so with S = 10^digits it rounds to floor((A + sqrt(B)) / C) for
        R > 0 and floor((A - sqrt(B)) / C) for R < 0, where A = 2PS + D,
        B = 4R^2 S^2 U and C = 2D.  sqrt(B) lies strictly between isqrt(B)
        and isqrt(B) + 1, so replacing it by isqrt(B), or by isqrt(B) + 1
        when subtracted, leaves the floor unchanged: one isqrt decides it.
        """
        if digits < 1:
            raise DomainError("digits must be >= 1")
        p, r, d = self._p, self._r, self._d
        if r == 0:
            return _decimal_of_ratio(p, d, digits)
        scale = 10**digits
        top = 2 * p * scale + d
        root = isqrt(4 * r * r * scale * scale * self.field._int_radicand)
        shift = root if r > 0 else -root - 1
        return _format_scaled((top + shift) // (2 * d), digits)

    def __str__(self) -> str:
        """``rat``, ``surd*sqrt(radicand)`` or ``rat +/- |surd|*sqrt(radicand)``,
        each part written as its Fraction would be, from the triple."""
        p, r, d = self._p, self._r, self._d
        if r == 0:
            return _ratio_text(p, d)
        rad = self.field.radicand
        surd_txt = f"{_ratio_text(abs(r) * rad.denominator, d)}*sqrt({rad})"
        if p == 0:
            return surd_txt if r > 0 else f"-{surd_txt}"
        op = "+" if r > 0 else "-"
        return f"{_ratio_text(p, d)} {op} {surd_txt}"

    def __repr__(self) -> str:
        return f"QuadElem({self.rat!r}, {self.surd!r}, sqrt={self.field.radicand!r})"


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, from one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _round_half_even(num: int, den: int) -> int:
    """The integer nearest num/den (den > 0), ties to even."""
    whole, rem = divmod(num, den)
    double = 2 * rem
    if double > den or (double == den and whole % 2 != 0):
        whole += 1
    return whole


def _decimal_of_ratio(num: int, den: int, digits: int) -> str:
    return _format_scaled(_round_half_even(num * 10**digits, den), digits)


def _format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def decimal_string(x: Union[Scalar, QuadElem], digits: int) -> str:
    """Correctly rounded decimal rendering of a rational or QuadElem."""
    if isinstance(x, QuadElem):
        return x.decimal(digits)
    if digits < 1:
        raise DomainError("digits must be >= 1")
    frac = x if isinstance(x, Fraction) else Fraction(x)
    return _decimal_of_ratio(frac.numerator, frac.denominator, digits)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal strings into an exact Fraction.

    Decimal strings convert exactly ('0.5' -> 1/2); binary floats are never
    involved.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {text!r}") from exc
