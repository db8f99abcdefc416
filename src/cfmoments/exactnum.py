"""Exact arithmetic over Q and over real quadratic extensions Q(sqrt(d)).

Everything in this package computes through two value types: stdlib
``fractions.Fraction`` for rationals (already canonical: reduced, positive
denominator) and :class:`QuadElem` for numbers ``p + r*sqrt(d)`` with
rational ``p, r`` and a fixed nonnegative rational radicand ``d``.  There is
no floating point anywhere; signs, comparisons and decimal renderings are
decided by exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Union

Scalar = Union[int, Fraction]


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class FieldMismatchError(ValueError):
    """Elements of quadratic fields with different radicands were combined."""


class InvariantError(RuntimeError):
    """An internal identity that must hold exactly failed to hold."""


def _sgn(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of ``x`` when it is the square of a rational, else None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn = isqrt(num)
    if rn * rn != num:
        return None
    rd = isqrt(den)
    if rd * rd != den:
        return None
    return Fraction(rn, rd)


class QuadField:
    """Arithmetic context for numbers ``p + r*sqrt(radicand)``.

    A radicand that is a perfect rational square degenerates the field to Q:
    elements are then folded to have zero surd part, so structural equality
    coincides with equality of values in every field.
    """

    __slots__ = ("radicand", "root")

    def __init__(self, radicand: Scalar) -> None:
        rad = Fraction(radicand)
        if rad < 0:
            raise DomainError(f"radicand must be nonnegative, got {rad}")
        self.radicand = rad
        self.root = rational_sqrt(rad)

    @property
    def is_degenerate(self) -> bool:
        """True when sqrt(radicand) is rational and the field is just Q."""
        return self.root is not None

    def element(self, rat: Scalar = 0, surd: Scalar = 0) -> QuadElem:
        return QuadElem(self, Fraction(rat), Fraction(surd))

    @property
    def zero(self) -> QuadElem:
        return self.element(0)

    @property
    def one(self) -> QuadElem:
        return self.element(1)

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
        if scale is None:
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


class QuadElem:
    """An element ``rat + surd*sqrt(radicand)`` of a fixed quadratic field.

    Values are normalised on construction (degenerate radicands fold into the
    rational part), every operation returns a normalised value, and equality
    is therefore both structural and mathematical.  Mixing radicands raises
    :class:`FieldMismatchError`; plain ints and Fractions coerce freely.
    """

    __slots__ = ("field", "rat", "surd")

    def __init__(self, field: QuadField, rat: Fraction, surd: Fraction) -> None:
        if surd != 0 and field.root is not None:
            rat = rat + surd * field.root
            surd = Fraction(0)
        self.field = field
        self.rat = rat
        self.surd = surd

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other: object) -> Optional[QuadElem]:
        if isinstance(other, QuadElem):
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

    def __add__(self, other: object) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.field, self.rat + o.rat, self.surd + o.surd)

    __radd__ = __add__

    def __sub__(self, other: object) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.field, self.rat - o.rat, self.surd - o.surd)

    def __rsub__(self, other: object) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QuadElem:
        return QuadElem(self.field, -self.rat, -self.surd)

    def __mul__(self, other: object) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rad = self.field.radicand
        return QuadElem(
            self.field,
            self.rat * o.rat + self.surd * o.surd * rad,
            self.rat * o.surd + self.surd * o.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadElem:
        """Multiplicative inverse via the conjugate: 1/(p+r*sqrt(d)) = (p-r*sqrt(d))/(p^2-r^2*d)."""
        norm = self.rat * self.rat - self.surd * self.surd * self.field.radicand
        if norm == 0:
            if self.rat == 0 and self.surd == 0:
                raise ZeroDivisionError("inverse of zero quadratic element")
            raise InvariantError(
                "zero norm for a nonzero element; radicand failed to fold"
            )
        return QuadElem(self.field, self.rat / norm, -self.surd / norm)

    def __truediv__(self, other: object) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> QuadElem:
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

    def __abs__(self) -> QuadElem:
        return -self if self.sign() < 0 else self

    # -- exact decisions ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of p + r*sqrt(d), decided by comparing p^2 against r^2*d."""
        p, r = self.rat, self.surd
        if r == 0:
            return _sgn(p)
        if p == 0:
            return _sgn(r)
        sp, sr = _sgn(p), _sgn(r)
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
        if isinstance(other, QuadElem):
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
            raise TypeError(f"cannot order QuadElem against {type(other)!r}")
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
            return _decimal_of_fraction(self.rat, digits)
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
            n_lo = _round_half_even(val_lo * scale)
            n_hi = _round_half_even(val_hi * scale)
            if n_lo == n_hi:
                return _format_scaled(n_lo, digits)
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


def _round_half_even(x: Fraction) -> int:
    """The integer nearest x, ties to even."""
    whole, rem = divmod(x.numerator, x.denominator)
    double = 2 * rem
    if double > x.denominator or (double == x.denominator and whole % 2 != 0):
        whole += 1
    return whole


def _decimal_of_fraction(x: Fraction, digits: int) -> str:
    return _format_scaled(_round_half_even(x * Fraction(10) ** digits), digits)


def _format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    magnitude = abs(n)
    whole, frac = divmod(magnitude, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def sign_of(x: Union[Scalar, QuadElem]) -> int:
    """Exact sign of a rational or quadratic-field value."""
    if isinstance(x, QuadElem):
        return x.sign()
    return _sgn(Fraction(x))


def decimal_string(x: Union[Scalar, QuadElem], digits: int) -> str:
    """Correctly rounded decimal rendering of a rational or QuadElem."""
    if isinstance(x, QuadElem):
        return x.decimal(digits)
    if digits < 1:
        raise DomainError("digits must be >= 1")
    return _decimal_of_fraction(Fraction(x), digits)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal strings into an exact Fraction.

    Decimal strings convert exactly ('0.5' -> 1/2); binary floats are never
    involved.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {text!r}") from exc
