"""Convergents and closed forms of periodic continued fractions.

A two-periodic continued fraction with partial denominators a, b > 0 and a
nonnegative tail seed w defines the truncation sequence

    s0 = w,  s1 = 1/(a+w),  s2 = 1/(a + 1/(b+w)),  ...

Each s_n is an exact rational N_n/D_n; the denominators obey a three-term
recurrence whose characteristic roots live in Q(sqrt(a^2*b^2 + 4*a*b)), which
is where the closed forms and limit values are computed.

Every periodic fraction, with any period list c_0..c_{k-1}, is evaluated by
one bottom-up recurrence (the fundamental recurrence for convergents): with
M_j = [[0, 1], [1, c_j]] and P_n = M_0 ... M_{n-1},

    N_n = P00*w + P01,  D_n = P10*w + P11,  s_n = N_n / D_n,

so all n_max + 1 truncations come from one linear pass.  P_n is carried as
an integer matrix over a running common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .exactnum import (
    DomainError,
    InvariantError,
    QuadElem,
    QuadField,
    Scalar,
)


class ParameterError(DomainError):
    """A continued-fraction parameter violates its positivity hypothesis."""


@dataclass(frozen=True)
class TwoPeriodicParams:
    """Validated parameter triple (a, b, w) with a, b > 0 and w >= 0."""

    a: Fraction
    b: Fraction
    w: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("a", "b", "w"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a <= 0:
            raise ParameterError(f"period a must be positive (a > 0), got {self.a}")
        if self.b <= 0:
            raise ParameterError(f"period b must be positive (b > 0), got {self.b}")
        if self.w < 0:
            raise ParameterError(f"seed w must be nonnegative (w >= 0), got {self.w}")

    @property
    def discriminant(self) -> Fraction:
        """The radicand a^2*b^2 + 4*a*b appearing in all closed forms."""
        ab = self.a * self.b
        return ab * ab + 4 * ab

    def field(self) -> QuadField:
        return QuadField(self.discriminant)


class Convergent(NamedTuple):
    numerator: Fraction
    denominator: Fraction
    value: Fraction


@dataclass(frozen=True)
class AtomRatios:
    """The three ratios driving the closed forms and the measure atoms.

    ``location`` is the root in (0, 1) of x^2 - (2+ab)x + 1; atom positions
    are its powers.  ``even_weight`` and ``odd_weight`` are the geometric
    weight ratios of the even- and odd-moment atom families; both lie in
    (-1, 1).
    """

    location: QuadElem
    even_weight: QuadElem
    odd_weight: QuadElem


def convergents(params: TwoPeriodicParams, n_max: int) -> List[Convergent]:
    """Exact convergents (N_n, D_n, s_n) for n = 0..n_max.

    N and D come from the period-map recurrence of the module docstring with
    the period list [a, b], so N0 = w, N1 = 1, D0 = 1, D1 = a + w.
    Denominators are provably positive; a nonpositive one would mean
    corrupted state and raises InvariantError.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    return [
        Convergent(Fraction(num, scale), Fraction(den, scale), Fraction(num, den))
        for num, den, scale in _period_map([params.a, params.b], params.w, n_max)
    ]


def _period_map(
    cycle: Sequence[Fraction], seed: Fraction, n_max: int
) -> Iterator[Tuple[int, int, int]]:
    """Integers (A_n, B_n, L_n) with N_n = A_n/L_n and D_n = B_n/L_n, n = 0..n_max.

    Each M_j is scaled by the denominator v_j of c_j = u_j/v_j into the
    integer matrix [[0, v_j], [v_j, u_j]], so the running product Q equals
    (v_0 ... v_{n-1}) * P_n; with w = p/q, L_n = q * v_0 ... v_{n-1}.
    """
    steps = [(c.numerator, c.denominator) for c in cycle]
    k = len(steps)
    p, q = seed.numerator, seed.denominator
    q00, q01, q10, q11 = 1, 0, 0, 1
    scale = q
    for n in range(n_max + 1):
        num = q00 * p + q01 * q
        den = q10 * p + q11 * q
        if den <= 0:
            raise InvariantError(
                f"denominator D_{n} = {Fraction(den, scale)} is not positive"
            )
        yield num, den, scale
        u, v = steps[n % k]
        q00, q01, q10, q11 = q01 * v, q00 * v + q01 * u, q11 * v, q10 * v + q11 * u
        scale *= v


def _contraction(params: TwoPeriodicParams, fld: QuadField) -> QuadElem:
    # root in (0,1) of x^2 - (2+ab)x + 1 = 0
    ab = params.a * params.b
    return fld.element((2 + ab) / 2, Fraction(-1, 2))


def atom_ratios(params: TwoPeriodicParams) -> AtomRatios:
    """Location and weight ratios, with their defining identities re-checked.

    Raises InvariantError if the computed values fail x^2-(2+ab)x+1 = 0,
    0 < location < 1, or |weight ratio| < 1 — all decided exactly.
    """
    fld = params.field()
    a, w = params.a, params.w
    ab = params.a * params.b
    loc = _contraction(params, fld)
    one = fld.one
    even = (loc * (a * w - (one - loc))) / (loc * a * w + one - loc)
    odd = (loc * a - (one - loc) * w) / (a + (one - loc) * w)
    if loc * loc - (2 + ab) * loc + 1 != 0:
        raise InvariantError("location ratio is not a root of x^2-(2+ab)x+1")
    if loc.sign() <= 0 or (one - loc).sign() <= 0:
        raise InvariantError("location ratio is not inside (0, 1)")
    for name, ratio in (("even", even), ("odd", odd)):
        if (one - ratio).sign() <= 0 or (one + ratio).sign() <= 0:
            raise InvariantError(f"{name} weight ratio is not inside (-1, 1)")
    return AtomRatios(location=loc, even_weight=even, odd_weight=odd)


def denominator_closed_form(params: TwoPeriodicParams, n: int) -> QuadElem:
    """D_n expressed through powers of the contraction ratio, for n >= -2.

    Even and odd indices each combine a growing and a decaying power; the
    result must always normalise to the rational produced by the recurrence.
    """
    if n < -2:
        raise DomainError("closed form is defined for n >= -2")
    fld = params.field()
    a, w = params.a, params.w
    q = _contraction(params, fld)
    one = fld.one
    denom = one - q * q
    aw = a * w
    if n % 2 == 0:
        m = n // 2
        grow = (one - q + q * aw) / denom
        decay = (q * (one - q - aw)) / denom
    else:
        m = (n - 1) // 2
        grow = (a + (one - q) * w) / denom
        decay = (q * ((one - q) * w - q * a)) / denom
    return grow * q ** (-m) + decay * q**m


def limit_value(params: TwoPeriodicParams) -> QuadElem:
    """The limit of the convergents: the positive root of a*x^2 + ab*x - b.

    The defining polynomial identity and the positivity of the root are
    re-verified exactly before returning.
    """
    fld = params.field()
    a, b = params.a, params.b
    x = fld.element(-b / 2, 1 / (2 * a))
    if a * x * x + (a * b) * x - b != 0:
        raise InvariantError("limit does not satisfy a*x^2 + ab*x - b = 0")
    if x.sign() != 1:
        raise InvariantError("limit is not the positive root")
    return x


def generalized_fibonacci(coeff: Scalar, n_max: int) -> List[Fraction]:
    """F_0..F_n_max with F_0 = 0, F_1 = 1, F_{n+1} = coeff*F_n + F_{n-1}.

    coeff = 1 gives the Fibonacci numbers, coeff = 2 the Pell numbers.
    F_{n+1} is the denominator D_n of the one-term period list [coeff] at
    w = 0, so these come from the period-map recurrence too.
    """
    c = Fraction(coeff)
    if c <= 0:
        raise ParameterError(f"recurrence coefficient must be positive, got {c}")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    tail = _period_map([c], Fraction(0), n_max - 1)
    return [Fraction(0)] + [Fraction(den, scale) for _, den, scale in tail]


def kperiodic_convergents(
    periods: Sequence[Scalar], w: Scalar, n_max: int
) -> List[Fraction]:
    """Truncations of the continued fraction whose denominators cycle through
    ``periods``, seeded with +w at the innermost level.

    Evaluated bottom-up by the period-map recurrence of the module docstring,
    in one pass linear in n_max; for a two-element period list this is
    exactly :func:`convergents`.
    """
    cycle = [Fraction(p) for p in periods]
    if not cycle:
        raise ParameterError("periods must be a nonempty list")
    if any(p <= 0 for p in cycle):
        raise ParameterError(f"all periods must be positive, got [{', '.join(map(str, cycle))}]")
    seed = Fraction(w)
    if seed < 0:
        raise ParameterError(f"seed w must be nonnegative (w >= 0), got {seed}")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    return [Fraction(num, den) for num, den, _ in _period_map(cycle, seed, n_max)]
