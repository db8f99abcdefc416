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
an integer matrix over a running common denominator.  Past the first period
(k terms) the truncations jump: P_{n+k} = P_k*P_n, so with Pi the integer
multiple of P_k, s_{n+k} = (Pi00*x + Pi01*y)/(Pi10*x + Pi11*y) for s_n = x/y.
Pi's adjugate maps that pair back to det Pi * (x, y), so for coprime x, y its
gcd g divides |det Pi|, the squared product of the periods' denominators: a gcd
with that fixed integer, not with a growing one, reduces every value.

N_n and D_n jump with it: with N_n = A_n/L_n, D_n = B_n/L_n, t_n = gcd(A_n, B_n)
and V the product of the periods' denominators, t_{n+k} = g*t_n and L_{n+k} = V*L_n,
so rho_n = t_n/L_n jumps as rho_{n+k} = rho_n*g/V, whose content divides g*V.  With
rho_n = alpha/beta in lowest terms, N_n = alpha*x_n/beta and D_n = alpha*y_n/beta;
alpha is coprime to beta, so one gcd of x_n (or y_n) with beta <= L_n reduces each.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .exactnum import (
    DomainError,
    InvariantError,
    QuadElem,
    QuadField,
    Scalar,
    _coprime_fraction,
    _FrozenRecord,
    _quotient,
    _reduced,
    surd_sign,
)


class ParameterError(DomainError):
    """A continued-fraction parameter violates its positivity hypothesis."""


class TwoPeriodicParams(_FrozenRecord):
    """Validated parameter triple (a, b, w) with a, b > 0 and w >= 0."""

    __slots__ = ("a", "b", "w")
    a: Fraction
    b: Fraction
    w: Fraction

    def __init__(self, a: Scalar, b: Scalar, w: Scalar = Fraction(0)) -> None:
        # a Fraction is kept, not built again
        self._set(*[x if isinstance(x, Fraction) else Fraction(x) for x in (a, b, w)])
        if self.a.numerator <= 0:
            raise ParameterError(f"period a must be positive (a > 0), got {self.a}")
        if self.b.numerator <= 0:
            raise ParameterError(f"period b must be positive (b > 0), got {self.b}")
        if self.w.numerator < 0:
            raise ParameterError(f"seed w must be nonnegative (w >= 0), got {self.w}")

    @property
    def discriminant(self) -> Fraction:
        """The radicand a^2*b^2 + 4*a*b appearing in all closed forms: with
        ab = m/k in lowest terms, m(m + 4k)/k^2, also in lowest terms."""
        m, k = _product_terms(self)
        return Fraction(m * (m + 4 * k), k * k)

    def field(self) -> QuadField:
        return QuadField(self.discriminant)


def _product_terms(params: TwoPeriodicParams) -> Tuple[int, int]:
    """(m, k) with ab = m/k in lowest terms."""
    m = params.a.numerator * params.b.numerator
    k = params.a.denominator * params.b.denominator
    g = gcd(m, k)
    return m // g, k // g


class Convergent(NamedTuple):
    numerator: Fraction
    denominator: Fraction
    value: Fraction


class AtomRatios(NamedTuple):
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

    All three come from the period-map recurrence of the module docstring with
    the period list [a, b] (N0 = w, N1 = 1, D0 = 1, D1 = a + w) and its jump.
    Denominators are provably positive (past the first period D_n = rho_n*y_n
    with rho_n > 0 and the jump's y_n > 0); a nonpositive one would mean
    corrupted state and raises InvariantError.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    return [
        Convergent(_scaled(x, alpha, beta), _scaled(y, alpha, beta), _coprime_fraction(x, y))
        for x, y, alpha, beta in _scaled_rows([params.a, params.b], params.w, n_max)
    ]


def _scaled(x: int, alpha: int, beta: int) -> Fraction:
    """alpha*x/beta for coprime alpha and beta > 0, in lowest terms by one gcd with beta."""
    g = gcd(x, beta)
    return _coprime_fraction(alpha * (x // g), beta // g)


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
        num, den = q00 * p + q01 * q, q10 * p + q11 * q
        if den <= 0:
            raise InvariantError(f"denominator D_{n} = {Fraction(den, scale)} is not positive")
        yield num, den, scale
        u, v = steps[n % k]
        q00, q01, q10, q11 = q01 * v, q00 * v + q01 * u, q11 * v, q10 * v + q11 * u
        scale *= v


def _truncations(cycle: Sequence[Fraction], seed: Fraction, n_max: int) -> List[Tuple[int, ...]]:
    """(x_n, y_n, g_n) for n = 0..n_max: s_n = x_n/y_n in lowest terms, y_n > 0, and
    the gcd g_n divided out: t_n = gcd(A_n, B_n) of ``_period_map`` over the first
    period, the jump's gcd past it, so t_n = g_n*t_{n-k}."""
    k = len(cycle)
    rows = []
    for num, den, _ in _period_map(cycle, seed, min(n_max, k - 1)):
        g = gcd(num, den)
        rows.append((num // g, den // g, g))
    p00, p01, p10, p11 = 1, 0, 0, 1
    for c in cycle:
        u, v = c.numerator, c.denominator
        p00, p01, p10, p11 = p01 * v, p00 * v + p01 * u, p11 * v, p10 * v + p11 * u
    det = abs(p00 * p11 - p01 * p10)
    for n in range(k, n_max + 1):
        x, y, _ = rows[n - k]
        num, den = p00 * x + p01 * y, p10 * x + p11 * y
        if den <= 0:
            raise InvariantError(f"denominator of s_{n} = {num}/{den} is not positive")
        g = gcd(det, num, den)
        rows.append((num // g, den // g, g) if g > 1 else (num, den, 1))
    return rows


def _scaled_rows(cycle: Sequence[Fraction], seed: Fraction, n_max: int) -> List[Tuple[int, ...]]:
    """(x_n, y_n, alpha_n, beta_n) for n = 0..n_max: rho_n = alpha_n/beta_n in lowest
    terms is t_n/L_n over the first period and rho_{n-k}*g_n/V past it."""
    k = len(cycle)
    scale = seed.denominator  # L_n over the first period
    period = prod(c.denominator for c in cycle)  # V
    rows = []
    for n, (x, y, g) in enumerate(_truncations(cycle, seed, n_max)):
        if n < k:
            alpha, beta, h = g, scale, gcd(g, scale)
            scale *= cycle[n].denominator
        else:
            alpha, beta = rows[n - k][2] * g, rows[n - k][3] * period
            h = gcd(g * period, alpha, beta)
        rows.append((x, y, alpha // h, beta // h))
    return rows


def _contraction(params: TwoPeriodicParams, fld: QuadField) -> QuadElem:
    """The root in (0, 1) of x^2 - (2+ab)x + 1, in the field of ``params``:
    with ab = m/k in lowest terms, ((2k + m)k - sqrt(U))/(2k^2) over the
    integer radicand U = m(m + 4k)k^2, a triple already reduced unless the
    field is degenerate."""
    m, k = _product_terms(params)
    if fld.root is None:
        return QuadElem(fld, (2 * k + m) * k, -1, 2 * k * k, 1)
    return QuadElem(fld, (2 * k + m) * k - isqrt(fld.int_radicand), 0, 2 * k * k, 2 * k * k)


def atom_ratios(params: TwoPeriodicParams) -> AtomRatios:
    """Location and weight ratios, with their defining identities re-checked.

    With the location q = (p + r*sqrt(U))/d, a = an/ad and w = wn/wd, each
    weight ratio is one conjugate division of integer triples:

        even = q(aw - (1 - q)) / (q*aw + 1 - q),
        odd  = (q*a - (1 - q)w) / (a + (1 - q)w).

    Raises InvariantError if the computed values fail x^2-(2+ab)x+1 = 0,
    0 < location < 1, or |weight ratio| < 1 — all decided exactly, on the
    triples, by ``surd_sign``.
    """
    fld = params.field()
    u = fld.int_radicand
    loc = _contraction(params, fld)
    p, r, d = loc.triple
    an, ad = params.a.numerator, params.a.denominator
    wn, wd = params.w.numerator, params.w.denominator
    # even = X/(d*Y), with aw = aw_n/aw_d: X is its numerator times aw_d*d^2,
    # Y its denominator times aw_d*d
    aw_n, aw_d = an * wn, ad * wd
    tp, tr = aw_n * d - aw_d * (d - p), aw_d * r
    even = _quotient(
        p * tp + r * tr * u,
        p * tr + r * tp,
        d * (aw_n * p + aw_d * (d - p)),
        d * (aw_n - aw_d) * r,
        u,
    )
    # odd: numerator and denominator both times ad*wd*d
    a_w, w_a = an * wd, wn * ad
    odd = _quotient(p * a_w - (d - p) * w_a, r * (a_w + w_a), a_w * d + w_a * (d - p), -w_a * r, u)
    m, k = _product_terms(params)
    # k*d^2 * (q^2 - (2 + m/k)q + 1), part by part
    if k * (p * p + r * r * u + d * d) != (2 * k + m) * d * p or r * (2 * k * p - (2 * k + m) * d):
        raise InvariantError("location ratio is not a root of x^2-(2+ab)x+1")
    if surd_sign(p, r, u) <= 0 or surd_sign(d - p, -r, u) <= 0:
        raise InvariantError("location ratio is not inside (0, 1)")
    ratios = [_reduced(fld, even), _reduced(fld, odd)]
    for name, ratio in zip(("even", "odd"), ratios):
        p, r, d = ratio.triple
        if surd_sign(d - p, -r, u) <= 0 or surd_sign(d + p, r, u) <= 0:
            raise InvariantError(f"{name} weight ratio is not inside (-1, 1)")
    return AtomRatios(loc, *ratios)


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
    w = 0, so these come from the period-map recurrence and its jump too.
    """
    c = Fraction(coeff)
    if c <= 0:
        raise ParameterError(f"recurrence coefficient must be positive, got {c}")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    tail = _scaled_rows([c], Fraction(0), n_max - 1)
    return [Fraction(0)] + [_scaled(y, alpha, beta) for _, y, alpha, beta in tail]


def kperiodic_convergents(
    periods: Sequence[Scalar], w: Scalar, n_max: int
) -> List[Fraction]:
    """Truncations of the continued fraction whose denominators cycle through
    ``periods``, seeded with +w at the innermost level.

    Evaluated bottom-up by the period-map recurrence of the module docstring
    for the first period and by its one-period jump after that, in one pass
    linear in n_max; for a two-element period list this is exactly the
    ``value`` of :func:`convergents`.
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
    return [_coprime_fraction(x, y) for x, y, _ in _truncations(cycle, seed, n_max)]
