import copy
import operator
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfmoments.exactnum import (
    DomainError,
    FieldMismatchError,
    InvariantError,
    QuadField,
    decimal_string,
    parse_rational,
    _coprime_fraction,
    rational_sqrt,
)

from helpers import PairField

RADICANDS = [F(2), F(5), F(7), F(45), F(252), F(64, 9)]

parts = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def field_elements(draw, count=1):
    fld = QuadField(draw(st.sampled_from(RADICANDS)))
    return tuple(fld.element(draw(parts), draw(parts)) for _ in range(count))


def test_fraction_keeps_the_two_slots_the_coprime_constructor_sets():
    assert F.__slots__ == ("_numerator", "_denominator")


@given(st.integers(), st.integers(min_value=1), st.fractions(max_denominator=50))
@example(0, 7, F(1))
@example(-(10**40), 3**50, F(-2, 3))
def test_coprime_fraction_is_the_reduced_fraction(num, den, other):
    g = gcd(num, den)
    num, den = num // g, den // g
    got, want = _coprime_fraction(num, den), F(num, den)
    assert type(got) is F and (got.numerator, got.denominator) == (num, den)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    for back in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
        assert type(back) is F and repr(back) == repr(want)
    for op in (operator.add, operator.sub, operator.mul, operator.lt, operator.eq):
        assert op(got, other) == op(want, other) and op(other, got) == op(other, want)
    if other:
        assert got / other == want / other
    for op in (operator.neg, abs, int, round, lambda x: x**3):
        assert op(got) == op(want)


def test_field_detects_perfect_squares():
    assert not QuadField(5).is_degenerate
    fld = QuadField(F(64, 9))
    assert fld.is_degenerate
    assert fld.root == F(8, 3)
    assert QuadField(0).is_degenerate


def test_fields_print_compare_and_hash_by_radicand():
    fld = QuadField(F(20, 4))
    assert repr(fld) == "QuadField(5)" and repr(QuadField(F(64, 9))) == "QuadField(64/9)"
    assert fld == QuadField(5) and hash(fld) == hash(QuadField(5))
    assert fld != QuadField(7)
    assert len({fld, QuadField(5), QuadField(7)}) == 2
    # anything but a field is left to the other operand, so it compares unequal
    assert fld.__eq__(5) is NotImplemented
    assert fld != 5 and fld != F(5) and fld != "QuadField(5)"


def test_negative_radicand_rejected():
    with pytest.raises(DomainError):
        QuadField(-1)


def test_rational_sqrt():
    assert rational_sqrt(F(64, 9)) == F(8, 3)
    assert rational_sqrt(F(4)) == 2
    assert rational_sqrt(F(5)) is None
    assert rational_sqrt(F(-4)) is None


def test_degenerate_elements_fold():
    fld = QuadField(F(64, 9))
    x = fld.element(1, F(3, 8))
    assert x.surd == 0
    assert x == 2


def test_conjugate_product():
    fld = QuadField(5)
    left = fld.element(1, 1)
    right = fld.element(1, -1)
    assert left * right == -4


def test_contraction_and_inverse_multiply_to_one():
    # the two roots of x^2 - 3x + 1 multiply to 1
    fld = QuadField(5)
    small = fld.element(F(3, 2), F(-1, 2))
    large = fld.element(F(3, 2), F(1, 2))
    assert small * large == 1
    assert small.inverse() == large


def test_division_by_zero():
    fld = QuadField(5)
    with pytest.raises(ZeroDivisionError):
        fld.one / fld.zero


def test_sqrt_embedding():
    fld = QuadField(252)
    assert fld.sqrt(7) == fld.element(0, F(1, 6))
    assert fld.sqrt(4) == 2
    with pytest.raises(DomainError):
        fld.sqrt(5)
    with pytest.raises(DomainError):
        fld.sqrt(-1)


def test_sqrt_in_the_zero_radicand_field():
    fld = QuadField(0)
    assert fld.sqrt(F(9, 4)) == F(3, 2)
    assert fld.sqrt(0) == 0
    for x in (2, F(1, 3)):  # radicand/x is the square 0, which has no inverse
        with pytest.raises(DomainError, match="does not lie in"):
            fld.sqrt(x)


def test_sign_examples():
    fld = QuadField(5)
    assert fld.element(-2, 1).sign() == 1
    small_root = fld.element(F(3, 2), F(-1, 2))  # (3 - sqrt(5))/2 < 1
    assert (small_root - 1).sign() == -1
    assert fld.zero.sign() == 0


def test_decimal_examples():
    fld = QuadField(5)
    golden = fld.element(F(-1, 2), F(1, 2))
    assert golden.decimal(6) == "0.618034"
    assert decimal_string(F(1, 3), 4) == "0.3333"
    fld252 = QuadField(252)
    euler = fld252.element(F(-7, 2), F(1, 4))
    assert euler.decimal(6) == "0.468627"
    assert (-golden).decimal(3) == "-0.618"


@given(field_elements(), st.integers(min_value=1, max_value=30))
def test_decimal_string_of_a_quadelem_is_its_decimal(elems, digits):
    (x,) = elems
    assert decimal_string(x, digits) == x.decimal(digits)


class _ReflectedPower:
    """An exponent that only ``**``'s reflected method can take."""

    def __rpow__(self, base):
        return "reflected"


def test_quadelem_operators_leave_foreign_operands_to_python():
    q = QuadField(5).element(F(1, 2), F(1, 2))
    # each operator returns NotImplemented, so Python's own TypeError names both types
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+: 'QuadElem' and 'str'"):
        q + "x"
    with pytest.raises(TypeError, match=r"for \*\* or pow\(\): 'QuadElem' and 'float'"):
        q ** 0.5
    assert q ** _ReflectedPower() == "reflected"
    assert (q == "x") is False and (q != "x") is True


def test_decimal_rounds_half_to_even_on_rationals():
    assert decimal_string(F(1, 8), 2) == "0.12"
    assert decimal_string(F(3, 8), 2) == "0.38"
    assert decimal_string(F(1, 4), 1) == "0.2"
    assert decimal_string(F(3, 4), 1) == "0.8"
    assert decimal_string(F(-1, 4), 1) == "-0.2"


def test_parse_rational():
    assert parse_rational("7/2") == F(7, 2)
    assert parse_rational("2") == 2
    assert parse_rational("0.5") == F(1, 2)
    with pytest.raises(DomainError):
        parse_rational("one half")
    with pytest.raises(DomainError):
        parse_rational("1/0")


def test_mixed_fields_do_not_combine():
    a = QuadField(5).element(1, 1)
    b = QuadField(7).element(1, 1)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a == b
    # rational-valued elements compare fine across fields
    assert QuadField(5).element(3) == QuadField(7).element(3)


def test_string_form():
    fld = QuadField(5)
    assert str(fld.element(F(3, 2), F(-1, 2))) == "3/2 - 1/2*sqrt(5)"
    assert str(fld.element(0, F(1, 6))) == "1/6*sqrt(5)"
    assert str(fld.element(F(2, 3))) == "2/3"


@given(field_elements(count=3))
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(field_elements(count=1))
def test_inverse_roundtrip(xs):
    (x,) = xs
    if x.sign() == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        inv = x.inverse()
        assert x * inv == inv * x == 1
        assert x / x == 1
        p, r, d = inv.triple  # the one reduced triple of its value
        assert d > 0 and gcd(d, p, r) == 1
        assert r == 0 or not x.field.is_degenerate


@given(field_elements(count=2))
def test_sign_is_multiplicative(xy):
    x, y = xy
    assert (x * y).sign() == x.sign() * y.sign()


@given(field_elements(count=1))
@settings(max_examples=60)
def test_sign_agrees_with_decimal(xs):
    (x,) = xs
    s = x.sign()
    digits = 6
    while True:
        value = F(x.decimal(digits))
        if value != 0 or s == 0:
            break
        digits += 12
        assert digits < 200, "decimal refused to reveal a nonzero value"
    assert (value > 0) - (value < 0) == s


@given(field_elements(count=1), st.integers(min_value=-3, max_value=5),
       st.integers(min_value=-3, max_value=5))
def test_power_laws(xs, m, n):
    (x,) = xs
    if x.sign() == 0 and (m < 0 or n < 0):
        return
    assert x ** (m + n) == x**m * x**n


@given(field_elements(count=2))
def test_order_consistent_with_sign(xy):
    x, y = xy
    assert (x < y) == ((x - y).sign() < 0)
    assert (x > y) == ((x - y).sign() > 0)
    assert (x == y) == ((x - y).sign() == 0)


@given(field_elements(count=1))
def test_rational_valued_elements_hash_like_fractions(xs):
    (x,) = xs
    if x.is_rational:
        assert x == x.rat
        assert hash(x) == hash(x.rat)
        assert x.as_fraction() == x.rat
    else:
        with pytest.raises(DomainError):
            x.as_fraction()


@given(field_elements(count=1))
def test_decimal_agrees_with_enclosure_width(xs):
    # successive renderings only append digits consistently
    (x,) = xs
    short = x.decimal(4)
    long = x.decimal(9)
    assert abs(F(short) - F(long)) <= F(1, 10**4)


# -- integer triples against the two-Fraction oracle ---------------------------

# integer, non-integer rational, perfect-square (folding) and zero radicands
ORACLE_RADICANDS = [F(2), F(5), F(45), F(252), F(7, 4), F(5, 9), F(2, 3), F(64, 9), F(4), F(0)]
ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)
# large parts push decimal()'s rounding through large integers
oracle_parts = st.one_of(
    parts, st.fractions(min_value=-10**15, max_value=10**15, max_denominator=1000)
)


@st.composite
def oracle_pairs(draw, count=2):
    """``count`` (QuadElem, oracle) pairs of equal value over one radicand."""
    radicand = draw(st.sampled_from(ORACLE_RADICANDS))
    fld, oracle = QuadField(radicand), PairField(radicand)
    values = [(draw(oracle_parts), draw(oracle_parts)) for _ in range(count)]
    return [(fld.element(*v), oracle.element(*v)) for v in values]


def assert_same(x, oracle):
    assert (x.rat, x.surd) == (oracle.rat, oracle.surd)
    # == compares triples, so this also checks that x's triple is reduced
    assert x == x.field.element(oracle.rat, oracle.surd)
    assert (str(x), repr(x)) == (str(oracle), repr(oracle))
    assert x.is_rational == (oracle.surd == 0)


@given(oracle_pairs())
def test_equal_values_hash_equal_whatever_the_path(pairs):
    (x, _), (y, _) = pairs
    assert hash((x + y) - y) == hash(x)
    assert hash(x.field.element(x.rat, x.surd)) == hash(x)
    if y != 0:
        assert hash(x * y / y) == hash(x)


def assert_same_outcome(compute, oracle_compute):
    """Both return equal values, or both raise the same exception type."""
    results = []
    for run in (compute, oracle_compute):
        try:
            results.append(run())
        except (ZeroDivisionError, InvariantError, FieldMismatchError) as exc:
            results.append(type(exc))
    got, want = results
    if isinstance(want, (type, bool)):
        assert got is want
    else:
        assert_same(got, want)


@given(oracle_pairs(), st.integers(min_value=-4, max_value=6),
       st.integers(min_value=1, max_value=40), parts)
def test_triples_match_the_fraction_pair_oracle(pairs, exponent, digits, scalar):
    (x, ox), (y, oy) = pairs
    operands = [(x, y, ox, oy), (x, scalar, ox, scalar), (scalar, x, scalar, ox),
                (x, 3, ox, 3), (-2, x, -2, ox)]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.eq, operator.ne, *ORDERINGS):
        for left, right, o_left, o_right in operands:
            assert_same_outcome(lambda: op(left, right), lambda: op(o_left, o_right))
    for a, oa in pairs:
        assert_same(a, oa)
        assert_same(-a, -oa)
        assert_same(abs(a), abs(oa))
        assert a.sign() == oa.sign()
        assert a.decimal(digits) == oa.decimal(digits)
        for other in (0, 1, -2, oa.rat, F(1, 3)):
            assert (a == other) == (oa == other)
        assert_same_outcome(a.inverse, oa.inverse)
        assert_same_outcome(lambda: a**exponent, lambda: oa**exponent)


@given(st.sampled_from(ORACLE_RADICANDS), st.one_of(st.just(F(0)), oracle_parts), oracle_parts)
@example(F(5), F(0), F(-1, 6))  # zero rational part, negative surd
@example(F(64, 9), F(-3, 2), F(5, 7))  # degenerate field: folds to a rational
@example(F(7, 4), F(-1, 3), F(-2, 5))
def test_string_form_matches_the_fraction_pair_oracle(radicand, rat, surd):
    x = QuadField(radicand).element(rat, surd)
    oracle = PairField(radicand).element(rat, surd)
    assert str(x) == str(oracle)
    assert str(-x) == str(-oracle)


@given(oracle_pairs(count=1), oracle_pairs(count=1))
def test_mixed_fields_fail_like_the_oracle(first, second):
    ((x, ox),), ((y, oy),) = first, second
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.eq, *ORDERINGS):
        assert_same_outcome(lambda: op(x, y), lambda: op(ox, oy))


def test_zero_and_zero_norm_errors_match_the_oracle():
    fld, oracle = QuadField(5), PairField(5)
    for zero in (fld.zero, oracle.element(0)):
        with pytest.raises(ZeroDivisionError, match="inverse of zero quadratic element"):
            zero.inverse()
        with pytest.raises(ZeroDivisionError, match="inverse of zero quadratic element"):
            1 / zero
    # a perfect-square radicand whose fold was skipped: 2 - 1*sqrt(4) is
    # nonzero as a pair yet has zero norm, which both must report
    unfolded, oracle_unfolded = QuadField(4), PairField(4)
    unfolded.root = oracle_unfolded.root = None
    for broken in (unfolded.element(2, -1), oracle_unfolded.element(2, -1)):
        with pytest.raises(InvariantError, match="zero norm for a nonzero element"):
            broken.inverse()
        with pytest.raises(InvariantError, match="zero norm for a nonzero element"):
            1 / broken
        with pytest.raises(InvariantError):
            broken.sign()


def test_perfect_square_and_zero_radicands_fold():
    for radicand, root in ((F(64, 9), F(8, 3)), (F(4), 2), (F(9, 4), F(3, 2)), (F(0), 0)):
        x = QuadField(radicand).element(F(1, 2), F(3, 5))
        assert x.surd == 0 and x.is_rational
        assert x == F(1, 2) + F(3, 5) * root
        assert str(x) == str(F(1, 2) + F(3, 5) * root)
