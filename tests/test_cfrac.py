import pickle
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfmoments import cfrac
from cfmoments.cfrac import (
    ParameterError,
    TwoPeriodicParams,
    _period_map,
    _truncations,
    atom_ratios,
    convergents,
    denominator_closed_form,
    generalized_fibonacci,
    kperiodic_convergents,
    limit_value,
)
from cfmoments.exactnum import DomainError, InvariantError, QuadField
from cfmoments.hankel import hankel_matrix, scan_kperiodic

from helpers import (
    RATIO_EDGES,
    assert_invariant_exit,
    atom_ratios_by_quadelem,
    convergents_by_two_step,
    fib,
    fibonacci_by_three_term,
    kperiodic_bottom_up,
    kperiodic_by_fold,
    param_triples,
    period_fractions,
    rows_by_period_map,
    seed_fractions,
    with_examples,
)

# differential draws: positive periods and nonnegative seeds, denominators <= 7
oracle_periods = st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7)
oracle_seeds = st.fractions(min_value=0, max_value=3, max_denominator=7)

GRID = [
    TwoPeriodicParams(1, 1, 0),
    TwoPeriodicParams(1, 1, 1),
    TwoPeriodicParams(2, 7, 0),
    TwoPeriodicParams(F(7, 2), 2, F(1, 2)),
    TwoPeriodicParams(3, 2, 1),
    TwoPeriodicParams(1, F(4, 3), 2),  # discriminant 64/9: degenerate field
]


def test_fibonacci_convergents():
    values = [c.value for c in convergents(TwoPeriodicParams(1, 1, 0), 5)]
    assert values == [F(0), F(1), F(1, 2), F(2, 3), F(3, 5), F(5, 8)]


def test_s0_is_the_seed():
    assert convergents(TwoPeriodicParams(1, 1, 1), 0)[0].value == 1


def test_euler_sqrt7_convergence():
    params = TwoPeriodicParams(2, 7, 0)
    s30 = convergents(params, 30)[30].value
    gap = abs(limit_value(params) - s30)
    assert gap < F(1, 10**10)


def test_parameter_validation_names_the_hypothesis():
    with pytest.raises(ParameterError, match="a > 0"):
        TwoPeriodicParams(0, 1, 0)
    with pytest.raises(ParameterError, match="b > 0"):
        TwoPeriodicParams(1, -1, 0)
    with pytest.raises(ParameterError, match="w >= 0"):
        TwoPeriodicParams(1, 1, -1)


def test_discriminant():
    assert TwoPeriodicParams(1, 1).discriminant == 5
    assert TwoPeriodicParams(2, 7).discriminant == 252
    assert TwoPeriodicParams(1, F(4, 3)).discriminant == F(64, 9)


@pytest.mark.parametrize("params", GRID)
def test_closed_form_matches_recurrence(params):
    run = convergents(params, 40)
    dens = {n: run[n].denominator for n in range(41)}
    dens[-1] = params.w
    dens[-2] = 1 - params.a * params.w
    for n in range(-2, 41):
        assert denominator_closed_form(params, n) == dens[n]


def test_closed_form_examples():
    assert denominator_closed_form(TwoPeriodicParams(2, 7, 1), 0) == 1
    assert denominator_closed_form(TwoPeriodicParams(1, 1, 0), 5) == 8
    assert denominator_closed_form(TwoPeriodicParams(1, 1, 1), -2) == 0
    with pytest.raises(DomainError):
        denominator_closed_form(TwoPeriodicParams(1, 1, 0), -3)


def test_atom_ratios_at_fibonacci_params():
    ratios = atom_ratios(TwoPeriodicParams(1, 1, 0))
    fld = ratios.location.field
    assert ratios.location == fld.element(F(3, 2), F(-1, 2))
    assert ratios.even_weight == -ratios.location
    assert ratios.odd_weight == ratios.location


def test_atom_ratios_at_unit_seed():
    ratios = atom_ratios(TwoPeriodicParams(1, 1, 1))
    square = ratios.location * ratios.location
    assert ratios.even_weight == square
    assert ratios.odd_weight == -square


def test_atom_ratios_euler_example():
    ratios = atom_ratios(TwoPeriodicParams(2, 7, 0))
    fld = ratios.location.field
    assert ratios.location == fld.element(8) - 3 * fld.sqrt(7)
    assert ratios.location * ratios.location.inverse() == 1


@given(param_triples)
@settings(max_examples=60)
def test_ratio_quadratic_identity(params):
    ratios = atom_ratios(params)
    loc = ratios.location
    ab = params.a * params.b
    assert loc * loc - (2 + ab) * loc + 1 == 0
    assert 0 < loc < 1
    for ratio in (ratios.even_weight, ratios.odd_weight):
        assert -1 < ratio < 1


def test_limit_values():
    fld5 = QuadField(5)
    assert limit_value(TwoPeriodicParams(1, 1)) == fld5.element(F(-1, 2), F(1, 2))
    params = TwoPeriodicParams(2, 7)
    fld = params.field()
    assert limit_value(params) == (fld.element(-7) + 3 * fld.sqrt(7)) / 2


@given(param_triples)
@settings(max_examples=60)
def test_limit_satisfies_polynomial(params):
    x = limit_value(params)
    assert params.a * x * x + params.a * params.b * x - params.b == 0
    assert x.sign() == 1


def test_generalized_fibonacci_sequences():
    assert generalized_fibonacci(1, 7) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert generalized_fibonacci(2, 5) == [0, 1, 2, 5, 12, 29]
    with pytest.raises(ParameterError):
        generalized_fibonacci(0, 5)


@given(st.fractions(min_value=F(1, 4), max_value=5, max_denominator=8))
def test_generalized_fibonacci_initial_conditions(coeff):
    seq = generalized_fibonacci(coeff, 1)
    assert seq == [0, 1]


@given(oracle_periods, st.integers(min_value=0, max_value=40))
@example(F(1), 0)
@example(F(1), 1)
@example(F(7, 2), 29)
@example(F(5, 7), 29)
@example(F(16, 7), 40)
@example(F(5, 1000003), 30)  # the jump's gcd with V^2 = 1000003^2
def test_generalized_fibonacci_matches_three_term_recurrence(coeff, n_max):
    assert generalized_fibonacci(coeff, n_max) == fibonacci_by_three_term(coeff, n_max)


@given(param_triples, st.integers(min_value=0, max_value=20))
@settings(max_examples=40)
def test_kperiodic_matches_two_periodic(params, n_max):
    direct = [c.value for c in convergents(params, n_max)]
    folded = kperiodic_convergents([params.a, params.b], params.w, n_max)
    assert folded == direct


@given(
    st.lists(oracle_periods, min_size=1, max_size=5),
    oracle_seeds,
    st.integers(min_value=0, max_value=60),
)
@example([F(1, 7)], F(0), 0)
@example([F(3), F(5, 7)], F(0), 1)
@settings(max_examples=80, deadline=None)
def test_kperiodic_matches_top_down_fold(periods, w, n_max):
    assert kperiodic_convergents(periods, w, n_max) == kperiodic_by_fold(periods, w, n_max)


@given(oracle_periods, oracle_periods, oracle_seeds, st.integers(min_value=0, max_value=60))
@example(F(1), F(1), F(0), 0)
@example(F(2, 7), F(5), F(0), 1)
@settings(max_examples=80, deadline=None)
def test_convergents_match_two_step_recurrence(a, b, w, n_max):
    params = TwoPeriodicParams(a, b, w)
    run = convergents(params, n_max)
    expected = convergents_by_two_step(params, n_max)
    assert [(c.numerator, c.denominator) for c in run] == expected
    assert [c.value for c in run] == [num / den for num, den in expected]


def test_kperiodic_long_run_matches_bottom_up_fractions():
    # integer periods make the period matrix's det -1; rational ones make the
    # jump reduce by real gcds
    for periods, w in [([F(1), F(1), F(2)], F(1)), ([F(3, 4), F(5, 2), F(7, 4)], F(1, 4))]:
        assert kperiodic_convergents(periods, w, 800) == kperiodic_bottom_up(periods, w, 800)


def test_nonpositive_denominator_raises_invariant_error():
    # unreachable through the validated entry points: a negative seed makes D_1 = -1
    with pytest.raises(InvariantError, match="D_1 = -1 is not positive"):
        list(_period_map([F(1)], F(-2), 1))


def test_jump_nonpositive_denominator_raises_invariant_error():
    # the same seed on [1]: s_0 = -2/1 jumps to s_1 = (0*-2 + 1*1)/(1*-2 + 1*1) = 1/-1
    with pytest.raises(InvariantError, match="denominator of s_1 = 1/-1 is not positive"):
        _truncations([F(1)], F(-2), 1)


# denominators drawn from one set share the primes 2, 3 and 1000003, or share
# none (5 and 7 against the rest); 1000003 makes the period's det large
JUMP_DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 9, 1000003, 2 * 1000003]
jump_fractions = st.builds(F, st.integers(1, 60), st.sampled_from(JUMP_DENOMINATORS))


@given(
    st.lists(jump_fractions, min_size=1, max_size=5),
    st.one_of(st.just(F(0)), jump_fractions),
    st.integers(min_value=-5, max_value=40),
)
@example([F(3, 4), F(5, 2), F(7, 4)], F(1, 4), 0)  # n_max at k
@example([F(3, 4), F(5, 2), F(7, 4)], F(0), -1)  # below k
@example([F(1, 2), F(1, 3), F(1, 5)], F(1, 7), 30)  # coprime denominators
@example([F(7, 6), F(5, 9), F(1, 4)], F(0), 30)  # denominators sharing 2 and 3
@example([F(5, 1000003), F(1000004, 1000003)], F(3, 2000006), 30)
@example([F(1)], F(0), 5)
# gcd(A_n, L_n) grows nearly as large as L_n, so rho_n's beta stays small
@example([F(16, 7), F(7, 16)], F(15, 8), 58)
@example([F(3), F(2)], F(2), 40)  # integer periods and w: beta_n = 1 throughout
@example([F(5, 3), F(7, 2)], F(0), -1)  # w = 0, n_max below k
@settings(max_examples=150, deadline=None)
def test_truncations_match_the_period_map_oracle(periods, w, offset):
    n_max = max(0, len(periods) + offset)
    want = rows_by_period_map(periods, w, n_max)
    got = kperiodic_convergents(periods, w, n_max)
    assert len(got) == len(want) == n_max + 1
    pairs = [(x, y) for x, (_, _, y) in zip(got, want)]
    if len(periods) == 2:
        # every field of every convergent row: N_n, D_n and s_n
        rows = convergents(TwoPeriodicParams(*periods, w), n_max)
        assert len(rows) == len(want)
        pairs += [pair for row, expected in zip(rows, want) for pair in zip(row, expected)]
    for x, y in pairs:
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert gcd(x.numerator, x.denominator) == 1 and x.denominator > 0
        assert hash(x) == hash(y) and str(x) == str(y)
        assert pickle.loads(pickle.dumps(x)) == y


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: convergents(TwoPeriodicParams(1, 1), -1), "n_max must be >= 0"),
        (lambda: kperiodic_convergents([1], 0, -1), "n_max must be >= 0"),
        (lambda: generalized_fibonacci(1, -1), "n_max must be >= 0"),
        (lambda: hankel_matrix([1, 2, 3], -1), "order must be >= 0"),
        (lambda: scan_kperiodic([1], 1, -1), "max_order must be >= 0"),
    ],
    ids=["convergents", "kperiodic", "fibonacci", "hankel_matrix", "scan_kperiodic"],
)
def test_library_size_guards_raise_domain_error(call, message):
    # the CLI rejects these sizes before it calls the library
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_kperiodic_period_one_gives_fibonacci_ratios():
    assert kperiodic_convergents([1], 0, 5) == [
        F(0), F(1), F(1, 2), F(2, 3), F(3, 5), F(5, 8)
    ]


def test_kperiodic_three_periodic_golden_values():
    assert kperiodic_convergents([1, 1, 2], 1, 6) == [
        F(1), F(1, 2), F(2, 3), F(4, 7), F(7, 12), F(11, 19), F(25, 43)
    ]


def test_kperiodic_validation():
    with pytest.raises(ParameterError):
        kperiodic_convergents([], 0, 3)
    with pytest.raises(ParameterError):
        kperiodic_convergents([1, -1], 0, 3)
    with pytest.raises(ParameterError):
        kperiodic_convergents([1], -1, 3)


@given(param_triples)
@settings(max_examples=40)
def test_denominator_three_term_recurrence(params):
    run = convergents(params, 24)
    dens = {n: run[n].denominator for n in range(25)}
    dens[-1] = params.w
    dens[-2] = 1 - params.a * params.w
    ab = params.a * params.b
    for n in range(23):
        assert dens[n + 2] == (2 + ab) * dens[n] - dens[n - 2]


@given(param_triples)
@settings(max_examples=40)
def test_numerator_recovered_from_denominators(params):
    run = convergents(params, 20)
    dens = {n: run[n].denominator for n in range(21)}
    dens[-1] = params.w
    dens[-2] = 1 - params.a * params.w
    for n in range(21):
        assert run[n].numerator == (dens[n] - dens[n - 2]) / params.a


@given(period_fractions, seed_fractions)
@settings(max_examples=40)
def test_equal_periods_reduce_to_single_recurrence(a, w):
    params = TwoPeriodicParams(a, a, w)
    run = convergents(params, 20)
    dens = {n: run[n].denominator for n in range(21)}
    dens[-1] = w
    for n in range(20):
        assert dens[n + 1] == a * dens[n] + dens[n - 1]
        assert run[n].numerator == dens[n - 1]
    for n in range(20):
        assert run[n + 1].value == 1 / (a + run[n].value)


@pytest.mark.parametrize("coeff", [F(1), F(2), F(1, 2), F(5, 3)])
def test_fibonacci_ratio_link(coeff):
    params = TwoPeriodicParams(coeff, coeff, 1 / coeff)
    run = convergents(params, 40)
    seq = generalized_fibonacci(coeff, 42)
    for n in range(41):
        assert run[n].value == seq[n + 1] / seq[n + 2]


@pytest.mark.parametrize("coeff", [F(1), F(2), F(1, 2), F(3)])
def test_contraction_is_square_of_one_periodic_limit(coeff):
    # for equal periods the contraction ratio is the square of the positive
    # root of x^2 + a*x - 1, computed in the smaller field and embedded
    params = TwoPeriodicParams(coeff, coeff, 1)
    small = QuadField(coeff * coeff + 4)
    one_periodic = small.element(-coeff / 2, F(1, 2))
    assert one_periodic * one_periodic + coeff * one_periodic - 1 == 0
    squared = one_periodic * one_periodic
    big = params.field()
    embedded = big.element(squared.rat) + squared.surd * big.sqrt(coeff * coeff + 4)
    assert atom_ratios(params).location == embedded


@given(param_triples)
@settings(max_examples=30)
def test_denominators_stay_positive(params):
    for conv in convergents(params, 30):
        assert conv.denominator > 0


@given(st.builds(TwoPeriodicParams, oracle_periods, oracle_periods, oracle_seeds))
@settings(max_examples=80, deadline=None)
@with_examples(RATIO_EDGES)
def test_atom_ratios_match_the_quadelem_oracle(params):
    got, want = atom_ratios(params), atom_ratios_by_quadelem(params)
    assert got.location.field == want.location.field
    for name in ("location", "even_weight", "odd_weight"):
        # equal triples: each is reduced, so equal values have equal triples
        assert getattr(got, name).triple == getattr(want, name).triple


CLASSIFY_ONE = ["classify", "--a", "1", "--b", "1", "--w", "1"]


@pytest.mark.parametrize(
    "location, message",
    [
        ((F(1, 2), F(0)), "location ratio is not a root of x^2-(2+ab)x+1"),
        # the other root of x^2 - 3x + 1, (3 + sqrt(5))/2
        ((F(3, 2), F(1, 2)), "location ratio is not inside (0, 1)"),
    ],
)
def test_atom_ratios_rechecks_the_location_ratio(monkeypatch, capsys, location, message):
    monkeypatch.setattr("cfmoments.cfrac._contraction", lambda params, fld: fld.element(*location))
    with pytest.raises(InvariantError, match=re.escape(message)):
        atom_ratios(TwoPeriodicParams(1, 1, 1))
    assert_invariant_exit(capsys, CLASSIFY_ONE)


@pytest.mark.parametrize("skewed, name", [(1, "even"), (2, "odd")])
def test_atom_ratios_rechecks_the_weight_ratios(monkeypatch, capsys, skewed, name):
    # the even and odd weight ratios are atom_ratios' only two conjugate
    # divisions, in that order; the skewed one of each pair reads 2
    divide = cfrac._quotient
    count = []

    def skew(*operands):
        count.append(None)
        return (2, 0, 1) if len(count) % 2 == skewed % 2 else divide(*operands)

    monkeypatch.setattr(cfrac, "_quotient", skew)
    message = f"{name} weight ratio is not inside (-1, 1)"
    with pytest.raises(InvariantError, match=re.escape(message)):
        atom_ratios(TwoPeriodicParams(1, 1, 1))
    assert_invariant_exit(capsys, CLASSIFY_ONE)


@pytest.mark.parametrize(
    "shift, flip, message",
    [
        (1, 1, "limit does not satisfy a*x^2 + ab*x - b = 0"),
        (0, -1, "limit is not the positive root"),  # the conjugate root
    ],
)
def test_limit_value_rechecks_its_root(monkeypatch, shift, flip, message):
    class Moved:
        """The field limit_value builds its root in, with that root moved."""

        def __init__(self, params):
            self.real = QuadField(params.discriminant)

        def element(self, rat, surd):
            return self.real.element(rat + shift, flip * surd)

    monkeypatch.setattr(TwoPeriodicParams, "field", lambda params: Moved(params))
    with pytest.raises(InvariantError, match=re.escape(message)):
        limit_value(TwoPeriodicParams(1, 1, 1))
