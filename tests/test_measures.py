from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmoments.cfrac import TwoPeriodicParams, atom_ratios, convergents, generalized_fibonacci
from cfmoments.exactnum import DomainError, QuadField
from cfmoments.measures import (
    Atom,
    DiscreteSignedMeasure,
    GeometricAtomFamily,
    binet_measure,
    classify_positivity,
    even_odd_measures,
    moment_measure,
    _geometric_partial_sum,
)

from helpers import (
    collect_atoms,
    fib,
    moment_by_families,
    param_triples,
    truncated_by_families,
)

SAMPLE_PARAMS = [
    TwoPeriodicParams(1, 1, 0),
    TwoPeriodicParams(1, 1, 1),
    TwoPeriodicParams(2, 2, F(1, 2)),
    TwoPeriodicParams(1, 2, F(1, 2)),
    TwoPeriodicParams(3, 2, 1),
    TwoPeriodicParams(2, 7, 0),
    TwoPeriodicParams(1, F(4, 3), 2),  # degenerate field
]


def test_even_and_odd_measures_share_the_head_atom():
    for params in SAMPLE_PARAMS:
        even, odd = even_odd_measures(params)
        assert even.head_atoms == odd.head_atoms
        (head,) = even.head_atoms
        assert head.location == 1
        ratios = atom_ratios(params)
        assert head.weight == (1 - ratios.location) / params.a


def test_head_atom_weight_at_unit_params_is_golden_ratio():
    even, _ = even_odd_measures(TwoPeriodicParams(1, 1, 1))
    (head,) = even.head_atoms
    fld = QuadField(5)
    assert head.weight == fld.element(F(-1, 2), F(1, 2))


def test_zero_seed_gives_symmetric_family_ratios():
    even, odd = even_odd_measures(TwoPeriodicParams(1, 1, 0))
    loc = atom_ratios(TwoPeriodicParams(1, 1, 0)).location
    assert odd.families[0].weight_ratio == loc
    assert even.families[0].weight_ratio == -loc


def test_reflection_is_an_involution():
    for params in SAMPLE_PARAMS:
        rho = moment_measure(params)
        assert rho.reflected().reflected() == rho


def test_reflection_of_single_atom():
    fld = QuadField(5)
    measure = DiscreteSignedMeasure(fld, (Atom(fld.one, fld.one),))
    mirrored = measure.reflected()
    assert mirrored.head_atoms == (Atom(-fld.one, fld.one),)


@pytest.mark.parametrize("params", SAMPLE_PARAMS[:4])
def test_reflection_flips_odd_moments(params):
    rho = moment_measure(params)
    mirrored = rho.reflected()
    for n in range(11):
        expected = rho.moment(n) if n % 2 == 0 else -rho.moment(n)
        assert mirrored.moment(n) == expected


def test_mass_equals_seed():
    assert moment_measure(TwoPeriodicParams(1, 2, F(1, 2))).mass() == F(1, 2)


@given(param_triples)
@settings(max_examples=30, deadline=None)
def test_mass_equals_seed_everywhere(params):
    assert moment_measure(params).mass() == params.w


@given(param_triples, st.integers(min_value=0, max_value=25))
@settings(max_examples=40, deadline=None)
def test_moments_reproduce_convergents(params, n):
    rho = moment_measure(params)
    s_n = convergents(params, n)[n].value
    assert rho.moment(n) == s_n


@pytest.mark.parametrize("params", SAMPLE_PARAMS)
def test_even_odd_parity_split(params):
    even, odd = even_odd_measures(params)
    rho = moment_measure(params)
    for n in range(0, 12, 2):
        assert rho.moment(n) == even.moment(n)
    for n in range(1, 12, 2):
        assert rho.moment(n) == odd.moment(n)


@given(param_triples)
@settings(max_examples=30, deadline=None)
def test_assembly_from_reflections_matches_closed_form(params):
    even, odd = even_odd_measures(params)
    half = F(1, 2)
    assembled = (
        (even + even.reflected()).scaled(half)
        + (odd - odd.reflected()).scaled(half)
    ).canonical()
    assert assembled == moment_measure(params)


def golden_ratio_measure():
    """phi*delta_1 + sqrt(5) * sum_k phi^(4k) delta_((-1)^k phi^(2k)), k >= 1:
    one family, with a negative location ratio."""
    fld = QuadField(5)
    phi = fld.element(F(-1, 2), F(1, 2))
    return DiscreteSignedMeasure(
        fld,
        (Atom(fld.one, phi),),
        (
            GeometricAtomFamily(
                scale=fld.element(0, 1),
                weight_ratio=phi**4,
                location_ratio=-(phi**2),
            ),
        ),
    )


def test_golden_ratio_measure_closed_form():
    alternating = golden_ratio_measure()
    rho = moment_measure(TwoPeriodicParams(1, 1, 1))
    assert alternating.mass() == 1
    assert rho.mass() == 1
    for n in range(41):
        assert alternating.moment(n) == rho.moment(n)
    assert collect_atoms(alternating, 14) == collect_atoms(rho, 14)


def test_hyperbolic_head_weight():
    # equal periods a = 2, seed 1/2: head weight is sqrt(2) - 1
    rho = moment_measure(TwoPeriodicParams(2, 2, F(1, 2)))
    fld = rho.field
    (head,) = rho.head_atoms
    assert head.weight == fld.sqrt(2) - 1
    ratios = atom_ratios(TwoPeriodicParams(2, 2, F(1, 2)))
    assert head.weight == (1 - ratios.location) / 2


@pytest.mark.parametrize("coeff", [F(1), F(2)])
def test_shifted_measure_moments_are_shifted_ratios(coeff):
    params = TwoPeriodicParams(coeff, coeff, 1 / coeff)
    shifted = moment_measure(params).with_head(1, coeff)
    seq = generalized_fibonacci(coeff, 24)
    for n in range(21):
        assert shifted.moment(n) == seq[n + 3] / seq[n + 2]


def sweep_matches_single_orders(measure, n_max):
    assert measure.moments(n_max) == [measure.moment(n) for n in range(n_max + 1)]


@settings(max_examples=40)
@given(param_triples, st.integers(min_value=0, max_value=25))
def test_moment_sweep_matches_single_orders(params, n_max):
    rho = moment_measure(params)
    for measure in (rho, rho.reflected(), rho.with_head(F(-1, 2), 3)):
        sweep_matches_single_orders(measure, n_max)


def test_moment_sweep_on_head_only_and_fixed_measures():
    for n_max in (0, 1, 30):
        sweep_matches_single_orders(binet_measure(), n_max)  # atoms outside [-1, 1]
        for params in SAMPLE_PARAMS:  # includes the degenerate-field triple
            sweep_matches_single_orders(moment_measure(params), n_max)
    assert binet_measure().moments(0) == [1]
    with pytest.raises(DomainError):
        binet_measure().moments(-1)


def sweeps_match_families(measure, n, terms):
    assert measure.moment(n) == moment_by_families(measure, n)
    assert measure.moments(n) == [moment_by_families(measure, k) for k in range(n + 1)]
    assert measure.truncated_moment(n, terms) == truncated_by_families(measure, n, terms)


@settings(max_examples=30, deadline=None)
@given(param_triples, st.integers(min_value=0, max_value=16), st.integers(min_value=1, max_value=12))
def test_moment_sweeps_match_the_per_family_oracles(params, n, terms):
    rho = moment_measure(params)
    for measure in (rho, rho.reflected(), rho.with_head(F(-1, 2), 3), rho + rho.scaled(-1)):
        sweeps_match_families(measure, n, terms)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 16])
def test_moment_sweeps_match_the_per_family_oracles_on_fixed_measures(n):
    degenerate = moment_measure(SAMPLE_PARAMS[-1])
    for measure in (binet_measure(), golden_ratio_measure(), degenerate):
        for terms in (1, 5):
            sweeps_match_families(measure, n, terms)


def test_groups_whose_coefficients_cancel_still_bound_the_tail():
    rho = moment_measure(TwoPeriodicParams(2, 7, 1))
    null = rho + rho.scaled(-1)  # not canonical: every group's coefficients sum to 0
    for n in (0, 1, 4):
        value, bound = null.truncated_moment(n, 3)
        assert null.moment(n) == 0 and value == 0
        assert bound > 0 and bound == 2 * rho.truncated_moment(n, 3)[1]


def test_negative_order_is_rejected_before_terms():
    rho = moment_measure(TwoPeriodicParams(1, 1, 1))
    for call in (rho.moment, rho.moments, lambda n: rho.truncated_moment(n, 0)):
        with pytest.raises(DomainError, match="moment order must be >= 0"):
            call(-1)
    with pytest.raises(DomainError, match="terms must be >= 1"):
        rho.truncated_moment(0, 0)


@given(param_triples, st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=30))
def test_partial_sum_matches_summed_powers(params, order, terms):
    ratios = atom_ratios(params)
    step = ratios.odd_weight * ratios.location**order
    total, last = _geometric_partial_sum(step, terms)
    assert last == step**terms
    assert total == sum((step**m for m in range(1, terms + 1)), step.field.zero)


def test_truncation_respects_its_own_bound():
    for params in SAMPLE_PARAMS:  # includes the degenerate-field triple
        rho = moment_measure(params)
        for n in (0, 1, 4, 10):
            for terms in (1, 5, 20):
                value, bound = rho.truncated_moment(n, terms)
                assert abs(rho.moment(n) - value) <= bound


def test_truncation_bound_shrinks_with_more_terms():
    rho = moment_measure(TwoPeriodicParams(2, 7, 1))
    bounds = [rho.truncated_moment(3, terms)[1] for terms in (1, 5, 20, 60)]
    for tighter, looser in zip(bounds[1:], bounds):
        assert tighter < looser


def test_truncation_converges_to_first_moment():
    rho = moment_measure(TwoPeriodicParams(1, 1, 1))
    value, bound = rho.truncated_moment(1, 50)
    assert abs(value - F(1, 2)) <= bound
    assert bound < F(1, 10**20)


def test_positivity_examples():
    assert classify_positivity(TwoPeriodicParams(1, 1, 1)).is_positive
    zero_seed = classify_positivity(TwoPeriodicParams(1, 1, 0))
    assert not zero_seed.is_positive
    assert not zero_seed.even_ratio_nonneg
    small_first = classify_positivity(TwoPeriodicParams(1, 2, 1))
    assert not small_first.is_positive
    assert classify_positivity(TwoPeriodicParams(2, 2, F(1, 2))).is_positive


@given(param_triples)
@settings(max_examples=60, deadline=None)
def test_positivity_agrees_with_atom_signs(params):
    verdict = classify_positivity(params)
    atoms = collect_atoms(moment_measure(params), 40)
    all_nonneg = all(atom.weight.sign() >= 0 for atom in atoms)
    assert verdict.is_positive == all_nonneg


def test_positivity_matches_first_200_family_weights():
    for params in SAMPLE_PARAMS:
        verdict = classify_positivity(params)
        even, odd = verdict.even_ratio, verdict.odd_ratio
        e_pow, o_pow = even, odd
        all_nonneg = True
        for _ in range(200):
            if (e_pow + o_pow).sign() < 0 or (e_pow - o_pow).sign() < 0:
                all_nonneg = False
                break
            e_pow, o_pow = e_pow * even, o_pow * odd
        assert verdict.is_positive == all_nonneg


def test_binet_measure_moments_are_fibonacci():
    tau = binet_measure()
    assert tau.mass() == 1
    assert tau.moment(1) == 1
    fibs = fib(31)
    for n in range(31):
        assert tau.moment(n) == fibs[n + 1]


def test_binet_measure_opts_out_of_bounded_support():
    tau = binet_measure()
    assert not tau.bounded_support
    with pytest.raises(DomainError):
        DiscreteSignedMeasure(tau.field, tau.head_atoms, (), bounded_support=True)


def test_measure_validation():
    fld = QuadField(5)
    outside = fld.element(2)
    with pytest.raises(DomainError):
        DiscreteSignedMeasure(fld, (Atom(outside, fld.one),))
    other = QuadField(7).element(1)
    with pytest.raises(DomainError):
        DiscreteSignedMeasure(fld, (Atom(other, fld.one),))
    too_big = fld.element(1)
    with pytest.raises(DomainError):
        DiscreteSignedMeasure(
            fld,
            (),
            (GeometricAtomFamily(fld.one, too_big, fld.element(F(1, 2))),),
        )


def test_canonical_merges_and_drops():
    fld = QuadField(5)
    half = fld.element(F(1, 2))
    measure = DiscreteSignedMeasure(
        fld,
        (Atom(fld.one, half), Atom(fld.one, half), Atom(-fld.one, fld.zero)),
        (
            GeometricAtomFamily(half, half, half),
            GeometricAtomFamily(-half, half, half),
        ),
    )
    merged = measure.canonical()
    assert merged.head_atoms == (Atom(fld.one, fld.one),)
    assert merged.families == ()
