import dataclasses
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmoments.cfrac import TwoPeriodicParams, convergents
from cfmoments.exactnum import DomainError, InvariantError
from cfmoments.cli import main
from cfmoments.hankel import (
    PsdResult,
    _negative_witness,
    det_exact,
    hankel_matrix,
    psd_check,
    scan_kperiodic,
)
from cfmoments.measures import classify_positivity

from helpers import (
    char_poly,
    cofactor_det,
    full_quadratic_form,
    negative_witness_eager,
    period_fractions,
    psd_by_char_poly,
    psd_by_principal_minors,
    random_gram,
    random_symmetric,
    scan_by_orders,
    seed_fractions,
)

GOLDEN = Path(__file__).parent / "golden" / "kperiodic_112_scan.json"


def test_all_ones_matrix_is_rank_one():
    rows = hankel_matrix([F(1)] * 5, 2)
    assert rows == ((1, 1, 1),) * 3
    assert det_exact(rows) == 0
    assert psd_check(rows).is_psd


def test_point_mass_moments_give_rank_one_hankel():
    c = F(2, 3)
    moments = [c**n for n in range(9)]
    rows = hankel_matrix(moments, 3)
    assert det_exact(rows) == 0
    assert psd_check(rows).is_psd


def test_fibonacci_ratio_hankel_2x2():
    seq = [c.value for c in convergents(TwoPeriodicParams(1, 1, 1), 4)]
    rows = hankel_matrix(seq, 1)
    assert rows == ((1, F(1, 2)), (F(1, 2), F(2, 3)))
    assert det_exact(rows) == F(5, 12)


def test_hankel_needs_enough_entries():
    with pytest.raises(DomainError):
        hankel_matrix([F(1), F(1)], 1)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=80, deadline=None)
def test_det_matches_cofactor_expansion(n, data):
    rows = [
        [data.draw(small_fracs) for _ in range(n)] for _ in range(n)
    ]
    assert det_exact(rows) == cofactor_det(rows)


@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_det_invariant_under_symmetric_permutation(n, rng):
    rows = random_symmetric(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    assert det_exact(permuted) == det_exact(rows)


def test_char_poly_of_identity():
    eye = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert char_poly(eye) == [1, -3, 3, -1]


def test_swap_matrix_is_not_psd():
    swap = [[F(0), F(1)], [F(1), F(0)]]
    assert char_poly(swap) == [1, 0, -1]
    assert not psd_by_char_poly(swap)
    result = psd_check(swap)
    assert not result.is_psd
    assert full_quadratic_form(swap, result.witness) < 0


@pytest.mark.parametrize(
    "rows, is_psd",
    [
        ([[F(0)] * 3 for _ in range(3)], True),
        ([[F(0), F(0)], [F(0), F(1)]], True),
        ([[F(1), F(1)], [F(1), F(1)]], True),
        ([[F(0), F(0), F(0)], [F(0), F(2), F(1)], [F(0), F(1), F(1)]], True),
        ([[F(0), F(1)], [F(1), F(1)]], False),
        ([[F(1), F(1), F(0)], [F(1), F(1), F(1)], [F(0), F(1), F(1)]], False),
    ],
)
def test_zero_pivot_cases(rows, is_psd):
    result = psd_check(rows)
    assert result.is_psd == is_psd
    assert psd_by_char_poly(rows) == is_psd
    assert psd_by_principal_minors(rows) == is_psd
    if is_psd:
        assert result.witness is None
    else:
        assert full_quadratic_form(rows, result.witness) < 0


@pytest.mark.parametrize(
    "rows, wrong_det",
    [
        ([[F(1), F(0)], [F(0), F(1)]], F(2)),  # full rank: pivot product is 1
        ([[F(1), F(1)], [F(1), F(1)]], F(1)),  # block vanished: det must be 0
    ],
)
def test_psd_verdict_is_cross_checked_against_det(monkeypatch, rows, wrong_det):
    monkeypatch.setattr("cfmoments.hankel.det_exact", lambda matrix: wrong_det)
    with pytest.raises(InvariantError):
        psd_check(rows)


def test_identity_is_psd():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    assert psd_check(eye).is_psd


def test_psd_requires_symmetry():
    with pytest.raises(DomainError):
        psd_check([[F(0), F(1)], [F(2), F(0)]])


def test_psd_requires_square():
    with pytest.raises(DomainError):
        psd_check([[F(1), F(0)]])


def test_positive_measure_hankels_are_psd():
    params = TwoPeriodicParams(1, 1, 1)
    assert classify_positivity(params).is_positive
    seq = [c.value for c in convergents(params, 12)]
    for order in range(7):
        rows = hankel_matrix(seq, order)
        assert psd_check(rows).is_psd
        assert psd_by_principal_minors(rows)


@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_psd_matches_principal_minor_enumeration(n, rng, make_gram):
    # random_gram draws 1..n rows, so most Gram inputs are rank-deficient
    rows = random_gram(rng, n) if make_gram else random_symmetric(rng, n)
    verdict = psd_check(rows).is_psd
    assert verdict == psd_by_principal_minors(rows)
    assert verdict == psd_by_char_poly(rows)


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_scaling_covariance(rng):
    params = TwoPeriodicParams(2, 3, 1)
    seq = [c.value for c in convergents(params, 8)]
    factor = F(rng.randint(1, 9), rng.randint(1, 9))
    scaled = [factor * s for s in seq]
    for order in range(3):
        base = hankel_matrix(seq, order)
        stretched = hankel_matrix(scaled, order)
        assert det_exact(stretched) == factor ** (order + 1) * det_exact(base)
        assert psd_check(stretched).is_psd == psd_check(base).is_psd


def test_scan_against_golden_record():
    golden = json.loads(GOLDEN.read_text())
    report = scan_kperiodic(
        [F(p) for p in golden["periods"]], F(golden["w"]), golden["max_order"]
    )
    assert [str(s) for s in report.sequence] == golden["sequence"]
    assert [str(d) for d in report.determinants] == golden["determinants"]
    assert list(report.psd) == golden["psd"]
    assert report.first_not_psd == golden["first_not_psd"]
    assert any(d < 0 for d in report.determinants)


def test_scan_equal_periods_stays_psd():
    report = scan_kperiodic([1, 1, 1], 1, 6)
    assert report.first_not_psd is None
    assert all(report.psd)
    assert all(d >= 0 for d in report.determinants)


def test_scan_not_psd_is_monotone():
    report = scan_kperiodic([1, 1, 2], 1, 6)
    seen_failure = False
    for verdict in report.psd:
        if not verdict:
            seen_failure = True
        elif seen_failure:
            pytest.fail("psd verdict recovered after a failure")


@given(
    st.lists(
        st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4),
        min_size=1,
        max_size=4,
    ),
    st.fractions(min_value=0, max_value=2, max_denominator=4),
)
@settings(max_examples=25, deadline=None)
def test_scan_monotonicity_on_random_periods(periods, w):
    report = scan_kperiodic(periods, w, 4)
    seen_failure = False
    for verdict in report.psd:
        if not verdict:
            seen_failure = True
        else:
            assert not seen_failure, "psd verdict recovered after a failure"


@given(
    st.lists(
        st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4),
        min_size=1,
        max_size=4,
    ),
    st.fractions(min_value=0, max_value=2, max_denominator=4),
)
@settings(max_examples=20, deadline=None)
def test_scan_verdicts_match_oracles(periods, w):
    report = scan_kperiodic(periods, w, 5)
    for order, verdict in enumerate(report.psd):
        rows = hankel_matrix(report.sequence, order)
        assert verdict == psd_by_char_poly(rows), (order, rows)
        assert verdict == psd_by_principal_minors(rows), (order, rows)
        if not verdict:
            assert full_quadratic_form(rows, report.results[order].witness) < 0
        if report.first_not_psd is not None and order > report.first_not_psd:
            assert report.results[order].witness == _padded_first_witness(report, order)


def test_scan_zero_seed_single_order():
    report = scan_kperiodic([1], 0, 0)
    assert report.sequence == (0,)
    assert report.determinants == (0,)
    assert report.psd == (True,)


def test_scan_consistent_with_positivity_classifier():
    # a non-positive measure permits but does not force a PSD failure; the
    # scan must simply report verdicts consistent with its own determinants
    params = TwoPeriodicParams(2, 7, 0)
    assert not classify_positivity(params).is_positive
    report = scan_kperiodic([2, 7], 0, 6)
    for order in range(7):
        if report.determinants[order] < 0:
            assert not report.psd[order]


def _padded_first_witness(report, order):
    first = report.results[report.first_not_psd].witness
    return first + (F(0),) * (order - report.first_not_psd)


def test_scan_witnesses_certify_failures():
    report = scan_kperiodic([1, 1, 2], 1, 7)
    assert report.first_not_psd == 3
    for order, result in enumerate(report.results):
        if result.is_psd:
            continue
        rows = hankel_matrix(report.sequence, order)
        assert len(result.witness) == order + 1
        assert full_quadratic_form(rows, result.witness) < 0
        if order > report.first_not_psd:
            assert result.witness == _padded_first_witness(report, order)


def test_scan_padded_witness_is_reverified(monkeypatch):
    # a first witness that certifies nothing must not be carried to later
    # orders; psd_check first runs at order 3, the first leading minor <= 0
    monkeypatch.setattr(
        "cfmoments.hankel.psd_check",
        lambda rows: PsdResult(is_psd=False, witness=(F(0),) * len(rows)),
    )
    with pytest.raises(InvariantError, match="padded witness"):
        scan_kperiodic([1, 1, 2], 1, 4)


def _wrong_pivots(rows):
    return None, [F(1)] * len(rows)


def test_scan_cross_checks_the_positive_definite_prefix(monkeypatch, capsys):
    monkeypatch.setattr("cfmoments.hankel._negative_witness", _wrong_pivots)
    with pytest.raises(InvariantError, match="positive definite prefix"):
        scan_kperiodic([1, 1], 1, 3)
    code = main(["hankel-scan", "--periods", "1,1", "--w", "1", "--max-order", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: internal invariant failed: ")


def test_definite_scan_runs_one_elimination(monkeypatch):
    # every order of a positive definite scan comes from the one Bareiss pass
    def unexpected(*args):
        pytest.fail("a positive definite order was decided again")

    monkeypatch.setattr("cfmoments.hankel.det_exact", unexpected)
    monkeypatch.setattr("cfmoments.hankel.psd_check", unexpected)
    report = scan_kperiodic([1, 1], 1, 12)
    assert all(report.psd)
    assert all(d > 0 for d in report.determinants)


def _assert_same_report(report, oracle):
    for field in dataclasses.fields(report):
        name = field.name
        assert getattr(report, name) == getattr(oracle, name), name


@pytest.mark.parametrize(
    "periods, w, max_order",
    [
        ([1], 0, 6),  # s_0 = 0: a zero pivot at order 0
        ([1, 1, 1], 1, 8),
        ([F(3, 2)], F(1, 2), 6),  # w is the fixed point: rank one from order 1
        ([F(3, 2), F(3, 2), F(1, 2)], F(1, 2), 6),  # zero minor, then not PSD
        ([1, 1, 2], 1, 8),
    ],
)
def test_scan_matches_per_order_scan_on_edge_cases(periods, w, max_order):
    _assert_same_report(
        scan_kperiodic(periods, w, max_order), scan_by_orders(periods, w, max_order)
    )


@given(
    st.lists(period_fractions, min_size=1, max_size=4),
    seed_fractions,
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_scan_matches_per_order_scan(periods, w, max_order):
    _assert_same_report(
        scan_kperiodic(periods, w, max_order), scan_by_orders(periods, w, max_order)
    )


def _singular(rng, n):
    # an n x n symmetric matrix with one row and column repeated
    rows = random_symmetric(rng, n)
    k = rng.randrange(n)
    for row in rows:
        row.append(row[k])
    rows.append(list(rows[k]))
    return rows


def _zero_diagonal(rng, n):
    rows = random_symmetric(rng, n)
    for i in range(n):
        if rng.random() < 0.6:
            rows[i][i] = F(0)
    return rows


@given(
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
    st.sampled_from([random_symmetric, random_gram, _singular, _zero_diagonal]),
)
@settings(max_examples=120, deadline=None)
def test_lazy_basis_matches_eager_basis(n, rng, draw_matrix):
    rows = draw_matrix(rng, n)
    assert _negative_witness(rows) == negative_witness_eager(rows)


def test_lazy_basis_pair_path_after_a_pivot():
    # after the first pivot the reduced block is [[0, -1], [-1, 0]]
    rows = [[F(1), F(1), F(1)], [F(1), F(1), F(0)], [F(1), F(0), F(1)]]
    witness, pivots = _negative_witness(rows)
    assert (witness, pivots) == negative_witness_eager(rows)
    assert pivots == [1]
    assert witness == (-2, 1, 1)
    assert full_quadratic_form(rows, witness) < 0
