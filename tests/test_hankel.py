import json
import random
from fractions import Fraction as F
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmoments.cfrac import TwoPeriodicParams, convergents, kperiodic_convergents
from cfmoments.exactnum import DomainError, InvariantError
from cfmoments.cli import main
from cfmoments.hankel import (
    PsdResult,
    ScanReport,
    _bareiss,
    _eliminate,
    _integer_form,
    _quadratic_form,
    det_exact,
    hankel_matrix,
    psd_check,
    scan_kperiodic,
)
from cfmoments.measures import classify_positivity

from helpers import (
    char_poly,
    cofactor_det,
    eliminate_by_fractions,
    full_quadratic_form,
    negative_witness_eager,
    period_fractions,
    psd_by_char_poly,
    psd_by_principal_minors,
    random_fraction,
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


def _sparse_fraction(rng):
    return F(0) if rng.random() < 0.5 else random_fraction(rng)


def _sparse_hankel(rng, n):
    seq = [_sparse_fraction(rng) for _ in range(2 * n - 1)]
    return [[seq[i + j] for j in range(n)] for i in range(n)]


def _sparse_general(rng, n):
    return [[_sparse_fraction(rng) for _ in range(n)] for _ in range(n)]


@given(
    st.integers(min_value=1, max_value=8),
    st.randoms(use_true_random=False),
    st.sampled_from([_sparse_hankel, _sparse_general]),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_gives_every_leading_minor(n, rng, draw_matrix):
    # half the entries 0, so zero pivots, row swaps past the block and
    # all-zero columns are all common
    rows = draw_matrix(rng, n)
    expected = [cofactor_det([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
    assert _bareiss(_integer_form(rows)) == expected


def test_empty_matrix_has_determinant_one():
    assert det_exact([]) == 1
    assert psd_check([]).is_psd


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
    # psd_check reads the determinant from the Bareiss pass over its own
    # integer form, not through det_exact
    monkeypatch.setattr(
        "cfmoments.hankel._bareiss", lambda form: [wrong_det] * len(form[0])
    )
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
    # orders; the first quadratic form checked is order 3's own witness, and
    # every later one reads 0
    calls = []

    def truthful_once(rows, v):
        calls.append(v)
        return _quadratic_form(rows, v) if len(calls) == 1 else F(0)

    monkeypatch.setattr("cfmoments.hankel._quadratic_form", truthful_once)
    with pytest.raises(InvariantError, match="padded witness"):
        scan_kperiodic([1, 1, 2], 1, 4)


def test_later_orders_share_one_quadratic_form(monkeypatch):
    # every padded witness has the first witness's support, so one v'Mv, on
    # top of the elimination's check of the first witness, covers them all
    expected = scan_kperiodic([3, 2], 0, 30)
    calls = []

    def counting(form, v):
        calls.append(v)
        return _quadratic_form(form, v)

    monkeypatch.setattr("cfmoments.hankel._quadratic_form", counting)
    report = scan_kperiodic([3, 2], 0, 30)
    _assert_same_report(report, expected)
    assert report.first_not_psd < 29
    assert calls == [report.results[report.first_not_psd].witness] * 2


def _wrong_pivots(rows, sizes):
    for size in sizes:
        yield None, [F(1)] * size


def _unit_witness(rows, sizes):
    # e_0 as the first block's witness, whatever the matrix
    yield (F(1),) + (F(0),) * (next(iter(sizes)) - 1), []


def test_a_witness_that_fails_to_certify_raises(monkeypatch, capsys):
    monkeypatch.setattr("cfmoments.hankel._eliminate", _unit_witness)
    with pytest.raises(InvariantError, match="witness failed to certify"):
        psd_check([[F(1), F(0)], [F(0), F(1)]])
    with pytest.raises(InvariantError, match="witness failed to certify"):
        scan_kperiodic([1, 1], 1, 3)
    code = main(["hankel-scan", "--periods", "1,1", "--w", "1", "--max-order", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: internal invariant failed: ")


def test_scan_cross_checks_the_positive_definite_prefix(monkeypatch, capsys):
    monkeypatch.setattr("cfmoments.hankel._eliminate", _wrong_pivots)
    with pytest.raises(InvariantError, match="pivots and Bareiss determinant disagree"):
        scan_kperiodic([1, 1], 1, 3)
    code = main(["hankel-scan", "--periods", "1,1", "--w", "1", "--max-order", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: internal invariant failed: ")


ONE_PASS_SCANS = [
    ([1, 1], 1, 12),  # positive definite throughout
    ([1], 0, 12),  # s_0 = 0: a zero pivot at order 0, then a row swap
    ([3, 2], 0, 12),
    ([F(3, 2)], F(1, 2), 8),  # rank one from order 1
    ([F(3, 2), F(3, 2), F(1, 2)], F(1, 2), 8),  # zero minor, then not PSD
]


def test_definite_scan_runs_one_elimination(monkeypatch):
    # a scan takes every determinant from the one Bareiss pass, after a zero
    # minor too, and every verdict from the one elimination of H_K
    oracles = [scan_by_orders(*scan) for scan in ONE_PASS_SCANS]

    def unexpected(*args):
        pytest.fail("an order was decided again")

    monkeypatch.setattr("cfmoments.hankel.det_exact", unexpected)
    monkeypatch.setattr("cfmoments.hankel.psd_check", unexpected)
    for scan, oracle in zip(ONE_PASS_SCANS, oracles):
        _assert_same_report(scan_kperiodic(*scan), oracle)
    assert all(oracles[0].psd)
    assert all(d > 0 for d in oracles[0].determinants)


def _assert_same_report(report, oracle):
    for name in type(report)._fields:
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


def _repeat_one(rng, rows):
    # the symmetric matrix with one row and column of ``rows`` repeated
    k = rng.randrange(len(rows))
    for row in rows:
        row.append(row[k])
    rows.append(list(rows[k]))
    return rows


def _singular(rng, n):
    return _repeat_one(rng, random_symmetric(rng, n))


def _bordered_gram(rng, n):
    # a rank-deficient Gram block bordered by a random row and column
    rows = _repeat_one(rng, random_gram(rng, n))
    border = [random_fraction(rng) for _ in range(len(rows) + 1)]
    for row, x in zip(rows, border):
        row.append(x)
    rows.append(border)
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
    assert next(_eliminate(_integer_form(rows), [len(rows)])) == negative_witness_eager(rows)


def test_lazy_basis_pair_path_after_a_pivot():
    # after the first pivot the reduced block is [[0, -1], [-1, 0]]
    rows = [[F(1), F(1), F(1)], [F(1), F(1), F(0)], [F(1), F(0), F(1)]]
    witness, pivots = next(_eliminate(_integer_form(rows), [len(rows)]))
    assert (witness, pivots) == negative_witness_eager(rows)
    assert pivots == [1]
    assert witness == (-2, 1, 1)
    assert full_quadratic_form(rows, witness) < 0


@given(
    st.integers(min_value=1, max_value=5),
    st.randoms(use_true_random=False),
    st.sampled_from(
        [random_symmetric, random_gram, _singular, _zero_diagonal, _bordered_gram]
    ),
)
@settings(max_examples=200, deadline=None)
def test_bordering_matches_each_block_eliminated_alone(n, rng, draw_matrix):
    # sizes up to 7; every order up to and including the first witness, from
    # one elimination of the whole matrix
    rows = draw_matrix(rng, n)
    for k, found in enumerate(_eliminate(_integer_form(rows), range(1, len(rows) + 1))):
        block = [row[: k + 1] for row in rows[: k + 1]]
        assert found == next(_eliminate(_integer_form(block), [k + 1])), k
        result = psd_check(block)
        assert (found[0] is None, found[0]) == (result.is_psd, result.witness), k
    assert found[0] is not None or k == len(rows) - 1


ADDED_ROWS = {_singular: 1, _bordered_gram: 2}  # rows a draw adds to its n


@given(
    st.integers(min_value=1, max_value=7),
    st.randoms(use_true_random=False),
    st.sampled_from(
        [random_symmetric, random_gram, _singular, _zero_diagonal, _bordered_gram, _sparse_hankel]
    ),
)
@settings(max_examples=300, deadline=None)
def test_integer_elimination_matches_the_fraction_oracle(n, rng, draw_matrix):
    # every yield, witnesses and pivots included, with the blocks taken one
    # size at a time (the scan), all at once (psd_check) and by random steps,
    # which leave rows of a block unpivoted beside rows below it
    rows = draw_matrix(rng, max(1, n - ADDED_ROWS.get(draw_matrix, 0)))
    form = _integer_form(rows)
    size = len(rows)
    steps = sorted({*rng.sample(range(1, size + 1), rng.randint(1, size)), size})
    for sizes in (range(1, size + 1), [size], steps):
        assert list(_eliminate(form, sizes)) == list(eliminate_by_fractions(rows, sizes))


@given(
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
    st.sampled_from([_sparse_hankel, _sparse_general]),
)
@settings(max_examples=150, deadline=None)
def test_integer_quadratic_form_matches_the_full_sum(n, rng, draw_matrix):
    # v has zero entries and may be shorter than the matrix, whose leading
    # block it then stands for
    rows = draw_matrix(rng, n)
    v = tuple(_sparse_fraction(rng) for _ in range(rng.randint(0, n)))
    block = [row[: len(v)] for row in rows[: len(v)]]
    assert _quadratic_form(_integer_form(rows), v) == full_quadratic_form(block, v)


def _scan_by_fraction_elimination(periods, w, max_order):
    """The scan assembled from the Fraction elimination oracle, the Bareiss
    minors of H_K and full quadratic forms, each verdict certified."""
    seq = kperiodic_convergents(periods, w, 2 * max_order)
    rows = hankel_matrix(seq, max_order)
    dets = _bareiss(_integer_form(rows))
    results = []
    for k, (witness, pivots) in enumerate(
        eliminate_by_fractions(rows, range(1, max_order + 2))
    ):
        if witness is None:
            assert dets[k] == (prod(pivots) if len(pivots) == k + 1 else 0)
        else:
            assert full_quadratic_form(hankel_matrix(seq, k), witness) < 0
        results.append(PsdResult(is_psd=witness is None, witness=witness))
    first_bad = None if results[-1].is_psd else len(results) - 1
    for order in range(len(results), max_order + 1):
        padded = results[first_bad].witness + (F(0),) * (order - first_bad)
        assert full_quadratic_form(hankel_matrix(seq, order), padded) < 0
        results.append(PsdResult(is_psd=False, witness=padded))
    return ScanReport(
        periods=tuple(F(p) for p in periods),
        w=F(w),
        max_order=max_order,
        sequence=tuple(seq),
        determinants=tuple(dets),
        psd=tuple(res.is_psd for res in results),
        first_not_psd=first_bad,
        results=tuple(results),
    )


@pytest.mark.parametrize(
    "periods, w, max_order",
    [
        ([1, 1], 1, 24),  # positive definite throughout
        ([3, 2], 0, 30),  # s_0 = 0: not PSD from order 1, then 29 padded witnesses
        ([1], 0, 30),
    ],
)
def test_deep_scans_match_the_fraction_elimination(periods, w, max_order):
    _assert_same_report(
        scan_kperiodic(periods, w, max_order),
        _scan_by_fraction_elimination(periods, w, max_order),
    )
