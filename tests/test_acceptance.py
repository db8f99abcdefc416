"""Acceptance suite: every criterion decided at its stated tolerance.

Each test prints one `[acceptance] ... PASS` line on success (visible with
`pytest -s` or in captured output); a failure fails the test itself.
Criteria that demand exactness are asserted through exact equality or exact
sign decisions, never through floating point.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

from cfmoments.cfrac import (
    TwoPeriodicParams,
    atom_ratios,
    convergents,
    generalized_fibonacci,
    limit_value,
)
from cfmoments.exactnum import QuadField
from cfmoments.hankel import hankel_matrix, det_exact, psd_check, scan_kperiodic
from cfmoments.measures import (
    binet_measure,
    classify_positivity,
    moment_measure,
)

from helpers import cofactor_det, psd_by_principal_minors, random_gram, random_symmetric

GOLDEN = Path(__file__).parent / "golden" / "kperiodic_112_scan.json"

MOMENT_GRID = [
    TwoPeriodicParams(a, b, w)
    for a in (F(1), F(2), F(3), F(7, 2))
    for b in (F(1), F(2), F(7))
    for w in (F(0), F(1, 2), F(1), F(2))
]


def _report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_fibonacci_convergents():
    values = [c.value for c in convergents(TwoPeriodicParams(1, 1, 0), 5)]
    assert values == [F(0), F(1), F(1, 2), F(2, 3), F(3, 5), F(5, 8)]
    _report(1, "convergents(1,1,0) are the Fibonacci ratios, exactly")


def test_criterion_2_exact_moment_identity():
    for params in MOMENT_GRID:
        rho = moment_measure(params)
        run = convergents(params, 40)
        for n in range(41):
            moment = rho.moment(n)
            assert moment == run[n].value, (params, n)
    _report(2, f"moment identity exact for {len(MOMENT_GRID)} parameter triples, n <= 40")


def test_criterion_3_positivity_routes_agree():
    half = F(1, 2)
    a_values = [half * k for k in range(1, 9)]       # 1/2 .. 4
    w_values = [F(1, 4) * k for k in range(13)]      # 0 .. 3
    checked = 0
    for a in a_values:
        for b in a_values:
            for w in w_values:
                params = TwoPeriodicParams(a, b, w)
                verdict = classify_positivity(params)
                if w > 0:
                    surface = (
                        verdict.a_ge_b
                        and verdict.w_above_even_threshold
                        and verdict.w_above_order_threshold
                    )
                    assert verdict.is_positive == surface, params
                else:
                    assert not verdict.is_positive, params
                checked += 1
    assert checked >= 500
    _report(3, f"sign route and surface conditions agree on {checked} triples")


def test_criterion_4_fibonacci_ratio_moments():
    golden_run = convergents(TwoPeriodicParams(1, 1, 1), 40)
    fibs = generalized_fibonacci(1, 42)
    for n in range(41):
        assert golden_run[n].value == fibs[n + 1] / fibs[n + 2]
    pell_run = convergents(TwoPeriodicParams(2, 2, F(1, 2)), 40)
    pells = generalized_fibonacci(2, 42)
    for n in range(41):
        assert pell_run[n].value == pells[n + 1] / pells[n + 2]
    assert moment_measure(TwoPeriodicParams(1, 1, 1)).mass() == 1
    for coeff, seq in ((F(1), fibs), (F(2), pells)):
        params = TwoPeriodicParams(coeff, coeff, 1 / coeff)
        shifted = moment_measure(params).with_head(1, coeff)
        for n in range(21):
            assert shifted.moment(n) == seq[n + 3] / seq[n + 2]
    _report(4, "generalized Fibonacci ratios are exact moment sequences")


def test_criterion_5_binet_moments():
    tau = binet_measure()
    fibs = generalized_fibonacci(1, 31)
    for n in range(31):
        moment = tau.moment(n)
        assert moment == fibs[n + 1], n
    _report(5, "Binet measure moments equal F_{n+1} for n <= 30, in Q(sqrt(5))")


def test_criterion_6_hankel_necessity():
    triples = [
        TwoPeriodicParams(1, 1, 1),
        TwoPeriodicParams(2, 2, F(1, 2)),
        TwoPeriodicParams(3, 2, 1),
    ]
    for params in triples:
        assert classify_positivity(params).is_positive
        seq = [c.value for c in convergents(params, 16)]
        for order in range(9):
            assert psd_check(hankel_matrix(seq, order)).is_psd, (params, order)
    _report(6, "H_0..H_8 PSD for the three positive-measure triples")


def test_criterion_7_three_periodic_negativity():
    golden = json.loads(GOLDEN.read_text())
    report = scan_kperiodic([1, 1, 2], 1, 6)
    assert any(d < 0 for d in report.determinants)
    assert [str(d) for d in report.determinants] == golden["determinants"]
    assert report.first_not_psd == golden["first_not_psd"]
    control = scan_kperiodic([1, 1, 1], 1, 6)
    assert all(d >= 0 for d in control.determinants)
    assert control.first_not_psd is None
    _report(
        7,
        f"periods [1,1,2] w=1 fail PSD first at order {report.first_not_psd}; "
        "[1,1,1] stays PSD",
    )


def test_criterion_8_limits_and_convergence_rate():
    fld5 = QuadField(5)
    assert limit_value(TwoPeriodicParams(1, 1)) == fld5.element(F(-1, 2), F(1, 2))
    euler = TwoPeriodicParams(2, 7)
    fld = euler.field()
    assert limit_value(euler) == (fld.element(-7) + 3 * fld.sqrt(7)) / 2
    for params in (TwoPeriodicParams(1, 1, 0), TwoPeriodicParams(2, 7, 0)):
        target = limit_value(params)
        run = convergents(params, 34)
        errors = [target - run[n].value for n in range(35)]
        for n, err in enumerate(errors):
            assert err.sign() == (1 if n % 2 == 0 else -1), (params, n)
        square = atom_ratios(params).location ** 2
        for n in (30, 31, 32):
            ratio = abs(errors[n + 2]) / abs(errors[n])
            # within 1% of the squared contraction ratio, decided exactly
            assert abs(ratio - square) <= square / 100, (params, n)
    _report(8, "limits exact; error alternates and contracts at the squared ratio")


def test_criterion_9_oracle_cross_checks():
    for params in MOMENT_GRID:
        rho = moment_measure(params)
        for n in range(11):
            value, bound = rho.truncated_moment(n, 200)
            assert abs(rho.moment(n) - value) <= bound, (params, n)

    rng = random.Random(20260808)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = random_symmetric(rng, n)
        assert det_exact(rows) == cofactor_det(rows)

    for trial in range(200):
        n = rng.randint(1, 5)
        rows = random_gram(rng, n) if trial % 2 else random_symmetric(rng, n)
        assert psd_check(rows).is_psd == psd_by_principal_minors(rows), rows
    _report(9, "truncation bound, determinant and PSD oracles all agree")
