from fractions import Fraction

from cfmoments import TwoPeriodicParams, convergents, kperiodic_convergents

import checks
from jobs import Runner
from workloads import DEFAULT_SEED, generate


def test_reference_recurrence_agrees_with_the_library():
    for periods, w, n in (([1, 1, 2], 1, 30), ([Fraction(1, 2), 3, Fraction(5, 3), 1], 0, 25)):
        periods = [Fraction(p) for p in periods]
        assert checks.reference_values(periods, Fraction(w), n) == kperiodic_convergents(periods, w, n)
    params = TwoPeriodicParams(Fraction(7, 2), 7, 2)
    expected = [c.value for c in convergents(params, 20)]
    assert checks.reference_values([params.a, params.b], params.w, 20) == expected


def test_altered_output_fails_the_digest_check():
    jobs = generate("param-grid", DEFAULT_SEED).jobs
    reference = checks.load_reference("param-grid", DEFAULT_SEED, jobs)
    assert reference is not None and len(reference) == len(jobs)
    runner = Runner(jobs, reference)
    _, code, text, values = runner.execute(jobs[0])
    assert checks.check_digest(reference[0], code, text) is None
    altered = text.replace("true", "false", 1) if "true" in text else text + " "
    assert checks.check_digest(reference[0], code, altered) is not None
    assert runner.check(0, code, altered, values) is not None
    assert checks.check_digest(reference[0], 1, text) is not None


def test_repeated_job_must_match_its_first_run():
    jobs = generate("param-grid", DEFAULT_SEED).jobs
    runner = Runner(jobs, None)
    _, code, text, values = runner.execute(jobs[0])
    assert runner.check(0, code, text, values) is None
    assert runner.check(0, code, text, values) is None
    assert runner.check(0, code, text + "\n", values) is not None


def test_invariants_catch_wrong_outputs():
    argv = ["verify", "--a", "1", "--b", "1", "--w", "1", "--n-max", "2", "--format", "csv"]
    good = "n,s,moment,match,decimal\n0,1,1,true,1.0\n1,1/2,1/2,true,0.5\n2,2/3,2/3,true,0.6\n"
    assert checks.check_cli(argv, 0, good) is None
    assert checks.check_cli(argv, 1, good) is not None
    assert checks.check_cli(argv, 0, good.replace("2/3,2/3,true", "2/3,2/3,false")) is not None
    assert checks.check_cli(argv, 0, good.replace("2,2/3,2/3", "2,3/4,3/4")) is not None
    classify = ["classify", "--a", "2", "--b", "1", "--w", "0", "--format", "plain"]
    assert checks.check_cli(classify, 0, "positive: false\n") is None
    assert checks.check_cli(classify, 0, "positive: true\n") is not None
    scan = ["hankel-scan", "--periods", "1,1,2", "--w", "1", "--max-order", "1", "--format", "json"]
    rows = '[{"order": 0, "determinant": "1", "psd": true}, {"order": 1, "determinant": "-1", "psd": %s}]'
    doc = '{"params": {}, "rows": %s, "verdict": {"first_not_psd": 1}}'
    assert checks.check_cli(scan, 0, doc % (rows % "false")) is None
    assert checks.check_cli(scan, 0, doc % (rows % "true")) is not None
