import csv
import io
import json
import sys
from fractions import Fraction as F

import pytest

from cfmoments.cli import main
from cfmoments.exactnum import InvariantError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convergents_csv_ends_with_fibonacci_ratios(capsys):
    code, out, _ = run(
        capsys,
        "convergents", "--a", "1", "--b", "1", "--w", "0",
        "--n-max", "5", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["0", "1", "1/2", "2/3", "3/5", "5/8"]
    assert rows[-1]["numerator"] == "5"
    assert rows[-1]["denominator"] == "8"


def test_convergents_first_step(capsys):
    code, out, _ = run(
        capsys, "convergents", "--a", "2", "--b", "7", "--w", "0",
        "--n-max", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1]["value"] == "1/2"


def test_invalid_period_exits_2_naming_the_hypothesis(capsys):
    code, _, err = run(capsys, "convergents", "--a", "1", "--b", "-1", "--w", "0")
    assert code == 2
    assert "b > 0" in err


def test_unknown_arguments_exit_2(capsys):
    assert main(["convergents", "--bogus", "1"]) == 2


def test_verify_all_match(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "1", "--b", "1", "--w", "1",
        "--n-max", "40", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["all_match"] is True
    assert all(row["match"] for row in payload["rows"])
    assert len(payload["rows"]) == 41


def test_verify_holds_without_positivity(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "3", "--b", "2", "--w", "0",
        "--n-max", "40", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["all_match"] is True


def test_verify_with_truncation_cross_check(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "2", "--b", "7", "--w", "1/2",
        "--n-max", "6", "--truncate", "40", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["truncate"] == 40
    for row in payload["rows"]:
        assert row["match"] is True
        assert row["within_bound"] is True
        assert "truncated" in row and "tail_bound" in row


def test_verify_zeroth_moment_is_seed(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "1", "--b", "1", "--w", "1",
        "--n-max", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["s"] == "1"
    assert payload["rows"][0]["match"] is True


def test_classify_positive(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "1", "--b", "1", "--w", "1", "--format", "json"
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["positive"] is True


def test_classify_zero_seed(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "1", "--b", "1", "--w", "0", "--format", "json"
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["positive"] is False
    assert verdict["even_ratio_nonneg"] is False


def test_classify_hyperbolic_params(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "2", "--b", "2", "--w", "1/2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verdict"]["positive"] is True


def test_hankel_scan_reports_negative_determinant(capsys):
    code, out, _ = run(
        capsys, "hankel-scan", "--periods", "1,1,2", "--w", "1",
        "--max-order", "6", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["first_not_psd"] == 3
    assert payload["verdict"]["negative_determinants"] >= 1
    negatives = [r for r in payload["rows"] if r["determinant"].startswith("-")]
    assert negatives


def test_hankel_scan_two_periodic_all_psd(capsys):
    code, out, _ = run(
        capsys, "hankel-scan", "--periods", "1,1", "--w", "1",
        "--max-order", "6", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["all_psd"] is True


def test_hankel_scan_degenerate_single_order(capsys):
    code, out, _ = run(
        capsys, "hankel-scan", "--periods", "1", "--w", "0",
        "--max-order", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        {"order": 0, "determinant": "0", "psd": True, "decimal": "0.000000000000"}
    ]


def test_internal_invariant_failure_exits_3(capsys, monkeypatch):
    def broken(*args):
        raise InvariantError("pivots and determinant disagree")

    monkeypatch.setattr("cfmoments.cli.scan_kperiodic", broken)
    code, out, err = run(capsys, "hankel-scan", "--periods", "1,1,2", "--max-order", "2")
    assert code == 3
    assert out == ""
    assert err == "error: internal invariant failed: pivots and determinant disagree\n"
    assert "Traceback" not in err


def _int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_convergents_emit_integers_past_the_int_str_digit_limit(capsys):
    # n_max 2150 is the smallest at a = b = 100 whose D_n passes 4,300 digits
    before = _int_str_limit()
    code, out, err = run(
        capsys, "convergents", "--a", "100", "--b", "100",
        "--n-max", "2150", "--format", "json",
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert len(rows) == 2151
    assert len(rows[-1]["denominator"]) > 4300
    assert _int_str_limit() == before


def test_verify_emits_tail_bounds_past_the_int_str_digit_limit(capsys):
    # truncate 59 is the smallest K at n_max 40 whose tail bound passes 4,300 digits
    before = _int_str_limit()
    code, out, err = run(
        capsys, "verify", "--a", "7/2", "--b", "7", "--w", "2",
        "--n-max", "40", "--truncate", "59", "--format", "json",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"]["all_match"] is True
    assert all(row["within_bound"] for row in payload["rows"])
    assert max(len(row["tail_bound"]) for row in payload["rows"]) > 4300
    assert _int_str_limit() == before


def test_fibonacci_checks_pass(capsys):
    code, out, _ = run(
        capsys, "fibonacci", "--a", "1", "--n-max", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["all_match"] is True
    assert payload["rows"][0]["ratio"] == "1"
    assert [r["ratio"] for r in payload["rows"][:4]] == ["1", "1/2", "2/3", "3/5"]


def test_fibonacci_pell_numbers(capsys):
    code, out, _ = run(
        capsys, "fibonacci", "--a", "2", "--n-max", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["gen_fib"] for r in payload["rows"]] == ["0", "1", "2", "5", "12", "29"]


def test_fibonacci_single_row(capsys):
    code, out, _ = run(
        capsys, "fibonacci", "--a", "1", "--n-max", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["ratio"] == "1"
    assert payload["rows"][0]["ratio_moment"] == "1"


def test_json_and_csv_carry_identical_exact_strings(capsys):
    args = ["verify", "--a", "7/2", "--b", "2", "--w", "1/2", "--n-max", "12"]
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    code, csv_out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    json_rows = json.loads(json_out)["rows"]
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(json_rows) == len(csv_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        assert jrow["s"] == crow["s"]
        assert jrow["moment"] == crow["moment"]
        assert jrow["decimal"] == crow["decimal"]


def test_emitted_rationals_round_trip(capsys):
    code, out, _ = run(
        capsys, "convergents", "--a", "7/2", "--b", "3", "--w", "0.5",
        "--n-max", "15", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    for row in payload["rows"]:
        value = F(row["value"])
        assert F(row["numerator"]) / F(row["denominator"]) == value
        assert str(value) == row["value"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "convergents", "--a", "1", "--b", "1",
        "--n-max", "3", "--format", "csv", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    rows = list(csv.DictReader(io.StringIO(target.read_text())))
    assert rows[-1]["value"] == "2/3"


def test_args_file(tmp_path, capsys):
    args_file = tmp_path / "flags.txt"
    args_file.write_text(
        "# fibonacci ratios\n--a 1\n--b 1\n--w 0\n--n-max 5\n--format csv\n"
    )
    code, out, _ = run(capsys, "convergents", "--args-file", str(args_file))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["value"] == "5/8"


def test_missing_args_file(capsys):
    code, _, err = run(capsys, "convergents", "--args-file", "/nonexistent/flags")
    assert code == 2
    assert "error" in err


def test_decimal_preview_digits(capsys):
    code, out, _ = run(
        capsys, "convergents", "--a", "2", "--b", "7", "--w", "0",
        "--n-max", "30", "--format", "json", "--digits", "12",
    )
    assert code == 0
    payload = json.loads(out)
    # converged to the sqrt(7) limit at this depth, to 10 decimals
    assert payload["rows"][-1]["decimal"].startswith("0.4686269665")
