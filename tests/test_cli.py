import argparse
import contextlib
import csv
import hashlib
import io
import json
import shlex
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmoments import cli
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


# sha256 of stdout as recorded from the two-Fraction QuadElem; a = 1e-28
# makes every radicand, partial sum and tail bound a large integer triple
TRUNCATE_LARGE_OPERANDS = {
    "plain": "60c3ee69e4026a3d500e79435225e64d1edb895a2cbccc05a2cfa3fe149200e3",
    "csv": "6d777ed5b8f1752747081d183bae7a5c1b17bce08e27afd156603692968ee84c",
    "json": "dd9a1de9a0a7ac3d3d539b1e20baa54e3536efd83ad0aaeed84d4f13242245ab",
}


@pytest.mark.parametrize("fmt", sorted(TRUNCATE_LARGE_OPERANDS))
def test_verify_truncate_stdout_is_pinned_on_large_operands(capsys, fmt):
    code, out, _ = run(
        capsys, "verify", "--a", "1e-28", "--b", "3/2", "--w", "1/3",
        "--n-max", "8", "--truncate", "6", "--format", fmt,
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TRUNCATE_LARGE_OPERANDS[fmt]


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


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "classify", "--a", "1", "--b", "1", "--output", str(target))
    assert_one_error_line(code, out, err)
    assert str(target) in err


def test_args_file_with_unclosed_quote_exits_2(tmp_path, capsys):
    args_file = tmp_path / "flags.txt"
    args_file.write_text('--a "1\n')
    code, out, err = run(capsys, "classify", "--args-file", str(args_file))
    assert_one_error_line(code, out, err)
    assert "No closing quotation" in err


def test_args_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    args_file = tmp_path / "flags.txt"
    args_file.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "classify", f"--args-file={args_file}")
    assert_one_error_line(code, out, err)
    assert "utf-8" in err


def test_args_file_with_nul_byte_in_output_path_exits_2(tmp_path, capsys):
    args_file = tmp_path / "flags.txt"
    args_file.write_bytes(b'--a 1\n--b 1\n--output "x\x00y"\n')
    code, out, err = run(capsys, "classify", "--args-file", str(args_file))
    assert_one_error_line(code, out, err)
    assert "NUL" in err


def test_nonpositive_periods_are_named_as_exact_strings(capsys):
    code, out, err = run(capsys, "hankel-scan", "--periods", "0,1/2")
    assert_one_error_line(code, out, err)
    assert "Fraction(" not in err
    assert err == "error: all periods must be positive, got [0, 1/2]\n"


def test_second_call_reuses_the_parser_and_runs_the_current_handler(capsys, monkeypatch):
    assert run(capsys, "classify", "--a", "1", "--b", "1")[0] == 0
    built = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    def patched(args):
        return {"command": "patched"}, [], {"a": args.a}, 0

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "cmd_classify", patched)
    code, out, _ = run(capsys, "classify", "--a", "7/2", "--b", "1")
    assert built == []
    assert (code, out) == (0, "command: patched\na: 7/2\n")


def test_decimal_preview_digits(capsys):
    code, out, _ = run(
        capsys, "convergents", "--a", "2", "--b", "7", "--w", "0",
        "--n-max", "30", "--format", "json", "--digits", "12",
    )
    assert code == 0
    payload = json.loads(out)
    # converged to the sqrt(7) limit at this depth, to 10 decimals
    assert payload["rows"][-1]["decimal"].startswith("0.4686269665")


# -- the exit-code contract over odd inputs ----------------------------------

SUBCOMMAND_FLAGS = {
    "convergents": ["--a", "--b", "--w", "--n-max"],
    "verify": ["--a", "--b", "--w", "--n-max", "--truncate"],
    "classify": ["--a", "--b", "--w"],
    "hankel-scan": ["--periods", "--w", "--max-order"],
    "fibonacci": ["--a", "--n-max"],
}
REQUIRED_FLAGS = {
    "convergents": ["--a", "--b"],
    "verify": ["--a", "--b"],
    "classify": ["--a", "--b"],
    "hankel-scan": ["--periods"],
    "fibonacci": ["--a"],
}
odd_rationals = st.one_of(
    st.sampled_from(["1", "7/2", "0.5", "0", "-1", "1e-30", "3/0", "x", "", " 2 ", "1/-3"]),
    st.integers(min_value=-30, max_value=30).map(lambda e: f"1e{e}"),
    st.fractions(min_value=-4, max_value=4, max_denominator=7).map(str),
)
ODD_ARGS_FILE_LINES = [b'--a "1', b"\xff\xfe", b'--output "\x00"', b"# note", b""]
FLAG_VALUES = {
    "--a": odd_rationals,
    "--b": odd_rationals,
    "--w": odd_rationals,
    "--periods": st.lists(odd_rationals, max_size=4).map(",".join),
    "--n-max": st.integers(min_value=-3, max_value=25).map(str),
    "--max-order": st.integers(min_value=-2, max_value=4).map(str),
    "--truncate": st.integers(min_value=-1, max_value=5).map(str),
    "--digits": st.integers(min_value=-2, max_value=30).map(str),
    "--format": st.sampled_from(["plain", "csv", "json", "xml"]),
}


@st.composite
def invocations(draw):
    """(argv, args-file bytes or None, --output choice) for one call of main()."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    own = SUBCOMMAND_FLAGS[command] + ["--format", "--digits"]
    flags = draw(st.lists(st.sampled_from(own), max_size=4))
    if draw(st.booleans()):
        flags = REQUIRED_FLAGS[command] + flags
    pairs = [(flag, draw(FLAG_VALUES[flag])) for flag in flags]
    in_file = draw(st.integers(min_value=0, max_value=len(pairs)))
    # hankel-scan's default order 8 takes seconds on extreme periods
    argv = [command, "--max-order", "4"] if command == "hankel-scan" else [command]
    argv += [token for pair in pairs[in_file:] for token in pair]
    lines = [f"{flag} {shlex.quote(value)}".encode() for flag, value in pairs[:in_file]]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        lines.append(draw(st.sampled_from(ODD_ARGS_FILE_LINES)))
    args_file = draw(st.sampled_from([None, b"\n".join(lines)]))
    output = draw(st.sampled_from([None, None, "out.txt", "missing/out.txt"]))
    return argv, args_file, output


@given(invocations())
@settings(max_examples=150, deadline=None)
def test_every_input_ends_in_a_documented_exit_code(invocation):
    argv, args_file, output = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if args_file is not None:
            path = Path(tmp, "flags.txt")
            path.write_bytes(args_file)
            argv = argv + ["--args-file", str(path)]
        if output is not None:
            argv = argv + ["--output", str(Path(tmp, output))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert "error: " in err.getvalue()
    else:
        assert err.getvalue() == ""
