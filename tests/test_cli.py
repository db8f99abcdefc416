import argparse
import contextlib
import csv
import hashlib
import io
import json
import runpy
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfmoments import cli
from cfmoments.cli import main
from cfmoments.exactnum import InvariantError
from cfmoments.measures import DiscreteSignedMeasure
from helpers import parse_by_top_level


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


def _verify_failure(capsys, fmt, *extra):
    """(exit code, per-row match flags, per-row within_bound flags or None,
    verdict) of a verify run at (1, 1, 1) through n = 4."""
    code, out, err = run(
        capsys, "verify", "--a", "1", "--b", "1", "--w", "1",
        "--n-max", "4", *extra, "--format", fmt,
    )
    assert err == ""
    if fmt == "json":
        payload = json.loads(out)
        rows = payload["rows"]
        within = [row["within_bound"] for row in rows] if extra else None
        return code, [row["match"] for row in rows], within, payload["verdict"]
    lines = out.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("n "))
    cells = [line.split() for line in lines[head + 1 : head + 6]]
    tail = dict(line.split(": ") for line in lines[head + 6 :])
    flag = {"true": True, "false": False}
    within = [flag[row[-1]] for row in cells] if extra else None
    verdict = {"all_match": flag[tail["all_match"]], "mismatches": int(tail["mismatches"])}
    return code, [flag[row[3]] for row in cells], within, verdict


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_verify_exits_1_on_a_wrong_moment(capsys, monkeypatch, fmt):
    exact = DiscreteSignedMeasure.moments

    def one_wrong(self, n_max):
        values = exact(self, n_max)
        values[2] = values[2] + 1
        return values

    monkeypatch.setattr(DiscreteSignedMeasure, "moments", one_wrong)
    code, match, _, verdict = _verify_failure(capsys, fmt)
    assert code == 1
    assert match == [True, True, False, True, True]
    assert verdict == {"all_match": False, "mismatches": 1}


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_verify_exits_1_on_a_truncation_outside_its_bound(capsys, monkeypatch, fmt):
    exact = DiscreteSignedMeasure.truncated_moments

    def one_outside(self, n_max, terms):
        rows = exact(self, n_max, terms)
        moment, value, bound = rows[3]
        # |moment - value| <= bound, so this value is off by more than bound
        rows[3] = moment, value + 2 * bound + 1, bound
        return rows

    monkeypatch.setattr(DiscreteSignedMeasure, "truncated_moments", one_outside)
    code, match, within, verdict = _verify_failure(capsys, fmt, "--truncate", "5")
    assert code == 1
    assert all(match)
    assert within == [True, True, True, False, True]
    assert verdict == {"all_match": False, "mismatches": 1}


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


# sha256 of stdout as recorded before the integer atom-ratio kernel, for three
# edge cases: a degenerate field (ab(ab + 4) = 9/4) whose odd ratio is 0;
# even = odd, so two families merge and two cancel; both ratios 0, so no
# family is left
RATIO_EDGE_CASES = {
    ("classify", "--a", "1", "--b", "1/2", "--w", "1"): {
        "plain": "a70e8d373581397cf2a41b01545e994d9e3554de79f00effef139528ed8838c6",
        "csv": "7a16f923429187b6eaaff1ed65cb78e3166a0aa1c2fbd8d0091d805cb138f1da",
        "json": "32b3705ba85eb525278f8a328b1223ac576e4aa7d914febbdee4001120138a80",
    },
    ("verify", "--a", "1", "--b", "2", "--w", "1/2", "--truncate", "3"): {
        "plain": "2c37a1d07cdeaf8c858ad2b8f6f6168457556a59f92a662d2b4b721ba22323e9",
        "csv": "c0b7f0ff737a92f2ea4e0a6fa2f07d7fc87944400065e0b839820cf6449aa160",
        "json": "49084ff2d7eb67b2fa042623ddcb3c7ab2dd6afe5ea037d7935d3a19700e501b",
    },
    ("verify", "--a", "3/2", "--b", "3/2", "--w", "1/2"): {
        "plain": "d34a6f7084dfb88a27c5f7cdcbec35aaf5e4683079fa1772cf58414120d4c3dc",
        "csv": "ece2c06c5696ae61bae6f004da87b3ae15b1947bc55c8c7ab3cab541c42e80b7",
        "json": "ea394de850fc19a653e45b035a37a77b3d6d2df0d62ecc3ac0f4a3e90ea5bd24",
    },
}


@pytest.mark.parametrize(
    "argv, fmt", [(argv, fmt) for argv in RATIO_EDGE_CASES for fmt in ("plain", "csv", "json")]
)
def test_ratio_edge_cases_stdout_is_pinned(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RATIO_EDGE_CASES[argv][fmt]


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


def test_args_file_as_the_last_token_exits_2(capsys):
    code, out, err = run(capsys, "classify", "--a", "1", "--b", "1", "--args-file")
    assert (code, out, err) == (2, "", "error: --args-file needs a path\n")


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convergents", "--a", "1", "--b", "1", "--n-max", "-1"], "--n-max must be >= 0"),
        (["verify", "--a", "1", "--b", "1", "--n-max", "-1"], "--n-max must be >= 0"),
        (["fibonacci", "--a", "1", "--n-max", "-1"], "--n-max must be >= 0"),
        (["verify", "--a", "1", "--b", "1", "--truncate", "0"], "--truncate must be >= 1"),
        (["hankel-scan", "--periods", "1,1", "--max-order", "-1"], "--max-order must be >= 0"),
    ],
)
def test_out_of_range_sizes_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: {message}\n"


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


def test_importing_the_cli_loads_no_output_or_args_file_module():
    # nor dataclasses, with the inspect, ast, dis and tokenize it pulls in
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv", "shlex"}
    code = f"import cfmoments.cli, sys; print(sorted({unwanted!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv, want",
    [(["classify", "--a", "1", "--b", "1"], 0), (["bogus"], 2)],
    ids=["classify", "bogus"],
)
def test_running_the_module_exits_with_what_main_returns(monkeypatch, capsys, argv, want):
    # runs `sys.exit(main())` under `python -m cfmoments.cli`; an already
    # imported module would make runpy warn that it runs it a second time
    monkeypatch.setattr(sys, "argv", ["cfmoments", *argv])
    expected = run(capsys, *argv)
    assert expected[0] == want
    monkeypatch.delitem(sys.modules, "cfmoments.cli")
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("cfmoments.cli", run_name="__main__")
    captured = capsys.readouterr()
    assert (stop.value.code, captured.out, captured.err) == expected


def test_a_classify_call_builds_only_its_own_fractions(monkeypatch, capsys):
    # three parsed parameters and the discriminant; the values already
    # parsed are kept as they are, not passed through Fraction() again
    built = []
    original = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    code = main(["classify", "--a", "7/2", "--b", "3", "--w", "1/2"])
    monkeypatch.undo()
    assert code == 0
    assert capsys.readouterr().out.startswith("command: classify\na: 7/2\n")
    assert len(built) == 4


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


def _parse_outcome(parse, argv):
    """vars of the namespace, or the SystemExit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# Every option string, a unique prefix (--dig), one that is a prefix in some
# subcommands and unknown in others (--n), an inline value, help, the "--"
# separator, negative-number values and stray words.
PARSE_OPTIONS = sorted({flag for flags in SUBCOMMAND_FLAGS.values() for flag in flags}) + [
    "--format", "--output", "--digits", "--dig", "--n",
]
PARSE_VALUES = ["-1", "-1/2", "1", "7/2", "1,2", "csv", "x", "extra"]
# mostly values the option accepts, so that many draws parse
OPTION_VALUES = {
    **{flag: ["-1", "2", "x"] for flag in ("--n-max", "--truncate", "--max-order", "--digits")},
    "--format": ["csv", "json", "x"],
}
PARSE_TOKENS = sorted(SUBCOMMAND_FLAGS) + PARSE_OPTIONS + PARSE_VALUES + [
    "--a=7/2", "-h", "--help", "--",
]


@st.composite
def parse_argvs(draw):
    """A first token that is a subcommand's name three times in four, its
    required options with values as often, then options with values and
    single tokens."""
    first = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        first = draw(st.sampled_from(PARSE_TOKENS + ["bogus"]))
    argv = [first]
    if draw(st.integers(min_value=0, max_value=3)) > 0:
        for flag in REQUIRED_FLAGS.get(first, []):
            argv += [flag, draw(st.sampled_from(PARSE_VALUES))]
    pair = st.sampled_from(PARSE_OPTIONS).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(OPTION_VALUES.get(flag, PARSE_VALUES)))
    )
    for item in draw(st.lists(st.one_of(pair, st.tuples(st.sampled_from(PARSE_TOKENS))), max_size=4)):
        argv += item
    return argv


@given(parse_argvs())
@example([])
@example(["bogus"])
@example(["classify", "--a", "1", "--b", "2", "extra"])
@example(["fibonacci", "--a", "1", "--n-max", "2", "--", "x"])
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_top_level_parser(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(parse_by_top_level, argv)
