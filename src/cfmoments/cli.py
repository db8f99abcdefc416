"""Command-line surface: exact emission of convergents, moment verification,
positivity classification, Hankel scans and Fibonacci-ratio checks.

All rational inputs are parsed exactly ('7/2', '2', '0.5'); all exact values
are emitted as strings, never as binary floats.  Exit codes: 0 success (and
all identities matched), 1 a verification identity failed, 2 invalid
arguments (including an unreadable or malformed --args-file and an
unwritable --output), 3 an internal invariant failed (a bug, never a
verdict); :func:`main` alone maps errors to these codes.  --args-file lines
are split shell-style.  Exact values are emitted in full however many digits
they have.

The parser is built on the first :func:`main` call and kept for the process.
Each subcommand runs this module's ``cmd_<name>`` (``hankel-scan`` runs
``cmd_hankel_scan``), looked up by name on every call.  :func:`main` is not
thread-safe: it lifts the process-wide int-to-str digit limit while it runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import shlex
import sys
from typing import Any, Dict, List, Optional, Tuple

from .cfrac import (
    TwoPeriodicParams,
    convergents,
    generalized_fibonacci,
)
from .exactnum import DomainError, InvariantError, decimal_string, parse_rational
from .hankel import scan_kperiodic
from .measures import binet_measure, classify_positivity, moment_measure

Row = Dict[str, Any]
Emission = Tuple[Dict[str, Any], List[Row], Dict[str, Any], int]


def _expand_args_file(argv: List[str]) -> List[str]:
    """Splice in tokens from an --args-file (one flag per line, split shell-style)."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        path: Optional[str] = None
        if token == "--args-file":
            if i + 1 >= len(argv):
                raise DomainError("--args-file needs a path")
            path = argv[i + 1]
            i += 2
        elif token.startswith("--args-file="):
            path = token.split("=", 1)[1]
            i += 1
        else:
            out.append(token)
            i += 1
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        out.extend(shlex.split(line))
        except ValueError as exc:  # not UTF-8, or a shlex "No closing quotation"
            raise DomainError(f"malformed --args-file {path}: {exc}") from exc
    return out


def _add_params_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", required=True)
    parser.add_argument("--b", required=True)
    parser.add_argument("--w", default="0")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv", "plain"),
        default="plain",
        help="emission format (default plain)",
    )
    parser.add_argument("--output", default=None, help="write to file instead of stdout")
    parser.add_argument(
        "--digits", type=int, default=12, help="decimal preview digits (default 12)"
    )


def _params_triple(args: argparse.Namespace) -> TwoPeriodicParams:
    return TwoPeriodicParams(
        parse_rational(args.a), parse_rational(args.b), parse_rational(args.w)
    )


def _params_meta(command: str, params: TwoPeriodicParams) -> Dict[str, Any]:
    return {"command": command, "a": str(params.a), "b": str(params.b), "w": str(params.w)}


def cmd_convergents(args: argparse.Namespace) -> Emission:
    params = _params_triple(args)
    if args.n_max < 0:
        raise DomainError("--n-max must be >= 0")
    rows = []
    for n, conv in enumerate(convergents(params, args.n_max)):
        rows.append(
            {
                "n": n,
                "numerator": str(conv.numerator),
                "denominator": str(conv.denominator),
                "value": str(conv.value),
                "decimal": decimal_string(conv.value, args.digits),
            }
        )
    meta = {**_params_meta("convergents", params), "n_max": args.n_max}
    return meta, rows, {"status": "ok"}, 0


def cmd_verify(args: argparse.Namespace) -> Emission:
    params = _params_triple(args)
    if args.n_max < 0:
        raise DomainError("--n-max must be >= 0")
    if args.truncate is not None and args.truncate < 1:
        raise DomainError("--truncate must be >= 1")
    measure = moment_measure(params)
    rows = []
    mismatches = 0
    sweep = zip(convergents(params, args.n_max), measure.moments(args.n_max))
    for n, (conv, mom) in enumerate(sweep):
        match = mom == conv.value
        if not match:
            mismatches += 1
        row = {
            "n": n,
            "s": str(conv.value),
            "moment": str(mom),
            "match": match,
            "decimal": decimal_string(conv.value, args.digits),
        }
        if args.truncate is not None:
            value, bound = measure.truncated_moment(n, args.truncate)
            within = abs(mom - value) <= bound
            if not within:
                mismatches += 1
            row["truncated"] = str(value)
            row["tail_bound"] = str(bound)
            row["within_bound"] = within
        rows.append(row)
    meta = {**_params_meta("verify", params), "n_max": args.n_max}
    if args.truncate is not None:
        meta["truncate"] = args.truncate
    verdict = {"all_match": mismatches == 0, "mismatches": mismatches}
    return meta, rows, verdict, 0 if mismatches == 0 else 1


def cmd_classify(args: argparse.Namespace) -> Emission:
    params = _params_triple(args)
    verdict = classify_positivity(params)
    out = {
        "positive": verdict.is_positive,
        "even_ratio_nonneg": verdict.even_ratio_nonneg,
        "a_ge_b": verdict.a_ge_b,
        "w_above_even_threshold": verdict.w_above_even_threshold,
        "w_above_order_threshold": verdict.w_above_order_threshold,
        "even_ratio": str(verdict.even_ratio),
        "odd_ratio": str(verdict.odd_ratio),
        "even_ratio_decimal": verdict.even_ratio.decimal(args.digits),
        "odd_ratio_decimal": verdict.odd_ratio.decimal(args.digits),
    }
    return _params_meta("classify", params), [], out, 0


def cmd_hankel_scan(args: argparse.Namespace) -> Emission:
    periods = [parse_rational(p) for p in args.periods.split(",") if p.strip()]
    w = parse_rational(args.w)
    if args.max_order < 0:
        raise DomainError("--max-order must be >= 0")
    report = scan_kperiodic(periods, w, args.max_order)
    rows = []
    for order in range(report.max_order + 1):
        rows.append(
            {
                "order": order,
                "determinant": str(report.determinants[order]),
                "psd": report.psd[order],
                "decimal": decimal_string(report.determinants[order], args.digits),
            }
        )
    meta = {
        "command": "hankel-scan",
        "periods": [str(p) for p in report.periods],
        "w": str(report.w),
        "max_order": report.max_order,
    }
    verdict = {
        "all_psd": report.first_not_psd is None,
        "first_not_psd": report.first_not_psd,
        "negative_determinants": sum(1 for d in report.determinants if d < 0),
    }
    return meta, rows, verdict, 0


def cmd_fibonacci(args: argparse.Namespace) -> Emission:
    coeff = parse_rational(args.a)
    if args.n_max < 0:
        raise DomainError("--n-max must be >= 0")
    n_max = args.n_max
    fib = generalized_fibonacci(coeff, n_max + 3)
    ordinary = generalized_fibonacci(1, n_max + 1)
    params = TwoPeriodicParams(coeff, coeff, 1 / coeff)
    ratio_measure = moment_measure(params)
    measures = (ratio_measure, ratio_measure.with_head(1, coeff), binet_measure())
    rows = []
    mismatches = 0
    sweep = zip(*(measure.moments(n_max) for measure in measures))
    for n, (ratio_mom, shifted_mom, binet_mom) in enumerate(sweep):
        ratio = fib[n + 1] / fib[n + 2]
        shifted = fib[n + 3] / fib[n + 2]
        ratio_ok = ratio_mom == ratio
        shifted_ok = shifted_mom == shifted
        binet_ok = binet_mom == ordinary[n + 1]
        mismatches += sum(1 for ok in (ratio_ok, shifted_ok, binet_ok) if not ok)
        rows.append(
            {
                "n": n,
                "gen_fib": str(fib[n]),
                "ratio": str(ratio),
                "ratio_moment": str(ratio_mom),
                "ratio_match": ratio_ok,
                "shifted_ratio": str(shifted),
                "shifted_ratio_moment": str(shifted_mom),
                "shifted_ratio_match": shifted_ok,
                "fib": str(ordinary[n + 1]),
                "binet_moment": str(binet_mom),
                "binet_match": binet_ok,
            }
        )
    meta = {"command": "fibonacci", "a": str(coeff), "n_max": n_max}
    verdict = {"all_match": mismatches == 0, "mismatches": mismatches}
    return meta, rows, verdict, 0 if mismatches == 0 else 1


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _render(fmt: str, meta: Dict[str, Any], rows: List[Row], verdict: Dict[str, Any]) -> str:
    if fmt == "json":
        return json.dumps(
            {"params": meta, "rows": rows, "verdict": verdict}, indent=2
        ) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        records = rows or [verdict]
        writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
        writer.writeheader()
        for record in records:
            writer.writerow({k: _csv_cell(v) for k, v in record.items()})
        return buf.getvalue()
    lines = []
    for key, value in meta.items():
        lines.append(f"{key}: {_csv_cell(value)}")
    if rows:
        headers = list(rows[0].keys())
        widths = {
            h: max(len(h), *(len(_csv_cell(r[h])) for r in rows)) for h in headers
        }
        lines.append("  ".join(h.ljust(widths[h]) for h in headers))
        for row in rows:
            lines.append(
                "  ".join(_csv_cell(row[h]).ljust(widths[h]) for h in headers)
            )
    for key, value in verdict.items():
        lines.append(f"{key}: {_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmoments",
        description=(
            "Exact convergents, moment measures and Hankel positivity of "
            "periodic continued fractions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergents", help="emit N_n, D_n, s_n rows")
    _add_params_options(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    _add_output_options(p)

    p = sub.add_parser(
        "verify", help="check closed-form moments against s_n, exactly"
    )
    _add_params_options(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=20)
    p.add_argument(
        "--truncate",
        type=int,
        default=None,
        metavar="K",
        help="also cross-check each moment against a K-term truncated sum",
    )
    _add_output_options(p)

    p = sub.add_parser("classify", help="exact positivity classification")
    _add_params_options(p)
    _add_output_options(p)

    p = sub.add_parser(
        "hankel-scan", help="Hankel determinants and PSD verdicts of a k-periodic run"
    )
    p.add_argument("--periods", required=True, help="comma-separated positive rationals")
    p.add_argument("--w", default="1")
    p.add_argument("--max-order", dest="max_order", type=int, default=8)
    _add_output_options(p)

    p = sub.add_parser(
        "fibonacci",
        help="generalized Fibonacci numbers, their ratios, and measure cross-checks",
    )
    p.add_argument("--a", required=True, help="recurrence coefficient (> 0)")
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    _add_output_options(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; the one place where errors become exit codes."""
    # Exact output stays exact: Python's int-to-str digit limit (3.11+, some
    # 3.10 patch releases) would end huge values in a ValueError.  The limit
    # is lifted for this call only, so in-process callers keep their own.
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        return _run(argv)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3
    finally:
        set_limit(previous)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept for the process."""
    return build_parser()


def _run(argv: Optional[List[str]]) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    expanded = _expand_args_file(raw)
    try:
        args = _parser().parse_args(expanded)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # Looked up by name on every call, so a handler replaced on the module
    # after the parser was built is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    meta, rows, verdict, code = handler(args)
    text = _render(args.format, meta, rows, verdict)
    if args.output:
        if "\0" in args.output:  # open() would raise ValueError, not OSError
            raise DomainError(f"--output path contains a NUL byte: {args.output!r}")
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
