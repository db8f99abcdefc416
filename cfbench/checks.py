"""Output checks that need nothing from the program under test.

Every job is checked by invariants computed here: the exit code, the
``all_match``/``match`` flags of verify and fibonacci, convergent values
against a bottom-up matrix recurrence, the positivity verdict against the
paper's surface conditions, and the consistency of Hankel verdicts.  For the
default seed the digest of each job's output is also compared with the
record in ``reference/<workload>.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

Rows = List[Dict[str, str]]
_FIELD = re.compile(r"^([a-z_]+): (.*)$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jobs_digest(jobs: Sequence[dict]) -> str:
    return digest(json.dumps(list(jobs), sort_keys=True))


def reference_values(periods: Sequence[Fraction], w: Fraction, n_max: int) -> List[Fraction]:
    """s_0..s_n_max of 1/(c_0 + 1/(c_1 + ... 1/(c_{n-1} + w))), c_j = periods[j % k].

    Bottom-up: P_n = M_0 ... M_{n-1} with M_j = [[0, 1], [1, c_j]], and
    s_n = (P00*w + P01) / (P10*w + P11).  Linear in n, unlike the library's
    top-down fold.
    """
    p00, p01, p10, p11 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    values = []
    for n in range(n_max + 1):
        values.append((p00 * w + p01) / (p10 * w + p11))
        c = periods[n % len(periods)]
        p00, p01, p10, p11 = p01, p00 + c * p01, p11, p10 + c * p11
    return values


def library_text(values: Iterable[object]) -> str:
    """The exact value strings of a library job, one per line: what gets hashed."""
    return "".join(f"{v}\n" for v in values)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def parse_output(fmt: str, text: str, has_rows: bool) -> Tuple[Rows, Dict[str, str]]:
    """Rows and key fields (params and verdict) of a CLI emission, as strings."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [{k: _cell(v) for k, v in row.items()} for row in doc["rows"]]
        fields = {k: _cell(v) for part in ("params", "verdict") for k, v in doc[part].items()}
        return rows, fields
    if fmt == "csv":
        records = list(csv.DictReader(io.StringIO(text)))
        return (records, {}) if has_rows else ([], records[0])
    rows: Rows = []
    fields: Dict[str, str] = {}
    header: Optional[List[str]] = None
    for line in text.splitlines():
        match = _FIELD.match(line)
        if match:
            fields[match.group(1)] = match.group(2)
        elif header is None:
            header = re.split(r"  +", line.strip())
        else:
            rows.append(dict(zip(header, re.split(r"  +", line.strip()))))
    return rows, fields


def _options(argv: Sequence[str]) -> Dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _check_flags(rows: Rows, fields: Dict[str, str], flags: Sequence[str]) -> Optional[str]:
    for i, row in enumerate(rows):
        for flag in flags:
            if flag in row and row[flag] != "true":
                return f"row {i}: {flag} is {row[flag]!r}"
    if fields.get("all_match", "true") != "true":
        return "all_match is not true"
    return None


def _classify_expected(a: Fraction, b: Fraction, w: Fraction) -> bool:
    """Positivity by the paper's surface conditions (never positive at w = 0)."""
    if w == 0:
        return False
    return a >= b and a * w * w + a * b * w - b >= 0 and w * w + w * (a + b) / 2 - 1 >= 0


def check_cli(argv: Sequence[str], code: int, text: str) -> Optional[str]:
    """None when a CLI job's exit code and stdout satisfy every invariant, else why not."""
    if code != 0:
        return f"exit code {code}"
    command = argv[0]
    opts = _options(argv)
    rows, fields = parse_output(opts.get("--format", "plain"), text, command != "classify")
    if command == "classify":
        expected = _classify_expected(
            Fraction(opts["--a"]), Fraction(opts["--b"]), Fraction(opts["--w"])
        )
        got = fields.get("positive")
        return None if got == _cell(expected) else f"positive is {got!r}, expected {expected}"
    if command == "hankel-scan":
        return _check_hankel(rows, fields, int(opts["--max-order"]))
    n_max = int(opts["--n-max"])
    if len(rows) != n_max + 1:
        return f"{len(rows)} rows, expected {n_max + 1}"
    if command == "fibonacci":
        return _check_flags(rows, fields, ("ratio_match", "shifted_ratio_match", "binet_match"))
    periods = [Fraction(opts["--a"]), Fraction(opts["--b"])]
    expected = reference_values(periods, Fraction(opts["--w"]), n_max)
    column = "value" if command == "convergents" else "s"
    for n, row in enumerate(rows):
        if Fraction(row[column]) != expected[n]:
            return f"s_{n} is {row[column]}, expected {expected[n]}"
    if command == "verify":
        return _check_flags(rows, fields, ("match", "within_bound"))
    return None


def _check_hankel(rows: Rows, fields: Dict[str, str], max_order: int) -> Optional[str]:
    if len(rows) != max_order + 1:
        return f"{len(rows)} rows, expected {max_order + 1}"
    first_bad = None
    for order, row in enumerate(rows):
        psd = row["psd"] == "true"
        if Fraction(row["determinant"]) < 0 and psd:
            return f"order {order}: negative determinant reported PSD"
        if first_bad is not None and psd:
            return f"order {order}: PSD after a non-PSD leading block at {first_bad}"
        if not psd and first_bad is None:
            first_bad = order
    if "first_not_psd" in fields and fields["first_not_psd"] != _cell(first_bad):
        return f"first_not_psd is {fields['first_not_psd']!r}, rows say {first_bad}"
    return None


def check_library(job: dict, values: Sequence[Fraction]) -> Optional[str]:
    """None when a library job's values agree with the bottom-up recurrence."""
    if job["kind"] == "kperiodic":
        periods = [Fraction(p) for p in job["periods"]]
    else:
        periods = [Fraction(job["a"]), Fraction(job["b"])]
    expected = reference_values(periods, Fraction(job["w"]), job["n"])
    if len(values) != len(expected):
        return f"{len(values)} values, expected {len(expected)}"
    for n, (got, want) in enumerate(zip(values, expected)):
        if got != want:
            return f"s_{n} is {got}, expected {want}"
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int, jobs: Sequence[dict]) -> Optional[List[Tuple[int, str]]]:
    """Recorded (exit code, sha256) per job, when this seed and job list were recorded."""
    path = reference_path(workload)
    if not path.exists():
        return None
    record = json.loads(path.read_text(encoding="utf-8"))
    if record["seed"] != seed:
        return None
    if record["jobs_sha256"] != jobs_digest(jobs):
        raise ValueError(f"{path.name}: recorded job list differs from the generated one")
    return [(code, sha) for code, sha in record["digests"]]


def check_digest(recorded: Tuple[int, str], code: int, text: str) -> Optional[str]:
    want_code, want_sha = recorded
    if code != want_code:
        return f"exit code {code}, recorded {want_code}"
    if digest(text) != want_sha:
        return "output differs from the recorded digest"
    return None
