"""Record the exit code and output digest of every job of the default seed.

    python3 cfbench/record.py [WORKLOAD ...]

Writes ``cfbench/reference/<workload>.json``, which the benchmark compares
against whenever it runs with the default seed.  Record again only when a
job list changes, and only at a commit whose outputs are known good: a job
that fails its invariants stops the recording.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from jobs import Runner  # noqa: E402
from workloads import DEFAULT_SEED, GENERATORS, generate  # noqa: E402


def record(workload: str) -> int:
    jobs = generate(workload, DEFAULT_SEED).jobs
    runner = Runner(jobs, reference=None)
    lines = []
    for index, job in enumerate(jobs):
        _, code, text, values = runner.execute(job)
        reason = runner.check(index, code, text, values)
        if reason is not None:
            print(f"error: {workload} job {index} {job}: {reason}", file=sys.stderr)
            return 1
        lines.append(json.dumps([code, checks.digest(text)]))
    head = {"seed": DEFAULT_SEED, "jobs_sha256": checks.jobs_digest(jobs)}
    body = json.dumps(head)[:-1] + ', "digests": [\n' + ",\n".join(lines) + "\n]}\n"
    path = checks.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(body, encoding="utf-8")
    print(f"{workload}: recorded {len(lines)} jobs in {path.relative_to(ROOT)}")
    return 0


def main(argv: list) -> int:
    names = argv or list(GENERATORS)
    unknown = [name for name in names if name not in GENERATORS]
    if unknown:
        print(f"error: unknown workload {unknown}; choose from {list(GENERATORS)}", file=sys.stderr)
        return 2
    return max(record(name) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
