"""The cfmoments benchmark: one command, seeded workloads, checked outputs.

    python3 cfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0
    python3 cfbench/run.py --workload all

Run it from anywhere; it benchmarks the ``src/cfmoments`` next to this
directory.  Load model: a closed loop with one client.  Each run spawns one
fresh worker interpreter that runs the jobs back to back, in-process, and
only one worker runs at a time.  Set-up is measured on separate spawns,
half before the worker and half after it.

Every timed figure is taken at the speed the host gives when it is busy:
a job's latency is the second slowest of its timed runs, and ``setup_s``
the upper quartile of the spawns (README.md says why).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (see README.md).
The lines before it print each metric with its unit and the provenance of
the run; ``cfbench/out/`` keeps the full record and, when traced, the spans.
The exit code is 0 only when every job's output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spec import END_TO_END, PER_LAYER, WHY
from workloads import DEFAULT_SEED, GENERATORS, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

SETUP_SPAWNS = 10  # after one uncounted spawn that writes the bytecode caches
WORKER_TIMEOUT_S = 120  # beyond --seconds; a run ends on a whole pass


class BenchError(RuntimeError):
    """The benchmark could not produce a result (no program, a dead worker)."""


def _worker_command(*args: str) -> list:
    return [sys.executable, "-E", "-s", str(WORKER), *args]


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """The rest of a worker's stdout; a worker that overruns is killed."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    return out


def spawn_ready_seconds() -> float:
    """Time from spawning a worker until it has imported cfmoments.cli."""
    start = perf_counter()
    proc = subprocess.Popen(_worker_command("--probe"), stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    _finish(proc, 60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("worker failed to import cfmoments")
    return ready


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(_worker_command(*args), stdout=subprocess.PIPE, text=True, cwd=ROOT)
    out = _finish(proc, seconds + WORKER_TIMEOUT_S)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(raw: dict, setup_s: float) -> tuple:
    """The end-to-end metrics of an untraced run, and its sample counts.

    Each job contributes one latency, the second slowest of its timed runs
    (the slowest when it passed only once), and ``jobs_per_s`` is one
    client's rate at those latencies.
    """
    latencies = sorted(sorted(runs)[-min(2, len(runs))] for runs in raw["latencies_s"] if runs)
    if len(latencies) < 2:
        raise BenchError("fewer than two jobs completed; no percentiles")
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    values = {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": p90 * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        "ok_ratio": (raw["attempted"] - raw["failed"]) / raw["attempted"],
    }
    samples = {
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "timed_passes": len(raw["pass_s"]) - 1,
    }
    return values, samples


def git_head() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, seconds: float, workloads: list) -> dict:
    return {
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "nproc": os.cpu_count(),
        "git_head": git_head(),
        "seed": seed,
        "seconds": seconds,
        "jobs": {w: len(generate(w, seed).jobs) for w in workloads},
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        raw = run_worker(workload, seed, seconds, 1)
        values = raw["metrics"]
        units = PER_LAYER
        extra = {
            "counts_repeat": raw["counts_repeat"],
            "passes": raw["passes"],
            "trace_jobs": raw["trace_jobs"],
            "spans_per_pass": raw["spans_per_pass"],
            "traced_pass_s": raw["traced_pass_s"],
            "span_self_s": raw["span_self_s"],
        }
        correct = raw["failed"] == 0 and raw["counts_repeat"]
    else:
        spawn_ready_seconds()
        spawns = [spawn_ready_seconds() for _ in range(SETUP_SPAWNS // 2)]
        raw = run_worker(workload, seed, seconds, 0)
        spawns += [spawn_ready_seconds() for _ in range(SETUP_SPAWNS - len(spawns))]
        setup_s = statistics.quantiles(spawns, n=4, method="inclusive")[2]
        values, extra = end_to_end(raw, setup_s)
        units = END_TO_END
        correct = raw["failed"] == 0
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {
        "workload": workload,
        "why": WHY[workload],
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "metrics": metrics,
        **extra,
    }


def report(record: dict, trace: int) -> None:
    line = (
        f"{record['workload']} (trace {trace}): {record['attempted']} jobs attempted, "
        f"{record['failed']} failed"
    )
    if "samples" in record:
        line += (
            f", {record['timed_passes']} timed passes, {record['samples']} job latencies,"
            f" {record['beyond_p90']} beyond p90"
        )
    print(line)
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cfmoments" / "cli.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'cfmoments'}", file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed, args.seconds, names)
    try:
        records = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for record in records:
        report(record, args.trace)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({**record, "provenance": prov}, indent=1), encoding="utf-8")
    print("provenance: " + json.dumps(prov))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in records for name, m in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
