"""Running, timing and checking jobs inside a worker interpreter."""

from __future__ import annotations

import io
import resource
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import checks
from tracer import Tracer, combine, entry_points, layer_table

MAX_REPORTED_FAILURES = 20
MIN_PASSES = 3  # timed passes, after the warm-up pass


class Runner:
    """Runs one workload's jobs one at a time and keeps the failure count."""

    def __init__(self, jobs: Sequence[dict], reference: Optional[List[Tuple[int, str]]]) -> None:
        from cfmoments import cfrac, cli, exactnum, hankel, measures

        self.cfm = SimpleNamespace(
            cfrac=cfrac, cli=cli, exactnum=exactnum, hankel=hankel, measures=measures
        )
        self.jobs = list(jobs)
        self.reference = reference
        # index -> (exit code, sha256, failure reason or None) of the first run
        self.verdicts: Dict[int, Tuple[int, str, Optional[str]]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0

    def execute(self, job: dict) -> Tuple[float, int, str, Optional[list]]:
        """Run one job: (seconds, exit code, output text, library values).

        Only the program call is timed: argument conversion and, for library
        jobs, rendering the values to text happen outside the interval.
        """
        if job["kind"] == "cli":
            argv = list(job["argv"])
            out = io.StringIO()
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cfm.cli.main(argv)
            elapsed = perf_counter() - start
            return elapsed, code, out.getvalue(), None
        w = Fraction(job["w"])
        if job["kind"] == "kperiodic":
            periods = [Fraction(p) for p in job["periods"]]
            start = perf_counter()
            values = self.cfm.cfrac.kperiodic_convergents(periods, w, job["n"])
            elapsed = perf_counter() - start
            return elapsed, 0, checks.library_text(values), values
        params = self.cfm.cfrac.TwoPeriodicParams(Fraction(job["a"]), Fraction(job["b"]), w)
        start = perf_counter()
        convs = self.cfm.cfrac.convergents(params, job["n"])
        elapsed = perf_counter() - start
        text = checks.library_text(f"{c.numerator} {c.denominator} {c.value}" for c in convs)
        return elapsed, 0, text, [c.value for c in convs]

    def check(self, index: int, code: int, text: str, values: Optional[list]) -> Optional[str]:
        """Invariants and the recorded digest on a job's first run; the first
        run's digest on every later run."""
        sha = checks.digest(text)
        if index in self.verdicts:
            first_code, first_sha, reason = self.verdicts[index]
            if (code, sha) != (first_code, first_sha):
                return "output differs from this job's first run"
            return reason
        job = self.jobs[index]
        if job["kind"] == "cli":
            reason = checks.check_cli(job["argv"], code, text)
        else:
            reason = checks.check_library(job, values)
        if reason is None and self.reference is not None:
            reason = checks.check_digest(self.reference[index], code, text)
        self.verdicts[index] = (code, sha, reason)
        return reason

    def run(self, index: int) -> Optional[float]:
        """Run and check job ``index``; its latency, or None if it failed."""
        self.attempted += 1
        try:
            elapsed, code, text, values = self.execute(self.jobs[index])
        except Exception as exc:  # a crashing job is a counted failure, never a stop
            reason: Optional[str] = f"{type(exc).__name__}: {exc}"
        else:
            reason = self.check(index, code, text, values)
        if reason is None:
            return elapsed
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"job {index} {self.jobs[index]}: {reason}"[:400])
        return None

    def _summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}

    def timed(self, seconds: float) -> dict:
        """A warm-up pass, then timed passes over the job list.

        The warm-up pass runs and checks every job once; its latencies are
        not kept.  A timed pass starts while it would still end, taking as
        long as the pass before it, within ``seconds`` of the start; at
        least MIN_PASSES run.  Each job keeps its latency from every timed
        pass, in pass order.
        """
        start = perf_counter()
        for index in range(len(self.jobs)):
            self.run(index)
        pass_s = [perf_counter() - start]
        latencies: List[List[float]] = [[] for _ in self.jobs]
        while len(pass_s) <= MIN_PASSES or perf_counter() - start + pass_s[-1] <= seconds:
            pass_start = perf_counter()
            for index in range(len(self.jobs)):
                elapsed = self.run(index)
                if elapsed is not None:
                    latencies[index].append(elapsed)
            pass_s.append(perf_counter() - pass_start)
        return {
            **self._summary(),
            "latencies_s": latencies,
            "pass_s": pass_s,  # the warm-up pass first
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    def _pass(self, count: int) -> float:
        return sum(self.run(i) or 0.0 for i in range(count))

    def traced(self, count: int, seconds: float, spans_path: Optional[Path]) -> dict:
        """Alternate untraced and traced passes over the first ``count`` jobs."""
        plain: List[float] = []
        traced: List[float] = []
        tables: List[Dict[str, float]] = []
        span_self: List[Dict[str, float]] = []
        start = perf_counter()
        while not tables or perf_counter() - start < seconds:
            plain.append(self._pass(count))
            tracer = Tracer()
            tracer.install(entry_points(tracer, self.cfm))
            try:
                traced.append(self._pass(count))
            finally:
                tracer.uninstall()
            table, by_name = layer_table(tracer)
            tables.append(table)
            span_self.append(by_name)
        metrics, counts_repeat = combine(tables, median(traced) / median(plain))
        if spans_path is not None:
            tracer.write(spans_path)
        names = sorted({name for t in span_self for name in t})
        return {
            **self._summary(),
            "metrics": metrics,
            "counts_repeat": counts_repeat,
            "passes": len(tables),
            "trace_jobs": count,
            "spans_per_pass": len(tracer.span_name),
            "traced_pass_s": median(traced),
            "span_self_s": {n: median(t.get(n, 0.0) for t in span_self) for n in names},
        }
