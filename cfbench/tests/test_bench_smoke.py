import json
import shutil
import subprocess
import sys

from conftest import BENCH_DIR
from jobs import MIN_PASSES, Runner
from spec import END_TO_END, PER_LAYER
from tracer import EXACT_COUNTS
from workloads import GENERATORS, generate

ROOT = BENCH_DIR.parent


def _small(job):
    """A job cheap enough for a smoke run."""
    if job["kind"] != "cli":
        return job["n"] <= 100
    opts = dict(zip(job["argv"][1::2], job["argv"][2::2]))
    return int(opts.get("--n-max", 0)) <= 14 and int(opts.get("--max-order", 0)) <= 4


def test_tiny_run_of_each_workload_passes_its_checks():
    for name in GENERATORS:
        jobs = [job for job in generate(name, 5).jobs if _small(job)][:3]
        assert jobs, name
        runner = Runner(jobs, None)
        timed = runner.timed(0.0)
        assert timed["failed"] == 0, timed["failures"]
        assert len(timed["pass_s"]) == 1 + MIN_PASSES
        assert [len(runs) for runs in timed["latencies_s"]] == [MIN_PASSES] * len(jobs)
        traced = runner.traced(len(jobs), 0.0, None)
        assert traced["failed"] == 0, traced["failures"]
        assert traced["counts_repeat"]
        assert set(traced["metrics"]) == set(PER_LAYER)


def test_traced_counts_attribute_work_to_the_right_layers():
    for name, zero in (("kperiodic-long", "exactnum.mul.calls"), ("param-grid", "hankel.psd.calls")):
        jobs = [job for job in generate(name, 5).jobs if _small(job)][:3]
        metrics = Runner(jobs, None).traced(len(jobs), 0.0, None)["metrics"]
        assert metrics[zero] == 0
        assert all(float(metrics[n]).is_integer() for n in EXACT_COUNTS)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "cfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_command_prints_the_result_line():
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = _bench("--workload", "param-grid", "--seed", "1", "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(names)
        assert "provenance: " in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "verify-deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
