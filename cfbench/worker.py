"""One benchmark worker: a fresh interpreter that runs one workload's jobs.

    python3 cfbench/worker.py --probe
        imports cfmoments.cli, prints "ready" and exits (a set-up sample);
    python3 cfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        prints "ready", runs the jobs, and prints one JSON line of raw results.

The program is the ``src/cfmoments`` next to the benchmark's directory.
Jobs run back to back, one at a time.  Untraced, the worker makes a
warm-up pass over the job list and then whole timed passes that end within
``--seconds`` (at least three); it reports every job's latency from every
timed pass, and the length of each pass.  Traced, it repeats the trace set,
alternating an untraced pass with a traced one until ``--seconds`` have
passed, and writes the last traced pass's spans to
``cfbench/out/spans-<workload>-seed<seed>.json``.  Each job's output is
checked the first time it runs and compared by digest after that; checking
happens between jobs, outside every latency interval.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _import_program():
    """Import cfmoments.cli from ``SRC``; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("cfmoments.cli")
    except ImportError:
        return None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        return None
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set-up ends here: everything above is what a `cfmoments` process pays too.
    cli = _import_program()
    if cli is None:
        print(f"error: no cfmoments package under {SRC}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.probe:
        return 0

    # Benchmark modules load after "ready", so set-up time is the program's alone.
    import json

    from checks import load_reference
    from jobs import Runner
    from workloads import generate

    workload = generate(args.workload, args.seed)
    runner = Runner(workload.jobs, load_reference(args.workload, args.seed, workload.jobs))
    if args.trace:
        spans = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        result = runner.traced(workload.trace_jobs, args.seconds, spans)
    else:
        result = runner.timed(args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
