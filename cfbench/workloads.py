"""Seeded job lists for the cfmoments benchmark.

A job is a plain dict of strings and ints, so a job list is JSON and the
program sees only the generated arguments:

    {"kind": "cli", "argv": ["verify", "--a", "7/2", ...]}
        run in-process through ``cfmoments.cli.main(argv)``;
    {"kind": "kperiodic", "periods": ["1", "1", "2"], "w": "1", "n": 180}
        a library call ``cfrac.kperiodic_convergents(periods, w, n)``;
    {"kind": "convergents", "a": "1", "b": "2", "w": "1", "n": 180}
        a library call ``cfrac.convergents(TwoPeriodicParams(a, b, w), n)``.

A job list is one pass of its workload, built in rounds.  Each round holds
the same multiset of job sizes with fresh seeded parameters, in a seeded
order; that keeps throughput and percentiles comparable across seeds.  The
first round is the trace set: the fixed job list a traced run repeats, so its
counts repeat exactly.  A pass holds at least 100 jobs, so that at least ten
jobs lie beyond the 90th percentile, and takes about 3 s or less on a
2.1 GHz x86 core, so that a run repeats every job several times.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Dict, List, NamedTuple

Job = Dict[str, object]

DEFAULT_SEED = 1

# a, b and the periods: quarters in [1/4, 4]; w: quarters in [0, 3].  Thirds
# would double the spread of job cost between parameter draws (about 30%
# against 16% at one verify size), and with it the spread between seeds.
AB_VALUES = [Fraction(k, 4) for k in range(1, 17)]
W_VALUES = [Fraction(k, 4) for k in range(13)]
FORMATS = ("plain", "csv", "json")

# The sizes of each round are chosen so that the median and the 90th
# percentile fall inside a run of equal-size jobs, not on a step between sizes.

# verify-deep: n_max of the verify jobs, the fibonacci jobs, and the
# (n_max, K) pairs of the verify --truncate jobs.  Truncated sums grow like
# n_max * K digits; (14, 3) stays under 1,000 digits for every a, b in [1/4, 4]
# with denominator at most 4 and w in [0, 3], far from the 4,300-digit
# int-to-str limit.
VERIFY_LEVELS = (10, 10, 10, 11, 11, 12, 12, 13, 14, 16, 18, 20)
VERIFY_FIRST, VERIFY_DEEP = 200, 24  # the deep verify job of the first round, and of the rest
FIBONACCI_LEVELS = (8, 8, 10, 12)
TRUNCATE_LEVELS = ((10, 2), (12, 3), (14, 3))
VERIFY_ROUNDS = 6

# param-grid: the shape of acceptance criterion 3 (8 a x 8 b x 13 w);
# every fifth job is a short `convergents`, the rest `classify`.
GRID_SHAPE = (8, 8, 13)

# hankel-scan: per round, seventeen seeded lists at orders 4..6; the first
# round also scans the golden [1, 1, 2] to order 10.  That deep scan keeps
# fixed inputs, so its cost, a large share of a run, is the same for every
# seed.  Each order costs over twice the one below it; the median falls
# near two thirds of the way up the order-5 jobs and the 90th percentile
# the same way up the order-6 jobs, so that a few jobs timed at a faster
# moment of the host do not move them into the order below.
HANKEL_VALUES = tuple(Fraction(x) for x in ("1/2", "1", "3/2", "2", "3"))
HANKEL_W = tuple(Fraction(x) for x in ("1/2", "1", "3/2", "2"))
HANKEL_ORDERS = (4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6)
GOLDEN_ORDER = 10
HANKEL_ROUNDS = 6

# kperiodic-long: every k at every n in a round; k = 2 jobs also run `convergents`.
KPERIODIC_KS = (2, 3, 4, 5)
KPERIODIC_LEVELS = (80, 100, 120, 150)
KPERIODIC_ROUNDS = 6


class Workload(NamedTuple):
    jobs: List[Job]
    trace_jobs: int  # length of the trace set, the first round


def _pick(rng: random.Random, values) -> str:
    return str(rng.choice(values))


def _verify_deep(rng: random.Random) -> Workload:
    rounds = []
    for _ in range(VERIFY_ROUNDS):
        jobs: List[Job] = []
        deep = VERIFY_DEEP if rounds else VERIFY_FIRST
        sizes = [(n, None) for n in (*VERIFY_LEVELS, deep)] + list(TRUNCATE_LEVELS)
        for n, terms in sizes:
            argv = [
                "verify",
                "--a", _pick(rng, AB_VALUES),
                "--b", _pick(rng, AB_VALUES),
                "--w", _pick(rng, W_VALUES),
                "--n-max", str(n),
            ]
            if terms is not None:
                argv += ["--truncate", str(terms)]
            argv += ["--format", rng.choice(FORMATS)]
            jobs.append({"kind": "cli", "argv": argv})
        for n in FIBONACCI_LEVELS:
            argv = ["fibonacci", "--a", _pick(rng, AB_VALUES), "--n-max", str(n)]
            argv += ["--format", rng.choice(FORMATS)]
            jobs.append({"kind": "cli", "argv": argv})
        rng.shuffle(jobs)
        rounds.append(jobs)
    return Workload([job for r in rounds for job in r], len(rounds[0]))


def _param_grid(rng: random.Random) -> Workload:
    n_a, n_b, n_w = GRID_SHAPE
    a_values = sorted(rng.sample(AB_VALUES, n_a))
    b_values = sorted(rng.sample(AB_VALUES, n_b))
    w_values = sorted(rng.sample(W_VALUES, n_w))
    triples = list(product(a_values, b_values, w_values))
    rng.shuffle(triples)
    jobs: List[Job] = []
    for i, (a, b, w) in enumerate(triples):
        if i % 5 == 4:
            argv = ["convergents", "--a", str(a), "--b", str(b), "--w", str(w)]
            argv += ["--n-max", str(rng.randint(1, 20))]
        else:
            argv = ["classify", "--a", str(a), "--b", str(b), "--w", str(w)]
        argv += ["--digits", str(rng.randint(12, 60)), "--format", rng.choice(FORMATS)]
        jobs.append({"kind": "cli", "argv": argv})
    return Workload(jobs, len(jobs))


def _hankel_job(rng: random.Random, periods: List[Fraction], w: Fraction, order: int) -> Job:
    argv = [
        "hankel-scan",
        "--periods", ",".join(str(p) for p in periods),
        "--w", str(w),
        "--max-order", str(order),
        "--format", rng.choice(FORMATS),
    ]
    return {"kind": "cli", "argv": argv}


def _hankel_periods(rng: random.Random, slot: int) -> List[Fraction]:
    """2-periodic, three_periodic_scan's (a, a, c), and 4-periodic lists by turns."""
    kind = slot % 3
    if kind == 0:
        return [rng.choice(HANKEL_VALUES) for _ in range(2)]
    if kind == 1:
        a, c = rng.choice(HANKEL_VALUES), rng.choice(HANKEL_VALUES)
        return [a, a, c]
    return [rng.choice(HANKEL_VALUES) for _ in range(4)]


def _hankel_scan(rng: random.Random) -> Workload:
    rounds = []
    golden = [Fraction(1), Fraction(1), Fraction(2)]
    for r in range(HANKEL_ROUNDS):
        jobs = [
            _hankel_job(rng, _hankel_periods(rng, slot), rng.choice(HANKEL_W), order)
            for slot, order in enumerate(HANKEL_ORDERS)
        ]
        if r == 0:
            jobs.append(_hankel_job(rng, golden, Fraction(1), GOLDEN_ORDER))
        rng.shuffle(jobs)
        rounds.append(jobs)
    return Workload([job for r in rounds for job in r], len(rounds[0]))


def _kperiodic_long(rng: random.Random) -> Workload:
    rounds = []
    for _ in range(KPERIODIC_ROUNDS):
        groups: List[List[Job]] = []
        for k, n in product(KPERIODIC_KS, KPERIODIC_LEVELS):
            periods = [_pick(rng, AB_VALUES) for _ in range(k)]
            w = _pick(rng, W_VALUES)
            group: List[Job] = [{"kind": "kperiodic", "periods": periods, "w": w, "n": n}]
            if k == 2:
                group.append(
                    {"kind": "convergents", "a": periods[0], "b": periods[1], "w": w, "n": n}
                )
            groups.append(group)
        rng.shuffle(groups)
        rounds.append([job for g in groups for job in g])
    return Workload([job for r in rounds for job in r], len(rounds[0]))


GENERATORS = {
    "verify-deep": _verify_deep,
    "param-grid": _param_grid,
    "hankel-scan": _hankel_scan,
    "kperiodic-long": _kperiodic_long,
}


def generate(workload: str, seed: int) -> Workload:
    """The job list of ``workload`` for ``seed``; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
