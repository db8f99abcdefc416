import json

from workloads import DEFAULT_SEED, GENERATORS, generate


def test_same_seed_gives_same_job_list():
    for name in GENERATORS:
        first, again = generate(name, 7), generate(name, 7)
        assert first == again
        assert generate(name, 8).jobs != first.jobs
        assert json.loads(json.dumps(first.jobs)) == first.jobs
        assert 0 < first.trace_jobs <= len(first.jobs)


def test_rounds_repeat_the_size_mix():
    jobs = generate("verify-deep", DEFAULT_SEED)
    size = jobs.trace_jobs

    def sizes(chunk):
        keys = ("--n-max", "--truncate")
        return sorted(
            (job["argv"][0], *(dict(zip(job["argv"], job["argv"][1:])).get(k, "") for k in keys))
            for job in chunk
        )

    rounds = [jobs.jobs[i:i + size] for i in range(0, len(jobs.jobs), size)]
    assert len(jobs.jobs) >= 100
    assert all(sizes(r) == sizes(rounds[1]) for r in rounds[1:])
    # the first round differs only in its deep verify job
    assert set(sizes(rounds[0])) ^ set(sizes(rounds[1])) == {("verify", "200", ""), ("verify", "24", "")}

