"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Instance, Job, Workload  # noqa: E402

TRIANGLE = Instance("random", 4, 3, 1, 0, truth="COLORABLE")
HANG = Instance("random", 4, 3, 1, 1, truth="COLORABLE")
TRIANGLE_DATA = (4, 3, [(0, 1, 2)])


def fake_cli(certificate: str):
    """A stand-in for norainbow.cli: spins on the HANG instance's path and
    prints the given certificate for any other."""

    def main(argv):
        if argv[-1] == "hang":
            while True:
                pass
        print("s COLORABLE")
        print(certificate)
        return 10

    return SimpleNamespace(main=main)


def run_jobs(cli, deadline_s=0.2):
    jobs = (Job("solve", HANG, (("solve",),), deadline_s), Job("solve", TRIANGLE, (("solve",),), deadline_s))
    workload = Workload("test", 0, jobs)
    paths = {HANG: "hang", TRIANGLE: "triangle"}
    answer = {"data": TRIANGLE_DATA, "truth": "COLORABLE", "witnesses": None}
    return run.measure(cli, workload, paths, {HANG: answer, TRIANGLE: answer}, 0, traced=False)["samples"]


def test_deadline_counts_as_failure_and_run_continues():
    samples = run_jobs(fake_cli("v 1 1 2 3"))
    hang, ok = samples[f"solve {HANG.spec}"], samples[f"solve {TRIANGLE.spec}"]
    assert [s["status"] for s in hang] == ["deadline"]
    assert 0.2 <= hang[0]["seconds"] < 5
    assert [s["status"] for s in ok] == ["ok"]
    metrics = run.e2e_metrics(samples, setup_s=1.0)
    assert metrics["solved_frac"][0] == 0.5
    # not a wrong answer, so the result line's `failed` leaves it out
    assert run.wrong_samples(samples) == []


def test_corrupted_certificate_is_caught():
    # 1 2 3 on the edge (1,2,3) makes it rainbow
    samples = run_jobs(fake_cli("v 1 2 3 1"))
    sample = samples[f"solve {TRIANGLE.spec}"][0]
    assert sample["status"] == "wrong"
    assert any("rainbow" in p for p in sample["problems"])
    assert run.wrong_samples(samples) == [(f"solve {TRIANGLE.spec}", sample)]


def test_exception_counts_as_error_exit():
    def main(argv):
        raise RuntimeError("boom")

    sample = run_jobs(SimpleNamespace(main=main))[f"solve {TRIANGLE.spec}"][0]
    assert sample["status"] == "wrong"


def test_check_run_catches_each_kind_of_mismatch():
    good = "c stats nodes=3 fallback=0 trials=2 ms=0.1\ns COLORABLE\nv 1 1 2 3\n"
    parsed, problems = checker.check_run(10, good, TRIANGLE_DATA, "COLORABLE")
    assert problems == [] and parsed["counters"] == {"nodes": 3, "fallback": 0, "trials": 2}
    assert checker.check_run(20, good, TRIANGLE_DATA, "COLORABLE")[1]  # exit code vs s line
    assert checker.check_run(10, good, TRIANGLE_DATA, "UNCOLORABLE")[1]  # known truth
    assert checker.check_run(10, "s COLORABLE\n", TRIANGLE_DATA, None)[1]  # no v line
    assert checker.check_run(10, "s COLORABLE\nv 1 1 1 2\n", TRIANGLE_DATA, None)[1]  # color 3 unused
    assert checker.check_run(1, "", TRIANGLE_DATA, None)[1]  # error exit


def naive_count(n, r, edges):
    return sum(
        len(set(c)) == r and all(len({c[v] for v in e}) < r for e in edges)
        for c in itertools.product(range(r), repeat=n)
    )


def test_count_witnesses_matches_plain_enumeration():
    from norainbow.instances import gen_complete, gen_random

    cases = [gen_random(7, 12, 3, s) for s in range(4)] + [gen_random(6, 9, 4, 1), gen_complete(6, 3)]
    for hg in cases:
        assert checker.count_witnesses(hg.n, hg.r, hg.edges) == naive_count(hg.n, hg.r, hg.edges)


def test_recorded_truths_of_the_small_pinned_instances():
    from norainbow.instances import gen_random

    rand_jobs = [job for job in workloads.plan("rand-oracle", 0).jobs if "--algo" in job.commands[0]]
    assert len(rand_jobs) == 3
    for job in rand_jobs:
        hg = job.instance
        assert hg.truth == "UNCOLORABLE"
        assert checker.count_witnesses(hg.n, hg.r, gen_random(hg.n, hg.m, hg.r, hg.seed).edges) == 0
    # the n=200 find job: start (1,2,21) with background 2 is a certificate
    hang = gen_random(200, 20000, 3, 1)
    coloring = [2] * 200
    coloring[0], coloring[1], coloring[20] = 1, 2, 3
    assert checker.certificate_problem(200, 3, hang.edges, coloring) is None


def test_plan_is_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 3) == workloads.plan(name, 3)
    drawn = {job.instance for job in workloads.plan("rand-oracle", 1).jobs}
    assert drawn != {job.instance for job in workloads.plan("rand-oracle", 2).jobs}
    assert len({job.id for job in workloads.plan("det", 1).jobs}) == 23


def test_self_time_subtracts_children():
    root = {"t0": 0.0, "t1": 10.0}
    kids = [{"t0": 1.0, "t1": 3.0}, {"t0": 2.0, "t1": 4.0}, {"t0": 9.0, "t1": 12.0}]
    assert spans.self_time(root, kids) == 10.0 - 3.0 - 1.0


def test_benchmark_json_lists_every_metric():
    import json

    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    e2e = run.e2e_metrics({"job": [{"seconds": 1.0, "status": "ok"}]}, 1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    names = list(spans.layer_metrics([], 0.0)) + ["trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {n: run.layer_unit(n) for n in names}
