"""Tests of the benchmark itself: a reproducible job plan, one job list for
the traced and untraced sides, and a checker that catches wrong output.

    python3 -m pytest perfbench/tests

Run from the repository root; the checker tests spawn a few CLI jobs.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402


def first_jobs(workload, seed, rounds=6):
    return json.dumps([[list(j.argv), j.stdin]
                       for jobs in bench.plan(workload, seed, rounds) for j in jobs])


def catalog_jobs(workload):
    return [j for cell in bench.load_catalog(workload) for unit in cell for j in unit]


def find(workload, pred):
    return next(j for j in catalog_jobs(workload) if pred(j))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_byte_identical_argv_and_stdin(workload):
    assert first_jobs(workload, 7) == first_jobs(workload, 7)
    assert first_jobs(workload, 7) != first_jobs(workload, 8)


def test_traced_and_untraced_runs_execute_the_same_job_list():
    seen = {False: [], True: []}

    def execute(job, traced):
        if job is not bench.SETUP_JOB and job is not bench.REFERENCE_JOB:
            seen[traced].append((job.argv, job.stdin))
        return bench.Outcome(0, 0.001, 1.0, b"", b"")

    jobs = [j for r in bench.plan("flag-gauge", 3, 2) for j in r]
    done, setups, refs = run.drive(bench.plan("flag-gauge", 3, 2), True, execute)
    assert len(done) == len(jobs) and setups and refs
    assert seen[False] == seen[True] == [(j.argv, j.stdin) for j in jobs]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_a_full_pass_runs_every_catalog_job_once(workload):
    rounds = len(bench.load_catalog(workload)[0])
    planned = sorted(j.id for r in bench.plan(workload, 5, rounds) for j in r)
    assert planned == sorted(j.id for j in catalog_jobs(workload))


def test_corrupted_stdout_is_counted_as_failed(tmp_path):
    job = find("weightsets", lambda j: j.argv[0] == "covers")
    good = bench.spawn(bench.cli_cmd(job.argv), job.stdin,
                       bench.job_env(ROOT), tmp_path)
    assert bench.verdict(job, good) == bench.OK
    bad = dataclasses.replace(good, stdout=good.stdout.replace(b":", b": ", 1))
    assert bench.verdict(job, bad) == bench.WRONG
    s = run.summarize([(job, good, None), (job, bad, None)])
    assert (s["attempted"], s["failed"], s["correct"]) == (2, 1, False)


def test_known_defect_is_judged_by_its_constructed_answer():
    job = find("orders", lambda j: j.check.get("kind") == "leq" and j.expect_exit != 0)
    answer = job.check["answer"]
    fixed = bench.Outcome(0, 0.3, 30.0, json.dumps({"leq": answer}).encode(), b"")
    wrong = dataclasses.replace(fixed, stdout=json.dumps({"leq": not answer}).encode())
    crash = bench.Outcome(1, 0.3, 30.0, b"", b"Traceback (most recent call last):")
    assert bench.verdict(job, fixed) == bench.OK
    assert bench.verdict(job, wrong) == bench.WRONG
    assert bench.verdict(job, crash) == bench.FAIL_KNOWN


def test_straightening_round_trip_rejects_a_changed_factor(tmp_path):
    job = find("flag-gauge", lambda j: j.argv[0] == "straighten"
               and j.expect_exit == 0 and "--p" in j.argv
               and j.argv[j.argv.index("--p") + 1] == "101")
    out = bench.spawn(bench.cli_cmd(job.argv), job.stdin, bench.job_env(ROOT), tmp_path)
    assert bench.semantic_ok(job, out.stdout)
    doc = json.loads(out.stdout)
    cell = next(c for row in doc[0]["entries"] for c in row[1:] if c)
    low = min(cell, key=int)
    cell[low] = (cell[low] + 1) % 101
    assert not bench.semantic_ok(job, json.dumps(doc).encode())


def test_traced_job_gives_the_same_answer_and_layer_counts(tmp_path):
    job = find("weightsets", lambda j: j.argv[0] == "bm")
    out = run.executor(ROOT, tmp_path)(job, True)
    assert bench.verdict(job, out) == bench.OK
    layers = run.per_layer([(job, out, out)])
    assert layers["weight_sets.bm_cycles.self_s"] > 0
    assert layers["weight_sets.intersection.calls"] > 0
    assert 0 < layers["affine_weyl.up_leq.hit_ratio"] < 1


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_reference_job_checks_and_a_slower_host_cancels(tmp_path):
    out = run.executor(ROOT, tmp_path)(bench.REFERENCE_JOB, False)
    assert bench.verdict(bench.REFERENCE_JOB, out) == bench.OK
    job = bench.SETUP_JOB   # its output is known: stands in for any job

    def metrics(slowdown):
        """A run whose host slows down over time by slowdown(t)."""
        def at(t, wall):
            return bench.Outcome(0, wall * slowdown(t), 30.0, b'{"length":0}\n',
                                 b"", start_s=t)
        refs = [at(t, 0.0125) for t in range(0, 60, 2)]
        setups = [at(t + 0.5, 0.3) for t in range(0, 60, 15)]
        done = [(job, at(t + 1.0, w), None)
                for t, w in zip(range(0, 60, 2), [0.3, 0.5, 0.9] * 10)]
        e2e, _, _ = run.end_to_end(setups, run.summarize(done),
                                   bench.speed_scale(refs))
        return e2e

    steady, slower = metrics(lambda t: 1.0), metrics(lambda t: 1.7)
    stepped = metrics(lambda t: 1.0 if t < 30 else 2.0)   # half way, twice as slow
    for name in run.END_TO_END:
        assert slower[name][0] == pytest.approx(steady[name][0])
        assert stepped[name][0] == pytest.approx(steady[name][0], rel=0.05)
    assert steady["job_s.p50"][0] == pytest.approx(0.5)


@pytest.mark.parametrize("n", [20, 34, 39, 51, 52, 57, 76, 300])
def test_tail_percentile_keeps_ten_jobs_beyond(n):
    q = run.tail_percentile(n)
    times = list(range(n))
    assert sum(t > bench.percentile(times, q) for t in times) >= run.TAIL_BEYOND
    assert sum(t > bench.percentile(times, q + 1) for t in times) < run.TAIL_BEYOND
