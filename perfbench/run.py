"""The awbm benchmark: seeded job lists run through the `awbm` CLI as a user
runs it, process start included, one job at a time (closed loop, one client).

    python3 perfbench/run.py --workload orders --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the jobs import the library from its `src/`.
--seconds sets how many whole rounds of jobs a run makes (bench.rounds_for),
independent of the program's speed, so every run of a seed attempts the same
jobs.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 every job is also run a second time under tracer.py, and the last
line carries the per-layer metrics and the tracing overhead.  Every output is
checked (see bench.verdict).  The lines before the last one are a readable
report and a JSON record with the environment, sample counts and the
within-run spread of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import bench
import tracer

TAIL_BEYOND = 10       # job_s.tail: the highest percentile with this many jobs beyond
INF = float("inf")

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s",
              "job_s.tail": "s", "peak_rss_mb": "MB"}

_SPAN_NAMES = {name for _, _, name in tracer.SPANS}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.emit_bytes": "bytes",
    "affine_weyl.adm.self_s": "s", "affine_weyl.adm.size": "count",
    "affine_weyl.bruhat_interval.calls": "count",
    "affine_weyl.bruhat_interval.self_s": "s",
    "affine_weyl.bruhat_interval.size": "count",
    "affine_weyl.bruhat_leq.calls": "count", "affine_weyl.bruhat_leq.self_s": "s",
    "affine_weyl.bruhat_leq.errors": "count",
    "affine_weyl.up_leq.calls": "count", "affine_weyl.up_leq.self_s": "s",
    "affine_weyl.up_leq.hit_ratio": "ratio",
    "affine_weyl.leq_wa.hit_ratio": "ratio", "affine_weyl.length.hit_ratio": "ratio",
    "affine_weyl.ap_enumerate.self_s": "s",
    "affine_weyl.regular_factorization.calls": "count",
    "affine_weyl.multiply.calls": "count", "affine_weyl.elements_built": "count",
    "weights.canonical.calls": "count", "weights.canonical.self_s": "s",
    "inertial_types.w_tilde.calls": "count", "inertial_types.w_tilde.self_s": "s",
    "weight_sets.w_question.self_s": "s", "weight_sets.w_question.size": "count",
    "weight_sets.w_question.obvious": "count",
    "weight_sets.w_question.max_defect": "count",
    "weight_sets.w_question.hit_ratio": "ratio",
    "weight_sets.intersection.calls": "count",
    "weight_sets.intersection.self_s": "s",
    "weight_sets.intersection.scanned": "count",
    "weight_sets.bm_cycles.self_s": "s",
    "weight_sets.jh_set.self_s": "s", "weight_sets.jh_set.size": "count",
    "weight_sets.covers.calls": "count", "weight_sets.covers.self_s": "s",
    "weight_sets.max_defect_weight.self_s": "s",
    "modp_flag.monodromy_solve.calls": "count",
    "modp_flag.monodromy_solve.self_s": "s",
    "modp_flag.monodromy_solve.errors": "count",
    "modp_flag.monodromy_solve.pivot_margin_min": "count",
    "modp_flag.monodromy_solve.required_genericity": "count",
    "modp_flag.nabla_matrix.calls": "count", "modp_flag.nabla_matrix.self_s": "s",
    "modp_flag.LaurentMatrix.inverse.calls": "count",
    "modp_flag.LaurentMatrix.inverse.self_s": "s",
    "modp_flag.verify_nabla.self_s": "s",
    "modp_flag.component_data.self_s": "s",
    "modp_flag.component_data.bound_size": "count",
    "bk_gauge.straighten.calls": "count", "bk_gauge.straighten.self_s": "s",
    "bk_gauge.straighten.errors": "count", "bk_gauge.straighten.rounds": "count",
    "bk_gauge.straighten.round_cap": "count", "bk_gauge.straighten.peak_mb": "MB",
    "bk_gauge.SeriesMatrix.frobenius.calls": "count",
    "bk_gauge.SeriesMatrix.frobenius.self_s": "s",
    "bk_gauge.SeriesMatrix.frobenius.bytes": "bytes",
    "bk_gauge.SeriesMatrix.inverse.calls": "count",
    "bk_gauge.SeriesMatrix.inverse.self_s": "s",
    "bk_gauge.SeriesMatrix.mul.calls": "count",
    "bk_gauge.SeriesMatrix.mul.self_s": "s",
    "bk_gauge.frobenius_twist.calls": "count",
    "trace.jobs": "count", "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# the closed loop

def drive(rounds, trace, execute):
    """Run the jobs of `rounds` one at a time.  One untimed set-up job warms
    the file cache first.  Each round starts with SETUP_PER_ROUND set-up
    jobs, so that setup_s samples the whole run, and a reference job runs
    before every job, so that the host's speed is sampled as often as the
    jobs are.  With trace, each job runs untraced and then traced, so both
    sides execute the same list.  Returns [(job, untraced outcome, traced
    outcome or None)] and the set-up and reference outcomes."""
    done, setups, refs = [], [], []
    execute(bench.SETUP_JOB, False)
    for jobs in rounds:
        setups += [execute(bench.SETUP_JOB, False)
                   for _ in range(bench.SETUP_PER_ROUND)]
        for job in jobs:
            refs.append(execute(bench.REFERENCE_JOB, False))
            plain = execute(job, False)
            done.append((job, plain, execute(job, True) if trace else None))
    return done, setups, refs


def executor(root: Path, work: Path):
    env = bench.job_env(root)
    tracer_py = str(Path(tracer.__file__).resolve())
    count = [0]

    def execute(job, traced):
        if not traced:
            return bench.spawn(bench.job_cmd(job), job.stdin, env, work)
        count[0] += 1
        out_json = work / f"trace-{count[0]}.json"
        cmd = [sys.executable, tracer_py, str(out_json), job.id, "--", *job.argv]
        out = bench.spawn(cmd, job.stdin, env, work)
        if out_json.exists():
            out.trace = json.loads(out_json.read_text())
            out_json.unlink()
        return out
    return execute


# ---------------------------------------------------------------------------
# metrics

def summarize(done):
    verdicts = Counter()
    times, wrong = [], 0
    for job, plain, traced in done:
        v = bench.verdict(job, plain)
        verdicts[v] += 1
        times.append(plain.wall_s if v == bench.OK else INF)
        if traced is not None and traced.rc == 0 and \
                bench.verdict(job, traced) == bench.WRONG:
            wrong += 1  # the traced run must not change an answer
    attempted = len(done)
    failed = attempted - verdicts[bench.OK]
    correct = verdicts[bench.WRONG] + verdicts[bench.FAIL_NEW] + wrong == 0
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "verdicts": dict(verdicts), "times": times,
            "rss": [plain.maxrss_mb for _, plain, _ in done],
            "runs": [plain for _, plain, _ in done], "ok": verdicts[bench.OK]}


def end_to_end(setups, s, scale_at):
    """The end-to-end metrics with the wall time of every job and set-up
    outcome o multiplied by scale_at(o.start_s) (bench.speed_scale; a
    function giving 1 yields wall seconds).  jobs_per_s divides the jobs that
    checked by the summed time of all jobs, failed ones included."""
    times = [t if t == INF else t * scale_at(o.start_s)
             for t, o in zip(s["times"], s["runs"])]
    setup = [o.wall_s * scale_at(o.start_s) for o in setups]
    busy = sum(o.wall_s * scale_at(o.start_s) for o in s["runs"])
    q = tail_percentile(len(times))
    beyond = sum(1 for t in times if t > bench.percentile(times, q))
    return {
        "setup_s": (statistics.median(setup), len(setup), bench.iqr(setup)),
        "jobs_per_s": (s["ok"] / busy, s["attempted"], None),
        "job_s.p50": (bench.percentile(times, 50), len(times), bench.iqr(times)),
        "job_s.tail": (bench.percentile(times, q), len(times), bench.iqr(times)),
        "peak_rss_mb": (max(s["rss"]), len(s["rss"]), bench.iqr(s["rss"])),
    }, q, beyond


def tail_percentile(n: int) -> int:
    """The highest whole percentile whose nearest-rank value has at least
    TAIL_BEYOND of n jobs ranked beyond it; p50 when n is too small.  A run's
    job count depends only on the workload and --seconds, so runs of a
    workload are compared at the same percentile."""
    return max(50, 100 * (n - TAIL_BEYOND) // n) if n else 50


def per_layer(done):
    calls, self_s, errors = Counter(), Counter(), Counter()
    found, sums = Counter(), Counter()
    maxima, minima, caches = {}, {}, Counter()
    for _, plain, traced in done:
        doc = traced.trace if traced is not None else None
        if doc is None:
            continue
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, raised in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, raised), c in zip(spans, child):
            calls[name] += 1
            self_s[name] += end - start - c
            errors[name] += raised
        found.update(doc["counts"])
        sums.update(doc["sums"])
        sums["cli.import_s"] += doc["import_s"]
        sums["cli.emit_bytes"] += doc["emit_bytes"]
        for k, v in doc["maxima"].items():
            maxima[k] = max(maxima.get(k, v), v)
        for k, v in doc["minima"].items():
            minima[k] = min(minima.get(k, v), v)
        for k, (hits, misses) in doc["caches"].items():
            caches[k + ".hits"] += hits
            caches[k + ".misses"] += misses
    traced = [t.wall_s for _, _, t in done if t is not None]
    plain = [p.wall_s for _, p, t in done if t is not None]
    out = {}
    for name in PER_LAYER:
        stem, stat = name.rsplit(".", 1)
        if stem in _SPAN_NAMES and stat in ("calls", "self_s", "errors"):
            value = {"calls": calls, "self_s": self_s, "errors": errors}[stat][stem]
        elif stat == "hit_ratio":
            hits, misses = caches[stem + ".hits"], caches[stem + ".misses"]
            value = hits / (hits + misses) if hits + misses else 0.0
        elif name == "trace.jobs":
            value = len(traced)
        elif name == "trace.overhead":
            value = statistics.median(traced) / statistics.median(plain) if traced else 0.0
        else:
            value = (found.get(name) or sums.get(name) or maxima.get(name)
                     or minima.get(name) or 0)
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# environment

def environment(root: Path, args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "seed": args.seed, "seconds": args.seconds,
            "rounds": bench.rounds_for(args.workload, args.seconds),
            "workload": args.workload, "trace": args.trace,
            "AWBM_MAX_LEN": bench.MAX_LEN,
            "load_model": "closed loop, one client, one job at a time"}


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "awbm" / "cli.py").is_file():
        print(f"no awbm source under {root / 'src'}: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))   # for the straightening round trip
    (root / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_out"))
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, work):
    rounds = bench.rounds_for(args.workload, args.seconds)
    done, setups, refs = drive(bench.plan(args.workload, args.seed, rounds),
                               args.trace, executor(root, work))
    ref_times = [o.wall_s for o in refs]
    setup_ok = all(bench.verdict(bench.SETUP_JOB, o) == bench.OK for o in setups)
    ref_ok = all(bench.verdict(bench.REFERENCE_JOB, o) == bench.OK for o in refs)
    s = summarize(done)
    scale_at = bench.speed_scale(refs)
    scales = [scale_at(o.start_s) for o in s["runs"]]
    e2e, q, beyond = end_to_end(setups, s, scale_at)
    wall_e2e, _, _ = end_to_end(setups, s, lambda t: 1.0)
    fail_ratio = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    correct = s["correct"] and setup_ok and ref_ok and s["attempted"] > 0

    def finite(v):  # a failed job misses every limit: at least the kill timeout
        return bench.JOB_TIMEOUT_S if v == INF else v

    print(f"awbm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} rounds={rounds} trace={args.trace}")
    print(f"  reference job: median {statistics.median(ref_times):.4f} s of "
          f"{len(ref_times)}; times below are scaled to reference speed by "
          f"{min(scales):.3f}..{max(scales):.3f} (wall value in brackets)")
    for name, (value, n, spread) in e2e.items():
        note = f"n={n}" + ("" if spread is None else f" iqr={spread:.4g}")
        if name == "job_s.tail":
            note += f" p{q}, {beyond} jobs beyond"
        print(f"  {name:<14} {finite(value):>12.4f} {END_TO_END[name]:<5} "
              f"[{finite(wall_e2e[name][0]):.4f}] ({note})")
    print(f"  {'fail_ratio':<14} {fail_ratio:>12.4f} {'ratio':<5} "
          f"({s['failed']} of {s['attempted']}: {s['verdicts']})")
    report = {"environment": environment(root, args),
              "end_to_end": {k: {"value": finite(v), "unit": END_TO_END[k],
                                 "samples": n, "iqr": spread}
                             for k, (v, n, spread) in e2e.items()},
              "wall": {k: finite(v) for k, (v, _, _) in wall_e2e.items()},
              "reference_s": {"median": statistics.median(ref_times),
                              "samples": len(ref_times), "iqr": bench.iqr(ref_times),
                              "scale_median": statistics.median(scales),
                              "scale_min": min(scales), "scale_max": max(scales)},
              "fail_ratio": {"value": fail_ratio, "unit": "ratio",
                             "samples": s["attempted"]},
              "tail_percentile": q, "jobs_beyond_tail": beyond,
              "verdicts": s["verdicts"], "correct": correct}
    if args.trace:
        layers = per_layer(done)
        for name, value in layers.items():
            print(f"  {name:<48} {value:>14.6g} {PER_LAYER[name]}")
        report["per_layer"] = layers
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": finite(v), "unit": END_TO_END[k]}
                   for k, (v, _, _) in e2e.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
