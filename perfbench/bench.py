"""Shared pieces of the awbm benchmark: the job catalog, the seeded job plan,
process spawning with per-job resource usage, and the output checker.

A job is one `awbm` CLI invocation (argv plus optional stdin).  The catalog
for a workload is a list of cells; each cell holds a few interchangeable
instances of one job family.  A round takes one instance from every cell, in
the cell order, so every round has the same family shares; the seed decides
which instance each round takes.  A run is a fixed number of whole rounds, so
the jobs it attempts, and those that fail, depend only on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOG_DIR = HERE / "catalog"
WORKLOADS = ("orders", "weightsets", "flag-gauge")
MAX_LEN = "40"          # AWBM_MAX_LEN for every job: the default 12 refuses
                        # adm (5,3,1,0) and GL4 lambda+eta
JOB_TIMEOUT_S = 60.0    # a hung job is killed and counted as failed
SETUP_PER_ROUND = 1     # set-up jobs at the start of every round
REFERENCE_S = 0.0125    # the reference job's nominal wall time, see speed_scale
REFERENCE_NEAREST = 9   # reference samples that set the speed at one moment
ROUNDS_AT_30S = {       # rounds in a run of --seconds 30, see rounds_for
    "orders": 4, "weightsets": 2, "flag-gauge": 4}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    stdin: str | None
    check: dict          # semantic check spec, {} when the digest decides
    expect_exit: int
    expect_sha256: str | None


def load_catalog(workload: str) -> list[list[list[Job]]]:
    """Cells of units of jobs.  A unit is one instance; it holds several jobs
    when one feeds the next (monodromy output piped into nabla)."""
    doc = json.loads((CATALOG_DIR / f"{workload}.json").read_text())
    return [[[Job(j["id"], tuple(j["argv"]), j["stdin"], j["check"],
                  j["expect"]["exit"], j["expect"]["sha256"])
              for j in unit] for unit in cell["units"]]
            for cell in doc["cells"]]


def rounds_for(workload: str, seconds: float) -> int:
    """The number of rounds a run makes: ROUNDS_AT_30S scaled to `seconds`.
    At 30 s, orders and flag-gauge run every catalog job once, so their known
    failures do not depend on the seed, and a run's jobs took 22-34 s at the
    recording commit (a round of orders 8.0 s, weightsets 11.1 s, flag-gauge
    8.4 s).  The count does not depend on the speed of the code under test,
    so a faster program runs the same jobs in less time."""
    return max(1, round(ROUNDS_AT_30S[workload] * seconds / 30))


def plan(workload: str, seed: int, rounds: int) -> list[list[Job]]:
    """The rounds (lists of jobs) of a run of a workload for a seed.  Each
    cell cycles through a seeded permutation of its units, so a unit repeats
    only after the whole cell has been used: a run of as many rounds as a
    cell has units runs every unit once, in an order the seed decides."""
    cells = load_catalog(workload)
    rng = random.Random(f"awbm-bench:{workload}:{seed}")
    orders = [rng.sample(units, len(units)) for units in cells]
    return [[job for order in orders for job in order[r % len(order)]]
            for r in range(rounds)]


# ---------------------------------------------------------------------------
# spawning

def job_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["AWBM_MAX_LEN"] = MAX_LEN
    env.pop("AWBM_TRACE", None)
    return env


@dataclass
class Outcome:
    rc: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    trace: dict | None = None   # what tracer.py saw, for traced jobs
    start_s: float = 0.0        # perf_counter at spawn


def spawn(cmd, stdin: str | None, env: dict, scratch: Path) -> Outcome:
    """Run one process from spawn to exit; max RSS comes from wait4 rusage.
    Streams go through files so that a large output cannot block the child."""
    sin, sout, serr = (scratch / n for n in ("stdin", "stdout", "stderr"))
    sin.write_bytes((stdin or "").encode())
    with open(sin, "rb") as fin, open(sout, "wb") as fout, \
            open(serr, "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr,
                                env=env)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   sout.read_bytes(), serr.read_bytes(), start_s=t0)


def cli_cmd(argv) -> list:
    return [sys.executable, "-m", "awbm.cli", *argv]


# ---------------------------------------------------------------------------
# checking

OK, FAIL_KNOWN, FAIL_NEW, WRONG = "ok", "fail_known", "fail_new", "wrong"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the trivial job whose wall time is setup_s: interpreter, import, parse, emit
SETUP_JOB = Job("setup", ("len", "--n", "2", "--a", "e"), None, {}, 0,
                sha256(b'{"length":0}\n'))


# The reference job is a bare interpreter start, which runs none of awbm's
# code.  On a shared VM the cost of starting a process, which dominates most
# jobs, drifts by up to a factor of two within minutes; the reference tracks
# that drift.  See speed_scale.
REFERENCE_JOB = Job("reference", (), None, {}, 0, sha256(b""))


def job_cmd(job: Job) -> list:
    if job is REFERENCE_JOB:
        return [sys.executable, "-S", "-c", "pass"]
    return cli_cmd(job.argv)


def speed_scale(references):
    """A function from a moment of the run (perf_counter) to the factor that
    turns wall seconds spent then into seconds at the reference speed:
    REFERENCE_S over the median of the REFERENCE_NEAREST reference outcomes
    that started nearest that moment, so drift within a run cancels too.  The
    reference job runs none of the program's code, so a change to awbm moves
    the scaled times as it moves the wall times, while a slower or faster
    host moves both the jobs and the reference and cancels out."""
    def scale_at(t: float) -> float:
        near = sorted(references, key=lambda o: abs(o.start_s - t))
        return REFERENCE_S / statistics.median(
            o.wall_s for o in near[:REFERENCE_NEAREST])
    return scale_at


def verdict(job: Job, out: Outcome) -> str:
    """ok: exit 0, no traceback, output checks.  wrong: exit 0 but the output
    differs from the seed's digest or fails its semantic check.  fail_known:
    the job also failed at the seed (a recorded defect).  fail_new: the job
    succeeded at the seed and fails now.  Every verdict but ok is a failed
    job; wrong and fail_new also make the run incorrect."""
    if out.rc != 0 or b"Traceback (most recent call last)" in out.stderr:
        return FAIL_KNOWN if job.expect_exit != 0 else FAIL_NEW
    if job.expect_exit == 0 and sha256(out.stdout) != job.expect_sha256:
        return WRONG
    return OK if semantic_ok(job, out.stdout) else WRONG


def semantic_ok(job: Job, stdout: bytes) -> bool:
    kind = job.check.get("kind")
    if kind is None:
        return True
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    if kind == "leq":
        return doc == {"leq": job.check["answer"]}
    return straighten_roundtrip(job, doc)


def straighten_roundtrip(job: Job, doc) -> bool:
    """recover_left_factor(A, I, z, .) gives back X, and every I_j is in Iw1.
    The printed I is known mod v^M and A^-1 has a pole of order h, so X comes
    back mod v^(M-h).  Imports the library of the checkout under test."""
    from awbm.bk_gauge import SeriesMatrix, recover_left_factor
    from awbm.cli import parse_tuple
    args = dict(zip(job.argv[1::2], job.argv[2::2]))
    n, f = int(args["--n"]), int(args["--f"])
    M = int(args["--M"]) - int(args["--h"])
    inp = json.loads(job.stdin)
    A = [SeriesMatrix.from_json(m) for m in inp["A"]]
    X = [SeriesMatrix.from_json(m) for m in inp["X"]]
    try:
        Imat = [SeriesMatrix.from_json(m) for m in doc]
        if len(Imat) != f or not all(m.is_iw1() for m in Imat):
            return False
        back = recover_left_factor(A, Imat, parse_tuple(args["--z"], n, f), M)
    except Exception:  # any error on the program's output means it is wrong
        return False
    return all(b.equal_mod(x.truncate(M), M) for b, x in zip(back, X))


# ---------------------------------------------------------------------------
# statistics

def percentile(values, q: float) -> float:
    """Nearest-rank percentile; +inf entries (failed jobs) sort last."""
    xs = sorted(values)
    k = max(1, -(-len(xs) * q // 100))
    return xs[int(k) - 1]


def iqr(values) -> float:
    finite = [v for v in values if v != float("inf")]
    if len(finite) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(finite, n=4)
    return q3 - q1
