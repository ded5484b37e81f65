"""Build each workload's job catalog and record every job's exit code and
stdout digest at the commit this runs on.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the repository root.  Each cell draws its inputs from a fixed seed
of its own, so the catalog only changes when this file does.  The library is used here to build
inputs (weights of a given depth, admissible elements, random matrices) and to
verify the answers of the long order queries by construction; the benchmark
itself only reads the resulting `catalog/<workload>.json`.

Jobs are recorded as they behave at this commit.  Only two families may fail
here, both known defects: long Bruhat/up queries that exceed the recursion
limit, and n=3 straightening with pole height h >= 1 ("inverse lost too much
precision").  Any other failure rejects the candidate input.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import sys
import threading
from pathlib import Path

import bench

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
os.environ["AWBM_MAX_LEN"] = bench.MAX_LEN

from awbm.affine_weyl import (  # noqa: E402
    GroupContext, WeylElement, WeylTuple, adm, bruhat_leq, eta_vector, finite,
    invert, length, multiply, perm_act, perm_inverse, restricted_classes,
    translation, up_leq,
)
from awbm.bk_gauge import Coefficients, SeriesMatrix, TwistData  # noqa: E402
from awbm.inertial_types import make_type  # noqa: E402
from awbm.modp_flag import required_genericity  # noqa: E402
from awbm.weight_sets import _aux_type_from_element, jh_set  # noqa: E402
from awbm.weights import weight_depth_base  # noqa: E402

POOL = 4   # instances per cell: a run of about four rounds then uses each
           # once, so the job mix hardly depends on the seed


# ---------------------------------------------------------------------------
# argument formatting

def vec(v):
    return ",".join(str(int(x)) for x in v)


def elt(e: WeylElement):
    return f"{vec(e.w)}@{vec(e.nu)}"


def tup(t):
    return ";".join(elt(e) for e in t)


def rows(rs):
    return ";".join(vec(r) for r in rs)


def perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# input generators

def deep_mu(n, p, depth, rng, tries=5000):
    """A weight depth-deep in the base p-alcove, or None if there is none."""
    for _ in range(tries):
        gaps = [rng.randrange(depth + 1, max(depth + 2, p - depth))
                for _ in range(n - 1)]
        tail = [0] * n
        for i in range(n - 2, -1, -1):
            tail[i] = tail[i + 1] + gaps[i]
        shift = rng.randrange(0, p)
        mu = tuple(t + shift - e for t, e in zip(tail, eta_vector(n)))
        if weight_depth_base(mu, p) >= depth:
            return mu
    return None


def f_type(n, f, p, depth, rng):
    mu = tuple(deep_mu(n, p, depth, rng) for _ in range(f))
    s = WeylTuple(tuple(finite(rng.choice(perms(n))) for _ in range(f)))
    return make_type(GroupContext(n, f, p), s, mu, kind="F")


def type_args(tau, prefix):
    return [f"--{prefix}s", tup(tau.s), f"--{prefix}mu", rows(tau.mu)]


def ctx_args(n, f, p):
    return ["--n", str(n), "--f", str(f), "--p", str(p)]


def translation_length(lam):
    return sum(abs(a - b) for a, b in itertools.combinations(lam, 2))


def long_weight(n, target, rng):
    """A dominant weight of degree 0 whose translation has length near
    target, with room to lower its top and raise its bottom entry."""
    while True:
        gaps = [rng.randint(1, 100) for _ in range(n - 1)]
        base = translation_length(_from_gaps(gaps))
        gaps = [max(2, round(g * target / base)) for g in gaps]
        lam = _from_gaps(gaps)
        while sum(lam) % n:
            gaps[0] += 1
            lam = _from_gaps(gaps)
        lam = tuple(x - sum(lam) // n for x in lam)
        if abs(translation_length(lam) - target) <= max(3, target // 25):
            return lam


def _from_gaps(gaps):
    lam = [0]
    for g in reversed(gaps):
        lam.insert(0, lam[0] + g)
    return tuple(lam)


def iwahori(field, n, rng, length=6):
    ent = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for e in range(length):
                if i > j and e == 0:
                    continue
                c = field.rand_scalar(rng)
                if c.any():
                    ent[(i, j, e)] = c
        ent[(i, i, 0)] = field.rand_scalar(rng, nonzero=True)
    return SeriesMatrix.from_entries(field, n, ent, None)


def iw1(field, n, rng, length=5):
    m = iwahori(field, n, rng, length)
    for i in range(n):
        m.coeffs[i, i, :, 0] = 0
        m.coeffs[i, i, 0, 0] = 1
    return m


def bounded_height(field, n, rng, h, length=4):
    lam = tuple(sorted((rng.randrange(h + 1) for _ in range(n)), reverse=True))
    mid = SeriesMatrix.from_entries(
        field, n, {(i, i, lam[i - 1]): 1 for i in range(1, n + 1)})
    return iwahori(field, n, rng, length) * mid * iwahori(field, n, rng, length)


def generic_vector(n, p, bound, rng):
    while True:
        a = tuple(rng.randrange(p) for _ in range(n))
        if all((a[i] - a[j]) % p > bound and (a[j] - a[i]) % p > bound
               for i in range(n) for j in range(i + 1, n)):
            return a


def job(argv, stdin=None, check=None):
    return {"argv": [str(a) for a in argv], "stdin": stdin,
            "check": check or {}}


# ---------------------------------------------------------------------------
# orders: group law, length and the recursive Bruhat test

def orders_cells():
    variants = ["all", "regular", "dual"]

    def adm_cell(n, weights):
        def gen(rng):
            combos = list(itertools.product(weights, variants))
            for lam, v in rng.sample(combos, len(combos)):
                yield [job(["adm", "--n", n, "--lambda", vec(lam), "--variant", v])]
        return gen

    def ap_cell(n, weights):
        def gen(rng):
            for lam in weights:
                yield [job(["ap", "--n", n, "--lambda", vec(lam)])]
        return gen

    def interval_cell(n):
        def gen(rng):
            while True:
                e = WeylElement(rng.choice(perms(n)),
                                tuple(rng.randint(-3, 3) for _ in range(n)))
                if 8 <= length(e) <= 14:
                    yield [job(["interval", "--n", n, "--a", elt(e)])]
        return gen

    def long_cell(kind, truth):
        def gen(rng):
            for i in range(POOL):
                n = 3 + i % 2
                lam = long_weight(n, round(40 + i * 760 / (POOL - 1)), rng)
                if i % 4 < 2:
                    small = (0,) * n
                else:
                    k = rng.randint(1, min(lam[0] - lam[1], lam[-2] - lam[-1]))
                    small = (lam[0] - k,) + lam[1:-1] + (lam[-1] + k,)
                a, b = translation(small), translation(lam)
                if not truth:
                    a, b = b, a
                yield [job([kind, "--n", n, "--a", elt(a), "--b", elt(b)],
                           check={"kind": "leq", "answer": truth})]
        return gen

    return [
        ("adm-gl4-heavy", adm_cell(4, [(5, 3, 1, 0), (5, 2, 1, 0), (4, 3, 1, 0)])),
        ("bruhat-true", long_cell("bruhat", True)),
        ("interval-gl3", interval_cell(3)),
        ("ap-gl4", ap_cell(4, [(4, 3, 1, 0), (5, 2, 1, 0), (5, 3, 1, 0),
                               (5, 3, 2, 0)])),
        ("up-false", long_cell("up", False)),
        ("bruhat-false", long_cell("bruhat", False)),
        ("interval-gl3-b", interval_cell(3)),
        ("adm-gl4-heavy-b", adm_cell(4, [(5, 3, 1, 0), (5, 2, 1, 0), (4, 3, 1, 0)])),
        ("adm-gl3", adm_cell(3, [(2, 1, 0), (3, 1, 0), (4, 2, 0), (5, 3, 1),
                                 (3, 3, 0), (4, 1, 0)])),
        ("up-true", long_cell("up", True)),
        ("ap-gl4-b", ap_cell(4, [(5, 3, 1, 0), (5, 2, 1, 0), (4, 3, 1, 0),
                                 (4, 2, 1, 0)])),
        ("interval-gl4", interval_cell(4)),
        ("adm-gl4", adm_cell(4, [(3, 2, 1, 0), (4, 3, 2, 0), (4, 2, 2, 0),
                                 (4, 1, 1, 0), (3, 3, 1, 0)])),
        ("ap-gl3", ap_cell(3, [(2, 1, 0), (4, 2, 0), (5, 3, 1), (5, 2, 0),
                               (6, 3, 0), (4, 3, 0)])),
    ]


def verify_long_queries(units):
    """Check each by-construction answer against the library, with the
    recursion limit out of the way (deep stack in a worker thread)."""
    bad = []

    def work():
        sys.setrecursionlimit(200000)
        for unit in units:
            for j in unit:
                if j["check"].get("kind") != "leq":
                    continue
                n = int(j["argv"][2])
                from awbm.cli import parse_element
                a, b = (parse_element(j["argv"][k], n) for k in (4, 6))
                fn = bruhat_leq if j["argv"][0] == "bruhat" else up_leq
                if fn(a, b) != j["check"]["answer"]:
                    bad.append(j["argv"])
    threading.stack_size(512 * 2 ** 20)
    t = threading.Thread(target=work)
    t.start()
    t.join()
    if bad:
        raise SystemExit(f"construction disagrees with the library: {bad}")


# ---------------------------------------------------------------------------
# weightsets: W?, intersections and the cycle solver

def weightsets_cells():
    primes = [211, 307]

    def bm_cell(n, f):
        def gen(rng):
            while True:
                p = rng.choice(primes)
                rho = f_type(n, f, p, 2 * n + 1, rng)
                yield [job(["bm", *ctx_args(n, f, p), *type_args(rho, "r")])]
        return gen

    def wq_cell(n, f):
        def gen(rng):
            while True:
                p = rng.choice(primes)
                rho = f_type(n, f, p, 2 * n + 1, rng)
                yield [job(["wq", *ctx_args(n, f, p), "--s", tup(rho.s),
                            "--mu", rows(rho.mu)])]
        return gen

    def intersect_cell(n):
        """tau as in acceptance criterion 08: w~(tau) = w~(rhobar) g^-1 with g
        a translation t_{s^-1(lam+eta)} or a random element of Adm(lam+eta)."""
        def gen(rng):
            eta = eta_vector(n)
            while True:
                p = rng.choice(primes)
                ctx = GroupContext(n, 1, p)
                rho = f_type(n, 1, p, 3 * (n - 1) + 2, rng)
                lam = tuple(sorted((rng.randrange(2) for _ in range(n)),
                                   reverse=True))
                lpe = tuple(l + e for l, e in zip(lam, eta))
                if rng.random() < 0.5:
                    g = translation(perm_act(perm_inverse(rng.choice(perms(n))), lpe))
                else:
                    g = rng.choice(adm(lpe))
                tau = _aux_type_from_element(
                    ctx, WeylTuple((multiply(rho.w_tilde()[0], invert(g)),)))
                yield [job(["intersect", *ctx_args(n, 1, p), *type_args(rho, "r"),
                            *type_args(tau, "t"), "--lambda", vec(lam),
                            "--force"])]
        return gen

    def maxdefect_cell(n):
        """tau as in acceptance criterion 09: g regular eta-admissible."""
        def gen(rng):
            reg = adm(eta_vector(n), "regular")
            while True:
                p = rng.choice(primes)
                ctx = GroupContext(n, 1, p)
                rho = f_type(n, 1, p, 3 * (n - 1) + 2, rng)
                g = rng.choice(reg)
                tau = _aux_type_from_element(
                    ctx, WeylTuple((multiply(rho.w_tilde()[0], invert(g)),)))
                yield [job(["maxdefect", *ctx_args(n, 1, p), *type_args(rho, "r"),
                            *type_args(tau, "t"), "--force"])]
        return gen

    def jh_cell(n):
        def gen(rng):
            while True:
                p = rng.choice(primes)
                tau = make_type(GroupContext(n, 1, p),
                                [rng.choice(perms(n))], [deep_mu(n, p, 2 * n, rng)])
                lam = tuple(sorted((rng.randrange(2) for _ in range(n)),
                                   reverse=True))
                yield [job(["jh", *ctx_args(n, 1, p), "--s", tup(tau.s),
                            "--mu", rows(tau.mu), "--lambda", vec(lam)])]
        return gen

    def covers_cell():
        """Pairs from one GL3 JH family, as in acceptance criterion 07."""
        def gen(rng):
            ctx = GroupContext(3, 1, 211)
            fam = jh_set(make_type(ctx, [(1, 2, 3)], [(80, 40, 0)]), ((1, 1, 0),))
            while True:
                a, b = rng.choice(fam), rng.choice(fam)
                yield [job(["covers", *ctx_args(3, 1, 211),
                            "--w1a", tup(a.w1), "--omegaa", rows(a.omega),
                            "--w1b", tup(b.w1), "--omegab", rows(b.omega)])]
        return gen

    return [
        ("wq-gl4-f2", wq_cell(4, 2)),
        ("covers-gl3", covers_cell()),
        ("jh-gl4", jh_cell(4)),
        ("bm-gl3-f1", bm_cell(3, 1)),
        ("intersect-gl3", intersect_cell(3)),
        ("bm-gl3-f2", bm_cell(3, 2)),
        ("maxdefect-gl3", maxdefect_cell(3)),
        ("covers-gl3-b", covers_cell()),
        ("bm-gl4-f1", bm_cell(4, 1)),
        ("intersect-gl3-b", intersect_cell(3)),
        ("wq-gl3-f3", wq_cell(3, 3)),
        ("bm-gl3-f1-b", bm_cell(3, 1)),
        ("covers-gl3-c", covers_cell()),
        ("jh-gl4-b", jh_cell(4)),
        ("maxdefect-gl3-b", maxdefect_cell(3)),
        ("bm-gl3-f2-b", bm_cell(3, 2)),
        ("intersect-gl3-c", intersect_cell(3)),
    ]


# ---------------------------------------------------------------------------
# flag-gauge: the monodromy solver and the series/gauge calculus

@functools.lru_cache(maxsize=None)
def top_cells(n):
    eta = eta_vector(n)
    top = length(translation(eta))
    return [w for w in adm(eta) if length(w) >= top - 2]


def flag_gauge_cells():

    def monodromy_cell(n, p):
        """Top cells of Adm(eta): elements within two of the maximal length;
        each solution is then piped into nabla."""
        def gen(rng):
            cells = top_cells(n)
            while True:
                wt = rng.choice(cells)
                a = generic_vector(n, p, required_genericity(wt), rng)
                from awbm.modp_flag import cell_geometry
                free = {f"{i},{k}": rng.randrange(1, p)
                        for (i, k), _ in cell_geometry(wt).degrees}
                yield [job(["monodromy", "--n", n, "--p", p, "--w", elt(wt),
                            "--abar", vec(a), "--free",
                            json.dumps(free, sort_keys=True)]),
                       job(["nabla", "--n", n, "--matrix", "-", "--abar", vec(a)],
                           stdin="<previous stdout>")]
        return gen

    def straighten_cell(configs, may_fail=False):
        """Exact inputs: A of pole height <= h, X in Iw1, z from an
        (h+1)-deep twist weight."""
        def gen(rng):
            while True:
                n, f, p, M, h = rng.choice(configs)
                field, ctx = Coefficients(p), GroupContext(n, f, p)
                mu = tuple(deep_mu(n, p, h + 1, rng) for _ in range(f))
                s = WeylTuple(tuple(finite(rng.choice(perms(n))) for _ in range(f)))
                z = TwistData(s, mu, ctx).dual_element()
                doc = {"A": [bounded_height(field, n, rng, h).to_json()
                             for _ in range(f)],
                       "X": [iw1(field, n, rng).to_json() for _ in range(f)]}
                unit = [job(["straighten", *ctx_args(n, f, p), "--z", tup(z),
                             "--M", M, "--h", h],
                            stdin=json.dumps(doc, separators=(",", ":")),
                            check={"kind": "roundtrip"})]
                unit[0]["may_fail"] = may_fail
                yield unit
        return gen

    def grid(ns, fs, ps, Ms, hs):
        return [c for c in itertools.product(ns, fs, ps, Ms, hs)
                if deep_mu(c[0], c[2], c[4] + 1, random.Random(0)) is not None]

    def gl3_twist_cell(kind):
        def gen(rng):
            n, p = 3, 211
            ctx = GroupContext(n, 1, p)
            field = Coefficients(p)
            while True:
                mu = deep_mu(n, p, 3, rng)
                s = rng.choice(perms(n))
                M = rng.choice([40, 80])
                args = [*ctx_args(n, 1, p), "--s", vec(s), "--mu", vec(mu),
                        "--M", M]
                if kind == "cob":
                    # truncated inputs: exact ones make the basis change
                    # work to its 10^6 cap
                    doc = {"A": [bounded_height(field, n, rng, 0).truncate(2 * M).to_json()],
                           "I": [iw1(field, n, rng).truncate(2 * M).to_json()]}
                    yield [job(["cob", *args], stdin=json.dumps(doc))]
                else:
                    yield [job(["twist", *args, "--matrix", "-"],
                               stdin=json.dumps(iw1(field, n, rng).to_json()))]
        return gen

    def component_cell():
        def gen(rng):
            n, p = 3, 211
            classes = restricted_classes(n)
            while True:
                w1 = rng.choice(classes)
                omega = deep_mu(n, p, 2 * n, rng)
                yield [job(["component", *ctx_args(n, 1, p), "--w1", elt(w1),
                            "--omega", vec(omega)])]
        return gen

    def fiber_cell():
        def gen(rng):
            n, p = 3, 211
            while True:
                mu = deep_mu(n, p, 2 * n, rng)
                lam = rng.choice([(2, 1, 0), (3, 1, 0), (3, 2, 0), (4, 2, 0)])
                yield [job(["fiber", *ctx_args(n, 1, p), "--ts",
                            vec(rng.choice(perms(n))), "--tmu", vec(mu),
                            "--lambda", vec(lam)])]
        return gen

    return [
        ("monodromy-gl5-p211", monodromy_cell(5, 211)),
        ("straighten-n2", straighten_cell(grid([2], [1, 2], [7, 101],
                                               [40, 200, 400], [0, 1]))),
        ("straighten-p10007-n2-f1", straighten_cell(grid([2], [1], [10007],
                                                         [400], [0, 1, 2]))),
        ("monodromy-gl4-p101", monodromy_cell(4, 101)),
        ("straighten-n3-h1", straighten_cell(grid([3], [1, 2], [101, 211],
                                                  [40, 200], [1]), True)),
        ("cob-gl3", gl3_twist_cell("cob")),
        ("straighten-p10007-n3", straighten_cell([(3, 2, 10007, 400, 0)])),
        ("monodromy-gl5-p101", monodromy_cell(5, 101)),
        ("straighten-n3-h0", straighten_cell(grid([3], [1, 2], [7, 101],
                                                  [40, 200, 400], [0]))),
        ("component-gl3", component_cell()),
        ("straighten-p10007-n2-f2", straighten_cell(grid([2], [2], [10007],
                                                         [400], [0, 1, 2]))),
        ("monodromy-gl4-p211", monodromy_cell(4, 211)),
        ("twist-gl3", gl3_twist_cell("twist")),
        ("straighten-n3-h2", straighten_cell(grid([3], [1, 2], [101, 211],
                                                  [40, 200], [2]), True)),
        ("fiber-gl3", fiber_cell()),
    ]


CELLS = {"orders": orders_cells, "weightsets": weightsets_cells,
         "flag-gauge": flag_gauge_cells}
MAY_FAIL = {"bruhat-true", "up-true"}   # long queries past the recursion limit


# ---------------------------------------------------------------------------
# recording

def record(workload):
    env = bench.job_env(ROOT)
    scratch = ROOT / ".bench_out" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    cells_out = []
    for name, make in CELLS[workload]():
        units, seen, tries = [], set(), 0
        for unit in make(random.Random(f"{workload}/{name}")):
            tries += 1
            if tries > 20 * POOL:
                break
            key = json.dumps([j["argv"] for j in unit])
            if key in seen:
                continue
            may_fail = name in MAY_FAIL or unit[0].pop("may_fail", False)
            ok, prev = True, None
            for j in unit:
                if j["stdin"] == "<previous stdout>":
                    j["stdin"] = prev
                out = bench.spawn(bench.cli_cmd(j["argv"]), j["stdin"], env, scratch)
                prev = out.stdout.decode()
                j["expect"] = {"exit": out.rc,
                               "sha256": bench.sha256(out.stdout) if out.rc == 0 else None,
                               "seed_s": round(out.wall_s, 3)}
                if out.rc != 0:
                    j["expect"]["stderr"] = out.stderr.decode().strip().splitlines()[-1]
                    ok = ok and may_fail
                elif j["check"] and not bench.semantic_ok(_as_job(j), out.stdout):
                    # the checker must accept what the seed got right
                    raise SystemExit(f"{name}: check rejects seed output {j['argv']}")
            if not ok:
                continue
            seen.add(key)
            units.append(unit)
            if len(units) == POOL:
                break
        if not units:
            raise SystemExit(f"{name}: no valid input")
        if name.startswith(("bruhat-", "up-")):
            verify_long_queries(units)
        for u, unit in enumerate(units):
            for k, j in enumerate(unit):
                j["id"] = f"{name}/{u}" + (f".{k}" if len(unit) > 1 else "")
        cost = [sum(j["expect"]["seed_s"] for j in unit) for unit in units]
        fails = sum(j["expect"]["exit"] != 0 for unit in units for j in unit)
        print(f"{workload:>10} {name:<22} {len(units)} units  seed_s "
              f"{min(cost):.2f}..{max(cost):.2f}  failing {fails}", flush=True)
        cells_out.append({"name": name, "units": units})
    doc = {"workload": workload, "max_len": bench.MAX_LEN, "cells": cells_out}
    path = bench.CATALOG_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _as_job(j):
    return bench.Job("", tuple(j["argv"]), j["stdin"], j["check"], 0, None)


if __name__ == "__main__":
    for w in sys.argv[1:] or bench.WORKLOADS:
        record(w)
