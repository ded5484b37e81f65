"""Run one awbm CLI job in this interpreter with the public functions of every
module wrapped from outside the library, and write what was seen as JSON.

    python3 tracer.py OUT_JSON JOB_ID -- ARGV...

stdin, stdout, stderr and the exit code are those of `awbm ARGV...`.  Spans
([name, start, end, parent index, raised]) are kept in memory and written at
exit together with counters; the spans of one file all belong to JOB_ID.
Hot functions are only counted (no span).  The library itself is unchanged.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter

SPANS = [  # (module, attribute, span name)
    ("awbm.cli", "run", "cli"),
    ("awbm.affine_weyl", "adm", "affine_weyl.adm"),
    ("awbm.affine_weyl", "bruhat_interval", "affine_weyl.bruhat_interval"),
    ("awbm.affine_weyl", "bruhat_leq", "affine_weyl.bruhat_leq"),
    ("awbm.affine_weyl", "up_leq", "affine_weyl.up_leq"),
    ("awbm.affine_weyl", "ap_enumerate", "affine_weyl.ap_enumerate"),
    ("awbm.weights", "SerreWeightPresentation.canonical", "weights.canonical"),
    ("awbm.inertial_types", "TameTypePresentation.w_tilde",
     "inertial_types.w_tilde"),
    ("awbm.weight_sets", "w_question", "weight_sets.w_question"),
    ("awbm.weight_sets", "intersection", "weight_sets.intersection"),
    ("awbm.weight_sets", "bm_cycles", "weight_sets.bm_cycles"),
    ("awbm.weight_sets", "jh_set", "weight_sets.jh_set"),
    ("awbm.weight_sets", "covers", "weight_sets.covers"),
    ("awbm.weight_sets", "max_defect_weight", "weight_sets.max_defect_weight"),
    ("awbm.modp_flag", "monodromy_solve", "modp_flag.monodromy_solve"),
    ("awbm.modp_flag", "nabla_matrix", "modp_flag.nabla_matrix"),
    ("awbm.modp_flag", "LaurentMatrix.inverse", "modp_flag.LaurentMatrix.inverse"),
    ("awbm.modp_flag", "verify_nabla", "modp_flag.verify_nabla"),
    ("awbm.modp_flag", "component_data", "modp_flag.component_data"),
    ("awbm.bk_gauge", "straighten", "bk_gauge.straighten"),
    ("awbm.bk_gauge", "SeriesMatrix.frobenius", "bk_gauge.SeriesMatrix.frobenius"),
    ("awbm.bk_gauge", "SeriesMatrix.inverse", "bk_gauge.SeriesMatrix.inverse"),
    ("awbm.bk_gauge", "SeriesMatrix.__mul__", "bk_gauge.SeriesMatrix.mul"),
]
COUNTS = [  # hot functions: a call counter, no span
    ("awbm.affine_weyl", "multiply", "affine_weyl.multiply.calls"),
    ("awbm.affine_weyl", "regular_factorization",
     "affine_weyl.regular_factorization.calls"),
    ("awbm.affine_weyl", "WeylElement.__post_init__", "affine_weyl.elements_built"),
    ("awbm.bk_gauge", "frobenius_twist", "bk_gauge.frobenius_twist.calls"),
]
CACHES = {  # lru caches read through cache_info()
    "affine_weyl.length": ("awbm.affine_weyl", "_separation"),
    "affine_weyl.leq_wa": ("awbm.affine_weyl", "_leq_wa"),
    "affine_weyl.up_leq": ("awbm.affine_weyl", "up_leq"),
    "weight_sets.w_question": ("awbm.weight_sets", "_w_question_cached"),
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.sums = Counter()      # sizes and bytes, summed
        self.maxima = {}
        self.minima = {}
        self.monodromy_args = []
        self.wq_seen = set()

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapped

    def counter(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- counts in the paper's terms ----------------------------------------
    def after_w_question(self, args, kwargs, recs):
        if self.parent_name() == "weight_sets.intersection":
            self.sums["weight_sets.intersection.scanned"] += len(recs)
        key = (args[0], args[1] if len(args) > 1 else kwargs.get("force", False))
        if key not in self.wq_seen:  # each distinct W? once per job
            self.wq_seen.add(key)
            self.sums["weight_sets.w_question.size"] += len(recs)
            self.sums["weight_sets.w_question.obvious"] += sum(r.obvious for r in recs)
            self.peak("weight_sets.w_question.max_defect",
                      max((r.defect for r in recs), default=0))

    def sized(self, key, attr=None):
        def after(args, kwargs, result):
            self.sums[key] += len(result if attr is None else getattr(result, attr))
        return after

    def after_frobenius(self, args, kwargs, result):
        self.sums["bk_gauge.SeriesMatrix.frobenius.bytes"] += result.coeffs.nbytes

    def after_monodromy(self, args, kwargs, result):
        self.monodromy_args.append((args, kwargs))

    def straighten(self, fn):
        """Peak traced memory, rounds used and the round cap ceil(M/p)+4."""
        timed = self.span("bk_gauge.straighten", fn)
        twist = "bk_gauge.frobenius_twist.calls"

        def wrapped(A, X, z, M, h=None):
            p, f = A[0].field.p, len(A)
            self.sums["bk_gauge.straighten.round_cap"] += -(-M // p) + 4
            before = self.counts[twist]
            tracemalloc.start()
            ok = False
            try:
                result = timed(A, X, z, M, h=h)
                ok = True
                return result
            finally:
                self.peak("bk_gauge.straighten.peak_mb",
                          tracemalloc.get_traced_memory()[1] / 2 ** 20)
                tracemalloc.stop()
                # each round twists once per embedding; a finished run
                # twists once more per embedding to check the equation
                self.sums["bk_gauge.straighten.rounds"] += max(
                    (self.counts[twist] - before) // f - ok, 0)
        return wrapped

    def pivot_margins(self):
        """Least distance from 0 mod p of the pivots t + [alpha>0] + <a,alpha>
        of each solved cell, beside required_genericity; computed after the
        job so that it is in no span."""
        from awbm.modp_flag import cell_geometry, required_genericity
        for args, kwargs in self.monodromy_args:
            wt, a_bar = args[0], args[1]
            p = kwargs.get("p", args[3] if len(args) > 3 else None)
            a = [int(x) % p for x in a_bar]
            for (i, k), d in cell_geometry(wt).degrees:
                pair = (a[i - 1] - a[k - 1]) % p
                for t in range(d):
                    piv = (t + (i < k) + pair) % p
                    key = "modp_flag.monodromy_solve.pivot_margin_min"
                    self.minima[key] = min(self.minima.get(key, p), piv, p - piv)
            self.peak("modp_flag.monodromy_solve.required_genericity",
                      required_genericity(wt))


def _resolve(modname, path):
    obj = sys.modules[modname]
    *owners, attr = path.split(".")
    for o in owners:
        obj = getattr(obj, o)
    return obj, attr


def install(rec: Recorder):
    after = {
        "affine_weyl.adm": rec.sized("affine_weyl.adm.size"),
        "affine_weyl.bruhat_interval": rec.sized("affine_weyl.bruhat_interval.size"),
        "weight_sets.jh_set": rec.sized("weight_sets.jh_set.size"),
        "weight_sets.w_question": rec.after_w_question,
        "modp_flag.component_data": rec.sized("modp_flag.component_data.bound_size",
                                              "bound"),
        "modp_flag.monodromy_solve": rec.after_monodromy,
        "bk_gauge.SeriesMatrix.frobenius": rec.after_frobenius,
    }
    for modname, path, name in SPANS:
        owner, attr = _resolve(modname, path)
        orig = getattr(owner, attr)
        if name == "bk_gauge.straighten":
            new = rec.straighten(orig)
        else:
            new = rec.span(name, orig, after.get(name))
        _replace(owner, attr, orig, new)
    for modname, path, name in COUNTS:
        owner, attr = _resolve(modname, path)
        orig = getattr(owner, attr)
        _replace(owner, attr, orig, rec.counter(name, orig))


def _replace(owner, attr, orig, new):
    """Swap orig for new in its owner and in every awbm module namespace that
    imported it by name."""
    setattr(owner, attr, new)
    for name, mod in list(sys.modules.items()):
        if name == "awbm" or name.startswith("awbm."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


class CountingStdout:
    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, s):
        self.bytes += len(s.encode())
        return self.inner.write(s)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def main(argv):
    out_path, job_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_JSON JOB_ID -- ARGV...")
    t0 = time.perf_counter()
    import awbm.cli
    import_s = time.perf_counter() - t0
    caches = {k: getattr(sys.modules[m], a) for k, (m, a) in CACHES.items()}
    rec = Recorder()
    install(rec)
    stdout = CountingStdout(sys.stdout)
    sys.stdout = stdout
    try:
        code = awbm.cli.run(cli_argv)
    finally:
        sys.stdout = stdout.inner
        sys.stdout.flush()
        rec.pivot_margins()
        doc = {
            "job": job_id, "import_s": import_s, "emit_bytes": stdout.bytes,
            "spans": rec.spans, "counts": dict(rec.counts),
            "sums": dict(rec.sums), "maxima": rec.maxima, "minima": rec.minima,
            "caches": {k: [c.cache_info().hits, c.cache_info().misses]
                       for k, c in caches.items()},
        }
        with open(out_path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
