"""Command-line front end: every operation behind one subcommand, JSON out.

Conventions: a successful invocation prints exactly one JSON document on
stdout (canonical key order, sorted sets) and exits 0; malformed input exits
2; a violated precondition exits 3 with the failing condition named on
stderr, among them a stdout closed before the output was written; an
internal invariant breach, or any other unexpected exception, exits 4 with
a one-line message and no traceback.  `wq`, `jh` and `intersect` stream
their document, a product over the embeddings, in chunks once every check
has passed: a reader that closes stdout mid-document has read a prefix, and
the run exits 3.  Elements are written
PERM or PERM@NU (PERM one of 'e', 'w0', cycle notation '(1 2)', or a
one-line image '2,1'; NU a comma-separated integer vector), tuples join
components with ';'.  The canonical JSON element encoding
{"w": [...], "nu": [...], "convention": "t_nu_then_w"} is accepted anywhere
an element is expected and emitted everywhere one is produced.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from . import affine_weyl as aw
from . import bk_gauge as bk
from . import inertial_types as it
from . import modp_flag as mf
from . import oracles as orc
from . import weight_sets as ws
from . import weights as wt
from .errors import (
    AwbmError,
    ContextError,
    InputError,
    InternalError,
    PreconditionError,
)

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# parsing helpers

def parse_perm(text: str, n: int):
    text = text.strip()
    if text == "e":
        return aw.perm_identity(n)
    if text == "w0":
        return aw.perm_w0(n)
    if text.startswith("("):
        perm = list(range(1, n + 1))
        for cyc in re.findall(r"\(([^()]*)\)", text):
            body = cyc.strip()
            if re.fullmatch(r"\d+", body) and n < 10:
                entries = [int(ch) for ch in body]  # compact form like (23)
            else:
                entries = [int(x) for x in re.split(r"[,\s]+", body) if x]
            if len(entries) < 2:
                continue
            if any(not 1 <= x <= n for x in entries) or len(set(entries)) != len(entries):
                raise InputError(f"cycle {cyc!r} is not valid for n={n}")
            moved = dict(zip(entries, entries[1:] + entries[:1]))
            perm = [moved.get(x, x) for x in perm]
        return tuple(perm)
    body = text.strip("[]")
    img = tuple(int(x) for x in re.split(r"[,\s]+", body) if x)
    if sorted(img) != list(range(1, n + 1)):
        raise InputError(f"{text!r} is not a permutation of 1..{n}")
    return img


def parse_vector(text: str, n: int):
    out = tuple(int(x) for x in re.split(r"[,\s]+", text.strip().strip("[]")) if x)
    if len(out) != n:
        raise InputError(f"vector {text!r} must have length {n}")
    return out


def parse_element(text: str, n: int) -> aw.WeylElement:
    text = text.strip()
    if text.startswith("{"):
        return aw.WeylElement.from_json(json.loads(text))
    if "@" in text:
        ptxt, ntxt = text.split("@", 1)
        return aw.WeylElement(parse_perm(ptxt, n), parse_vector(ntxt, n))
    return aw.WeylElement(parse_perm(text, n), (0,) * n)


def parse_tuple(text: str, n: int, f: int) -> aw.WeylTuple:
    text = text.strip()
    if text.startswith("["):
        tup = aw.WeylTuple.from_json(json.loads(text))
    else:
        parts = [p for p in text.split(";") if p.strip()]
        if len(parts) == 1 and f > 1:
            parts = parts * f
        tup = aw.WeylTuple(tuple(parse_element(p, n) for p in parts))
    if tup.f != f or tup.n != n:
        raise InputError(f"tuple has shape ({tup.f},{tup.n}), expected ({f},{n})")
    return tup


def parse_weight_rows(text: str, n: int, f: int):
    text = text.strip()
    if text.startswith("[["):
        try:
            rows = tuple(tuple(aw.json_int(x, "weight row") for x in row)
                         for row in json.loads(text))
        except TypeError as exc:
            raise InputError(
                f"weight rows must be integer arrays: {text!r}") from exc
    else:
        parts = [p for p in text.split(";") if p.strip()]
        if len(parts) == 1 and f > 1:
            parts = parts * f
        rows = tuple(parse_vector(p, n) for p in parts)
    if len(rows) != f:
        raise InputError(f"weight tuple needs {f} rows")
    return rows


# one encoder for every document: json.dumps with options builds a new one
# per call, and a streamed output serializes each of its rows separately
serialize = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def write(text: str, end: str = "\n"):
    if sys.stdout is None:  # started with stdout closed (`>&-`)
        raise BrokenPipeError("stdout is closed")
    sys.stdout.write(text)
    sys.stdout.write(end)


def emit(doc):
    write(serialize(doc))


def write_product(factors, record):
    """Write the JSON array of record(rows) for rows in
    itertools.product(*factors), in that order, one write per choice of the
    leading rows, so that what is held is bounded by the factors and not by
    the document.  Every check must have passed before the call: after the
    first write only a closed stdout can end the run."""
    *leading, last = factors
    sep = "["
    if all(factors):
        for head in itertools.product(*leading):
            write(sep + ",".join([record(head + (row,)) for row in last]), "")
            sep = ","
    write("[]" if sep == "[" else "]")


def _row_json(row):
    """The JSON of omega_j, w1_j and zeta_j for a canonical row (w1_j,
    omega_j), read off its one-embedding presentation.  omega_j and zeta_j
    are integers, which JSON writes as str does, without an encoder call."""
    w1, omega = row
    doc = wt.SerreWeightPresentation.trusted(
        aw.WeylTuple.trusted((w1,)), (omega,), aw.GroupContext(w1.n)).to_json()
    return (f'[{",".join(map(str, doc["omega"][0]))}]',
            serialize(doc["w1"][0]), str(doc["zeta"][0]))


def _presentation_json(rows):
    """The JSON of the presentation with one row of _row_json per embedding
    (and whatever follows it in each row)."""
    omega, w1, zeta, *_ = zip(*rows)
    return (f'{{"omega":[{",".join(omega)}],"w1":[{",".join(w1)}],'
            f'"zeta":[{",".join(zeta)}]}}')


def _write_presentations(factors):
    """Write the presentations whose rows are the product of factors."""
    write_product([[_row_json(row) for row in rows] for rows in factors],
                  _presentation_json)


def _ctx(args) -> aw.GroupContext:
    return aw.GroupContext(args.n, getattr(args, "f", 1), getattr(args, "p", None))


def _presentation(args, ctx, wflag="w1", oflag="omega"):
    w1 = parse_tuple(getattr(args, wflag), ctx.n, ctx.f)
    omega = parse_weight_rows(getattr(args, oflag), ctx.n, ctx.f)
    return wt.SerreWeightPresentation(w1, omega, ctx)


def _type(args, ctx, sflag="s", mflag="mu", kind="E"):
    s = parse_tuple(getattr(args, sflag), ctx.n, ctx.f)
    mu = parse_weight_rows(getattr(args, mflag), ctx.n, ctx.f)
    return it.make_type(ctx, s, mu, kind)


def _stdin_json():
    data = sys.stdin.read()
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise InputError(f"stdin is not valid JSON: {exc}") from exc


def _matrix(m, n, p=None):
    """m, checked to be n x n and, when p is given, over characteristic p."""
    if m.n != n or p not in (None, m.field.p):
        flags = f"--n {n}" + ("" if p is None else f" --p {p}")
        raise ContextError(
            f"operands differ: a {m.n} x {m.n} matrix over characteristic "
            f"{m.field.p} against {flags}")
    return m


def _stdin_series_lists(ctx, *keys):
    """The lists of series matrices under the given keys of the stdin
    document, each n x n over characteristic p for the n and p of ctx."""
    doc = _stdin_json()
    try:
        return [[_matrix(bk.SeriesMatrix.from_json(m), ctx.n, ctx.p)
                 for m in doc[k]] for k in keys]
    except (KeyError, TypeError) as exc:
        raise InputError(
            f"stdin must be an object with matrix lists {list(keys)}") from exc


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_mul(args):
    a = parse_element(args.a, args.n)
    b = parse_element(args.b, args.n)
    emit(aw.multiply(a, b).to_json())


def cmd_len(args):
    a = parse_element(args.a, args.n)
    emit({"length": aw.length(a)})


def cmd_star(args):
    emit(aw.star(parse_element(args.a, args.n)).to_json())


def cmd_bruhat(args):
    a = parse_element(args.a, args.n)
    b = parse_element(args.b, args.n)
    emit({"leq": aw.bruhat_leq(a, b)})


def cmd_up(args):
    a = parse_element(args.a, args.n)
    b = parse_element(args.b, args.n)
    emit({"leq": aw.up_leq(a, b)})


def cmd_classify(args):
    a = parse_element(args.a, args.n)
    fl = aw.classify(a, args.m, args.p)
    emit({"dominant": fl.dominant, "restricted": fl.restricted,
          "regular": fl.regular, "m_small": fl.m_small,
          "m_generic": fl.m_generic})


def cmd_interval(args):
    a = parse_element(args.a, args.n)
    emit([e.to_json() for e in aw.bruhat_interval(a)])


def cmd_adm(args):
    lam = parse_vector(getattr(args, "lambda"), args.n)
    emit([e.to_json() for e in aw.adm(lam, args.variant)])


def cmd_ap(args):
    lam = parse_vector(getattr(args, "lambda"), args.n)
    emit([[a.to_json(), b.to_json()] for a, b in aw.ap_enumerate(lam)])


def cmd_weight(args):
    ctx = _ctx(args)
    lap = _presentation(args, ctx)
    emit({"kappa": [list(r) for r in wt.serre_weight(lap)]})


def cmd_lap(args):
    ctx = _ctx(args)
    kappa = parse_weight_rows(args.kappa, ctx.n, ctx.f)
    zeta = wt.CentralCharacter(parse_vector(args.zeta, ctx.f))
    emit(wt.lap_of(ctx, kappa, zeta).to_json())


def cmd_zchar(args):
    ctx = _ctx(args)
    lap = _presentation(args, ctx)
    emit({"zeta": list(wt.central_character(lap).zeta)})


def cmd_generic(args):
    ctx = _ctx(args)
    mu = parse_weight_rows(args.mu, ctx.n, ctx.f)
    poly = None
    if args.pm is not None:
        poly = wt.build_Pm(ctx.n, args.pm)
        if args.super is not None:
            poly = wt.superscript(poly, parse_vector(args.super, ctx.n))
    out = wt.genericity(ctx, mu, m=args.m, polynomial=poly)
    doc = {"generic": out}
    if poly is not None and args.emit_poly:
        doc["polynomial"] = poly.to_json()
    emit(doc)


def cmd_type(args):
    ctx = _ctx(args)
    tau = _type(args, ctx, kind=args.kind)
    emit({"type": tau.to_json(),
          "w_tilde": tau.w_tilde().to_json(),
          "w_tilde_star": tau.w_tilde_star().to_json(),
          "depth": tau.depth()})


def cmd_descent(args):
    ctx = _ctx(args)
    dd = it.descent_data(_type(args, ctx, kind=args.kind))
    emit({"s_tau": list(dd.s_tau), "r": dd.r, "f_prime": dd.f_prime,
          "alpha_prime": [list(a) for a in dd.alpha_prime],
          "a_prime": [list(a) for a in dd.a_prime],
          "orientation": [list(s) for s in dd.s_orient],
          "chi_exponents": list(dd.chi_exponents)})


def cmd_atau(args):
    ctx = _ctx(args)
    exact, modp = it.a_tau(_type(args, ctx, kind=args.kind))
    emit({"exact": [[str(q) for q in row] for row in exact],
          "mod_p": [list(row) for row in modp]})


def cmd_jh(args):
    ctx = _ctx(args)
    tau = _type(args, ctx)
    lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
    _write_presentations(ws.jh_factors(tau, lam, force=args.force))


def _wq_record(rows):
    *_, summands, obvious = zip(*rows)
    return (f'{{"defect":{sum(summands)},'
            f'"obvious":{"true" if all(obvious) else "false"},'
            f'"presentation":{_presentation_json(rows)}}}')


def cmd_wq(args):
    # a W? row carries its defect summand and whether it is obvious (w = w2)
    ctx = _ctx(args)
    rho = _type(args, ctx, kind="F")
    write_product([[_row_json(row) + (summand, w == w2)
                    for row, w, w2, summand, _ in factors]
                   for factors in ws.w_question_factors(rho, force=args.force)],
                  _wq_record)


def cmd_covers(args):
    ctx = _ctx(args)
    s0 = _presentation(args, ctx, "w1a", "omegaa")
    s1 = _presentation(args, ctx, "w1b", "omegab")
    emit({"covers": ws.covers(s0, s1, force=args.force)})


def cmd_intersect(args):
    ctx = _ctx(args)
    rho = _type(args, ctx, "rs", "rmu", "F")
    tau = _type(args, ctx, "ts", "tmu")
    lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
    _write_presentations(ws.intersection_factors(rho, tau, lam, force=args.force))


def cmd_defect(args):
    ctx = _ctx(args)
    rho = _type(args, ctx, "rs", "rmu", "F")
    sigma = _presentation(args, ctx)
    emit({"defect": ws.defect(rho, sigma, force=args.force)})


def cmd_maxdefect(args):
    ctx = _ctx(args)
    rho = _type(args, ctx, "rs", "rmu", "F")
    tau = _type(args, ctx, "ts", "tmu")
    emit(ws.max_defect_weight(rho, tau, force=args.force).to_json())


def cmd_bm(args):
    ctx = _ctx(args)
    rho = _type(args, ctx, "rs", "rmu", "F")
    solved = ws.bm_cycles(rho, force=args.force)
    out = []
    for sigma, (d, expr) in sorted(solved.items(),
                                   key=lambda kv: kv[0].sort_key()):
        out.append({"sigma": sigma.to_json(), "defect": d,
                    "cycle": expr.to_json()})
    emit(out)


def cmd_chart(args):
    z = parse_element(args.z, args.n)
    emit(mf.chart_template(z, getattr(args, "h")).to_json())


def cmd_cell(args):
    w = parse_element(args.w, args.n)
    emit(mf.cell_geometry(w).to_json())


def cmd_monodromy(args):
    w = parse_element(args.w, args.n)
    abar = parse_vector(args.abar, args.n)
    free = None
    if args.free:
        doc = json.loads(args.free)
        # JSON integers only: int() would truncate 1.5 and 1e30 and read
        # true and "7"
        if (not isinstance(doc, dict)
                or any(type(v) is not int for v in doc.values())):
            raise InputError(
                f"--free must map 'i,k' to integers: {args.free!r}")
        free = {tuple(int(x) for x in k.split(",")): v for k, v in doc.items()}
    A = mf.monodromy_solve(w, abar, free, p=args.p)
    emit(A.to_json())


def cmd_nabla(args):
    data = _stdin_json() if args.matrix == "-" else json.loads(args.matrix)
    A = _matrix(mf.LaurentMatrix.from_json(data), args.n)
    abar = parse_vector(args.abar, args.n)
    emit({"holds": mf.verify_nabla(A, abar)})


def cmd_component(args):
    ctx = _ctx(args)
    w1 = parse_tuple(args.w1, ctx.n, ctx.f)
    omega = parse_weight_rows(args.omega, ctx.n, ctx.f)
    emit(mf.component_data(w1, omega, ctx, force=args.force).to_json())


def cmd_fiber(args):
    ctx = _ctx(args)
    tau = _type(args, ctx, "ts", "tmu")
    lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
    zeta = None
    if args.zeta:
        zeta = wt.CentralCharacter(parse_vector(args.zeta, ctx.f))
    comps = mf.special_fiber_components(ctx, lam, tau, zeta, force=args.force)
    emit([c.to_json() for c in comps])


def _twist(args, ctx) -> bk.TwistData:
    return bk.TwistData(parse_tuple(args.s, ctx.n, ctx.f),
                        parse_weight_rows(args.mu, ctx.n, ctx.f), ctx)


def cmd_twist(args):
    ctx = _ctx(args)
    tw = _twist(args, ctx)
    data = _stdin_json() if args.matrix == "-" else json.loads(args.matrix)
    Y = _matrix(bk.SeriesMatrix.from_json(data), ctx.n, ctx.p)
    emit(bk.frobenius_twist(Y, args.j, tw, args.M).to_json())


def cmd_cob(args):
    ctx = _ctx(args)
    tw = _twist(args, ctx)
    A, I = _stdin_series_lists(ctx, "A", "I")
    out = bk.change_of_basis(A, I, tw, args.M)
    emit([m.truncate(args.M).to_json() for m in out])


def cmd_straighten(args):
    ctx = _ctx(args)
    A, X = _stdin_series_lists(ctx, "A", "X")
    z = parse_tuple(args.z, ctx.n, ctx.f)
    out = bk.straighten(A, X, z, args.M, h=getattr(args, "h"))
    emit([m.truncate(args.M).to_json() for m in out])


def cmd_shape(args):
    ctx = _ctx(args)
    rho = _type(args, ctx, "rs", "rmu", "F")
    tau = _type(args, ctx, "ts", "tmu")
    res = bk.shape_semisimple(rho, tau)
    doc = {"shape": res.shape.to_json(),
           "w_rhobar_tau": res.w_rhobar_tau.to_json()}
    if getattr(args, "lambda"):
        lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
        lpe = tuple(tuple(l + e for l, e in zip(row, aw.eta_vector(ctx.n)))
                    for row in lam)
        doc["admissible_dual"] = res.admissible_for(lam)
        doc["admissible_shifted"] = res.shifted_member(lpe)
    emit(doc)


def cmd_oracle(args):
    kind = args.kind
    needed = {"length": ["a"], "bruhat": ["a", "b"], "up": ["a", "b"]}
    flags = needed.get(kind, [])
    for flag in flags:
        if getattr(args, flag) is None:
            raise InputError(f"--kind {kind} needs --{flag}")
    elements = [parse_element(getattr(args, flag), args.n) for flag in flags]
    out = orc.oracle(kind, *elements, n=args.n, deg=args.deg, bound=args.bound)
    if kind == "length":
        emit({"length": out})
    elif kind == "enumerate":
        emit([e.to_json() for e in out])
    else:
        emit({"leq": out})


# ---------------------------------------------------------------------------
# argument wiring

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _rank(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"rank must be at least 1, got {n}")
    return n


def _build_parser(argv=()):
    """The top parser with the subparser of the command argv names, or with
    every subparser when argv[0] is not a command (no arguments, --help, an
    unknown name), so that usage and error texts list them all."""
    top = _Parser(prog="awbm", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)
    wiring = {}

    def add(name, fn, **kw):
        wiring[name] = (fn, kw)

    def build(name, fn, *, ctx=False, prime=False, extra=None):
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=_rank, required=True)
        if ctx:
            sp.add_argument("--f", type=int, default=1)
        if prime:
            sp.add_argument("--p", type=int, required=prime == "req",
                            default=None)
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored; every job runs in one thread")
        if extra:
            extra(sp)
        sp.set_defaults(func=fn)

    add("mul", cmd_mul, extra=lambda sp: (
        sp.add_argument("--a", required=True), sp.add_argument("--b", required=True)))
    add("len", cmd_len, extra=lambda sp: sp.add_argument("--a", required=True))
    add("star", cmd_star, extra=lambda sp: sp.add_argument("--a", required=True))
    add("bruhat", cmd_bruhat, extra=lambda sp: (
        sp.add_argument("--a", required=True), sp.add_argument("--b", required=True)))
    add("up", cmd_up, extra=lambda sp: (
        sp.add_argument("--a", required=True), sp.add_argument("--b", required=True)))
    add("classify", cmd_classify, prime=True, extra=lambda sp: (
        sp.add_argument("--a", required=True),
        sp.add_argument("--m", type=int, default=None)))
    add("interval", cmd_interval,
        extra=lambda sp: sp.add_argument("--a", required=True))
    add("adm", cmd_adm, extra=lambda sp: (
        sp.add_argument("--lambda", required=True),
        sp.add_argument("--variant", default="all",
                        choices=["all", "regular", "dual"])))
    add("ap", cmd_ap, extra=lambda sp: sp.add_argument(
        "--lambda", required=True, help="the shifted weight lambda+eta"))
    add("weight", cmd_weight, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--w1", required=True),
        sp.add_argument("--omega", required=True)))
    add("lap", cmd_lap, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--kappa", required=True),
        sp.add_argument("--zeta", required=True)))
    add("zchar", cmd_zchar, ctx=True, prime=True, extra=lambda sp: (
        sp.add_argument("--w1", required=True),
        sp.add_argument("--omega", required=True)))
    add("generic", cmd_generic, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--mu", required=True),
        sp.add_argument("--m", type=int, default=None),
        sp.add_argument("--pm", type=int, default=None),
        sp.add_argument("--super", default=None),
        sp.add_argument("--emit-poly", action="store_true")))
    add("type", cmd_type, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--s", required=True), sp.add_argument("--mu", required=True),
        sp.add_argument("--kind", default="E", choices=["E", "F"])))
    add("descent", cmd_descent, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--s", required=True), sp.add_argument("--mu", required=True),
        sp.add_argument("--kind", default="E", choices=["E", "F"])))
    add("atau", cmd_atau, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--s", required=True), sp.add_argument("--mu", required=True),
        sp.add_argument("--kind", default="E", choices=["E", "F"])))
    add("jh", cmd_jh, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--s", required=True), sp.add_argument("--mu", required=True),
        sp.add_argument("--lambda", required=True),
        sp.add_argument("--force", action="store_true")))
    add("wq", cmd_wq, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--s", required=True), sp.add_argument("--mu", required=True),
        sp.add_argument("--force", action="store_true")))
    add("covers", cmd_covers, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--w1a", required=True), sp.add_argument("--omegaa", required=True),
        sp.add_argument("--w1b", required=True), sp.add_argument("--omegab", required=True),
        sp.add_argument("--force", action="store_true")))
    add("intersect", cmd_intersect, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--rs", required=True), sp.add_argument("--rmu", required=True),
        sp.add_argument("--ts", required=True), sp.add_argument("--tmu", required=True),
        sp.add_argument("--lambda", required=True),
        sp.add_argument("--force", action="store_true")))
    add("defect", cmd_defect, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--rs", required=True), sp.add_argument("--rmu", required=True),
        sp.add_argument("--w1", required=True), sp.add_argument("--omega", required=True),
        sp.add_argument("--force", action="store_true")))
    add("maxdefect", cmd_maxdefect, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--rs", required=True), sp.add_argument("--rmu", required=True),
        sp.add_argument("--ts", required=True), sp.add_argument("--tmu", required=True),
        sp.add_argument("--force", action="store_true")))
    add("bm", cmd_bm, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--rs", required=True), sp.add_argument("--rmu", required=True),
        sp.add_argument("--force", action="store_true")))
    add("chart", cmd_chart, extra=lambda sp: (
        sp.add_argument("--z", required=True),
        sp.add_argument("--h", type=int, required=True)))
    add("cell", cmd_cell, extra=lambda sp: sp.add_argument("--w", required=True))
    add("monodromy", cmd_monodromy, prime="req", extra=lambda sp: (
        sp.add_argument("--w", required=True),
        sp.add_argument("--abar", required=True),
        sp.add_argument("--free", default=None)))
    add("nabla", cmd_nabla, extra=lambda sp: (
        sp.add_argument("--matrix", required=True, help="JSON or - for stdin"),
        sp.add_argument("--abar", required=True)))
    add("component", cmd_component, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--w1", required=True),
        sp.add_argument("--omega", required=True),
        sp.add_argument("--force", action="store_true")))
    add("fiber", cmd_fiber, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--ts", required=True), sp.add_argument("--tmu", required=True),
        sp.add_argument("--lambda", required=True),
        sp.add_argument("--zeta", default=None),
        sp.add_argument("--force", action="store_true")))
    add("twist", cmd_twist, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--matrix", required=True, help="JSON or - for stdin"),
        sp.add_argument("--j", type=int, default=0),
        sp.add_argument("--s", required=True), sp.add_argument("--mu", required=True),
        sp.add_argument("--M", type=int, default=40)))
    add("cob", cmd_cob, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--s", required=True), sp.add_argument("--mu", required=True),
        sp.add_argument("--M", type=int, default=40)))
    add("straighten", cmd_straighten, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--z", required=True),
        sp.add_argument("--M", type=int, default=40),
        sp.add_argument("--h", type=int, default=None)))
    add("shape", cmd_shape, ctx=True, prime="req", extra=lambda sp: (
        sp.add_argument("--rs", required=True), sp.add_argument("--rmu", required=True),
        sp.add_argument("--ts", required=True), sp.add_argument("--tmu", required=True),
        sp.add_argument("--lambda", default=None)))
    add("oracle", cmd_oracle, extra=lambda sp: (
        sp.add_argument("--kind", required=True,
                        choices=["length", "bruhat", "up", "enumerate"]),
        sp.add_argument("--a", default=None), sp.add_argument("--b", default=None),
        sp.add_argument("--deg", type=int, default=0),
        sp.add_argument("--bound", type=int, default=6)))
    wanted = argv[:1] if argv and argv[0] in wiring else wiring
    for name in wanted:
        fn, kw = wiring[name]
        build(name, fn, **kw)
    return top


def run(argv) -> int:
    try:
        parser = _build_parser(argv)
        args = parser.parse_args(argv)
        args.func(args)
        sys.stdout.flush()
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except AwbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        print("precondition violated: stdout closed before the output was "
              "written", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal invariant breach: unexpected {type(exc).__name__}: "
              f"{exc}", file=sys.stderr)
        return 4


def main():
    code = run(sys.argv[1:])
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # run has reported the closed pipe; drop what is still buffered so
        # that interpreter shutdown does not report it a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
