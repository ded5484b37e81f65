"""Command handlers of the flag and gauge family: charts, Schubert cells,
the monodromy condition, components and fibers, and the Breuil-Kisin series
calculus (twists, basis changes, straightening, shapes)."""

from __future__ import annotations

import itertools
import json
import sys

from . import bk_gauge as bk
from . import group as gr
from . import modp_flag as mf
from . import series as se
from . import weights as wt
from .cli_io import element_json, parse_element, parse_tuple, parse_vector, write
from .cli_rows import (ctx_of, emit, parse_weight_rows, presentation_json,
                       row_json, type_of, write_product)
from .errors import ContextError, InputError


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
        return [[_matrix(se.SeriesMatrix.from_json(m), ctx.n, ctx.p)
                 for m in doc[k]] for k in keys]
    except (KeyError, TypeError) as exc:
        raise InputError(
            f"stdin must be an object with matrix lists {list(keys)}") from exc


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


def _component_row(row, *factors):
    # row_json of a label row, then its bound and obvious factors: each
    # fixed point is serialized once per row, not once per component
    return row_json(row) + tuple([element_json(a) for a in f] for f in factors)


def _component_record(rows):
    *_, bound, obvious = zip(*rows)
    bound, obvious = ("[" + ",".join(["[" + ",".join(t) + "]"
                                      for t in itertools.product(*f)]) + "]"
                      for f in (bound, obvious))
    return (f'{{"bound":{bound},"exactness":"conditional",'
            f'"label":{presentation_json(rows)},"obvious":{obvious}}}')


def cmd_component(args):
    ctx = ctx_of(args)
    w1 = parse_tuple(args.w1, ctx.n, ctx.f)
    omega = parse_weight_rows(args.omega, ctx.n, ctx.f)
    cd = mf.component_data(w1, omega, ctx, force=args.force)
    write(_component_record(list(map(_component_row, zip(
        cd.label.w1, cd.label.omega), cd.bound, cd.obvious))))


def cmd_fiber(args):
    ctx = ctx_of(args)
    tau = type_of(args, ctx, "ts", "tmu")
    lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
    zeta = None
    if args.zeta:
        zeta = wt.CentralCharacter(parse_vector(args.zeta, ctx.f))
    write_product([[_component_row(*row) for row in rows]
                   for rows in mf.special_fiber_components(
                       ctx, lam, tau, zeta, force=args.force)],
                  _component_record)


def _twist(args, ctx) -> bk.TwistData:
    return bk.TwistData(parse_tuple(args.s, ctx.n, ctx.f),
                        parse_weight_rows(args.mu, ctx.n, ctx.f), ctx)


def cmd_twist(args):
    ctx = ctx_of(args)
    tw = _twist(args, ctx)
    data = _stdin_json() if args.matrix == "-" else json.loads(args.matrix)
    Y = _matrix(se.SeriesMatrix.from_json(data), ctx.n, ctx.p)
    emit(bk.frobenius_twist(Y, args.j, tw, args.M).to_json())


def cmd_cob(args):
    ctx = ctx_of(args)
    tw = _twist(args, ctx)
    A, I = _stdin_series_lists(ctx, "A", "I")
    out = bk.change_of_basis(A, I, tw, args.M)
    emit([m.truncate(args.M).to_json() for m in out])


def cmd_straighten(args):
    ctx = ctx_of(args)
    A, X = _stdin_series_lists(ctx, "A", "X")
    z = parse_tuple(args.z, ctx.n, ctx.f)
    out = bk.straighten(A, X, z, args.M, h=getattr(args, "h"))
    emit([m.truncate(args.M).to_json() for m in out])


def cmd_shape(args):
    ctx = ctx_of(args)
    rho = type_of(args, ctx, "rs", "rmu", "F")
    tau = type_of(args, ctx, "ts", "tmu")
    res = bk.shape_semisimple(rho, tau)
    doc = {"shape": res.shape.to_json(),
           "w_rhobar_tau": res.w_rhobar_tau.to_json()}
    if getattr(args, "lambda"):
        lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
        lpe = tuple(tuple(l + e for l, e in zip(row, gr.eta_vector(ctx.n)))
                    for row in lam)
        doc["admissible_dual"] = res.admissible_for(lam)
        doc["admissible_shifted"] = res.shifted_member(lpe)
    emit(doc)
