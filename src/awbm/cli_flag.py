"""Command handlers of the flag family: charts, Schubert cells, the
monodromy condition, and the components and fibers with their torus fixed
points; `component` and `fiber` write their documents by hand."""

from __future__ import annotations

import itertools

from . import modp_flag as mf
from . import weights as wt
from .cli_io import element_json, parse_element, parse_tuple, parse_vector, parsed, write
from .cli_rows import (ctx_of, emit, parse_weight_rows, presentation_json,
                       row_json, type_of, write_product)
from .errors import InputError


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
        import json
        doc = parsed(json.loads, args.free)
        # JSON integers only: int() would truncate 1.5 and 1e30 and read
        # true and "7"
        if (not isinstance(doc, dict)
                or any(type(v) is not int for v in doc.values())):
            raise InputError(
                f"--free must map 'i,k' to integers: {args.free!r}")
        free = {tuple(parsed(int, x) for x in k.split(",")): v for k, v in doc.items()}
    A = mf.monodromy_solve(w, abar, free, p=args.p)
    emit(A.to_json())


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
