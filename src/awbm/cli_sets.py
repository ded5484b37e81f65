"""Command handlers of the weight-set family: JH labels, the predicted set
W?, covering, intersections, defects and the cycle solver.  `wq`, `jh`,
`intersect` and `bm` stream their documents, products over the embeddings,
through one writer.  Every document is written by hand: `json` loads only to
read JSON input."""

from __future__ import annotations

import itertools
import math

from . import weight_sets as ws
from .cli_io import flag_json, write, write_array
from .cli_rows import (ctx_of, parse_weight_rows, presentation,
                       presentation_json, row_json, type_of)


def _write_presentations(factors):
    """Write the presentations whose rows are the product of factors."""
    write_array(map(presentation_json, itertools.product(
        *[[row_json(row) for row in rows] for rows in factors])))


def cmd_jh(args):
    ctx = ctx_of(args)
    tau = type_of(args, ctx)
    lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
    _write_presentations(ws.jh_factors(tau, lam, force=args.force))


def _wq_record(rows):
    *_, summands, obvious = zip(*rows)
    return (f'{{"defect":{sum(summands)},'
            f'"obvious":{flag_json(all(obvious))},'
            f'"presentation":{presentation_json(rows)}}}')


def cmd_wq(args):
    # a W? row carries its defect summand and whether it is obvious (w = w2)
    rho = type_of(args, ctx_of(args), kind="F")
    write_array(map(_wq_record, itertools.product(
        *[[row_json(row) + (summand, w == w2) for row, w, w2, summand in factors]
          for factors in ws.w_question_factors(rho, force=args.force)])))


def cmd_covers(args):
    ctx = ctx_of(args)
    s0 = presentation(args, ctx, "w1a", "omegaa")
    s1 = presentation(args, ctx, "w1b", "omegab")
    write(f'{{"covers":{flag_json(ws.covers(s0, s1, force=args.force))}}}')


def cmd_intersect(args):
    ctx = ctx_of(args)
    rho = type_of(args, ctx, "rs", "rmu", "F")
    tau = type_of(args, ctx, "ts", "tmu")
    lam = parse_weight_rows(getattr(args, "lambda"), ctx.n, ctx.f)
    _write_presentations(ws.intersection_factors(rho, tau, lam, force=args.force))


def cmd_defect(args):
    ctx = ctx_of(args)
    rho = type_of(args, ctx, "rs", "rmu", "F")
    sigma = presentation(args, ctx)
    write(f'{{"defect":{ws.defect(rho, sigma, force=args.force)}}}')


def cmd_maxdefect(args):
    ctx = ctx_of(args)
    rho = type_of(args, ctx, "rs", "rmu", "F")
    tau = type_of(args, ctx, "ts", "tmu")
    sigma = ws.max_defect_weight(rho, tau)
    write(presentation_json([row_json(row) for row in zip(sigma.w1, sigma.omega)]))


def _bm_record(rows):
    *_, defects, terms = zip(*rows)
    products = (zip(*parts) for parts in itertools.product(*terms))
    cycle = ",".join(f'[["Z_tau",{",".join(s)}],"{math.prod(c)}"]' for s, c in products)
    return (f'{{"cycle":[{cycle}],"defect":{sum(defects)},'
            f'"sigma":{presentation_json(rows)}}}')


def _symbol_json(sym):
    """serialize(sym) for a one-embedding type symbol (s_0, mu_0)."""
    s, mu = sym
    return f'[[{",".join(map(str, s))}],[{",".join(map(str, mu))}]]'


def cmd_bm(args):
    # a factor row carries its defect and its terms, each symbol written
    # once; the product of the sorted term lists is in CycleExpr's order
    rho = type_of(args, ctx_of(args), "rs", "rmu", "F")
    write_array(map(_bm_record, itertools.product(
        *[[row_json((sigma.w1[0], sigma.omega[0]))
           + (d, [(_symbol_json(sym), c) for (_, sym), c in expr.terms])
           for sigma, (d, expr) in factors]
          for factors in ws.bm_factors(rho, force=args.force)])))
