"""Command handlers of the weights and types family: Serre weights and their
presentations, central characters, genericity, tame types, descent data and
inertial weights."""

from __future__ import annotations

from . import descent as ds
from . import highest_weights as hw
from . import polynomials as pm
from . import weights as wt
from .cli_io import parse_vector
from .cli_rows import ctx_of, emit, parse_weight_rows, presentation, type_of


def cmd_weight(args):
    lap = presentation(args, ctx_of(args))
    emit({"kappa": [list(r) for r in hw.serre_weight(lap)]})


def cmd_lap(args):
    ctx = ctx_of(args)
    kappa = parse_weight_rows(args.kappa, ctx.n, ctx.f)
    zeta = wt.CentralCharacter(parse_vector(args.zeta, ctx.f))
    emit(hw.lap_of(ctx, kappa, zeta).to_json())


def cmd_zchar(args):
    lap = presentation(args, ctx_of(args))
    emit({"zeta": list(wt.central_character(lap).zeta)})


def cmd_generic(args):
    ctx = ctx_of(args)
    mu = parse_weight_rows(args.mu, ctx.n, ctx.f)
    poly = None
    if args.pm is not None:
        poly = pm.build_Pm(ctx.n, args.pm)
        if args.super is not None:
            poly = pm.superscript(poly, parse_vector(args.super, ctx.n))
    out = pm.genericity(ctx, mu, m=args.m, polynomial=poly)
    doc = {"generic": out}
    if poly is not None and args.emit_poly:
        doc["polynomial"] = poly.to_json()
    emit(doc)


def cmd_type(args):
    tau = type_of(args, ctx_of(args), kind=args.kind)
    emit({"type": tau.to_json(),
          "w_tilde": tau.w_tilde().to_json(),
          "w_tilde_star": tau.w_tilde_star().to_json(),
          "depth": tau.depth()})


def cmd_descent(args):
    dd = ds.descent_data(type_of(args, ctx_of(args), kind=args.kind))
    emit({"s_tau": list(dd.s_tau), "r": dd.r, "f_prime": dd.f_prime,
          "alpha_prime": [list(a) for a in dd.alpha_prime],
          "a_prime": [list(a) for a in dd.a_prime],
          "orientation": [list(s) for s in dd.s_orient],
          "chi_exponents": list(dd.chi_exponents)})


def cmd_atau(args):
    exact, modp = ds.a_tau(type_of(args, ctx_of(args), kind=args.kind))
    emit({"exact": [[str(q) for q in row] for row in exact],
          "mod_p": [list(row) for row in modp]})
