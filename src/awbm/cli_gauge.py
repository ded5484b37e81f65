"""Command handlers of the gauge family: nabla on a Laurent matrix, which
runs the series kernel alone, and the Breuil-Kisin series calculus (twists,
basis changes, straightening, shapes).  None loads the flag layer, and
nabla, which writes its one flag by hand, does not load `cli_rows` either."""

import json
import sys

from . import bk_gauge as bk
from . import group as gr
from . import series as se
from .cli_io import flag_json, parse_tuple, parse_vector, parsed, write
from .errors import ContextError, InputError


def _stdin_json():
    try:
        return json.loads(sys.stdin.read())
    except json.JSONDecodeError as exc:
        raise InputError(f"stdin is not valid JSON: {exc}") from exc
    except ValueError as exc:  # undecodable bytes, or an int past its digit limit
        raise InputError(str(exc)) from None


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


def cmd_nabla(args):
    data = _stdin_json() if args.matrix == "-" else parsed(json.loads, args.matrix)
    A = _matrix(se.LaurentMatrix.from_json(data), args.n)
    abar = parse_vector(args.abar, args.n)
    write(f'{{"holds":{flag_json(se.verify_nabla(A, abar))}}}')


def _twist(args, ctx):
    from .cli_rows import parse_weight_rows
    return bk.TwistData(parse_tuple(args.s, ctx.n, ctx.f),
                        parse_weight_rows(args.mu, ctx.n, ctx.f), ctx)


def cmd_twist(args):
    from .cli_rows import ctx_of, emit
    ctx = ctx_of(args)
    tw = _twist(args, ctx)
    data = _stdin_json() if args.matrix == "-" else parsed(json.loads, args.matrix)
    Y = _matrix(se.SeriesMatrix.from_json(data), ctx.n, ctx.p)
    emit(bk.frobenius_twist(Y, args.j, tw, args.M).to_json())


def cmd_cob(args):
    from .cli_rows import ctx_of, emit
    ctx = ctx_of(args)
    tw = _twist(args, ctx)
    A, I = _stdin_series_lists(ctx, "A", "I")
    out = bk.change_of_basis(A, I, tw, args.M)
    emit([m.truncate(args.M).to_json() for m in out])


def cmd_straighten(args):
    from .cli_rows import ctx_of, emit
    ctx = ctx_of(args)
    A, X = _stdin_series_lists(ctx, "A", "X")
    z = parse_tuple(args.z, ctx.n, ctx.f)
    out = bk.straighten(A, X, z, args.M, h=getattr(args, "h"))
    emit([m.truncate(args.M).to_json() for m in out])


def cmd_shape(args):
    from .cli_rows import ctx_of, emit, parse_weight_rows, type_of
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
