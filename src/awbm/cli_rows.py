"""The weight, set and flag handlers' I/O on top of `cli_io`: weight rows,
the context, presentations and types from the arguments, the JSON encoder,
and the row and product writers.  No orders command loads it."""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import context as cx
from . import inertial_types as it
from . import weights as wt
from .cli_io import element_json, parse_tuple, parse_vector, parsed, write
from .errors import InputError, json_int


def parse_weight_rows(text: str, n: int, f: int):
    text = text.strip()
    if text.startswith("[["):
        import json
        try:
            rows = tuple(tuple(json_int(x, "weight row") for x in row)
                         for row in parsed(json.loads, text))
        except TypeError as exc:
            raise InputError(
                f"weight rows must be integer arrays: {text!r}") from exc
        if any(len(row) != n for row in rows):
            raise InputError(f"weight rows {text!r} must have length {n}")
    else:
        parts = [p for p in text.split(";") if p.strip()]
        if len(parts) == 1 and f > 1:
            parts = parts * f
        rows = tuple(parse_vector(p, n) for p in parts)
    if len(rows) != f:
        raise InputError(f"weight tuple needs {f} rows")
    return rows


def ctx_of(args) -> cx.GroupContext:
    return cx.GroupContext(args.n, getattr(args, "f", 1), getattr(args, "p", None))


def presentation(args, ctx, wflag="w1", oflag="omega"):
    w1 = parse_tuple(getattr(args, wflag), ctx.n, ctx.f)
    omega = parse_weight_rows(getattr(args, oflag), ctx.n, ctx.f)
    return wt.SerreWeightPresentation(w1, omega, ctx)


def type_of(args, ctx, sflag="s", mflag="mu", kind="E"):
    s = parse_tuple(getattr(args, sflag), ctx.n, ctx.f)
    mu = parse_weight_rows(getattr(args, mflag), ctx.n, ctx.f)
    return it.make_type(ctx, s, mu, kind)


# one encoder for every document: json.dumps with options builds a new one
# per call, and a streamed output serializes each of its rows separately
@lru_cache(maxsize=None)
def _encoder():
    import json
    return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def serialize(doc):
    return _encoder()(doc)


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


def row_json(row):
    """The JSON of omega_j, w1_j and zeta_j for a canonical row (w1_j,
    omega_j), written from its integers: zeta_j, the degree of
    t_{omega_j - eta} w1_j, is sum(omega_j) - sum(eta) + sum(nu(w1_j))."""
    w1, omega = row
    n = w1.n
    return (f'[{",".join(map(str, omega))}]', element_json(w1),
            str(sum(omega) - n * (n - 1) // 2 + sum(w1.nu)))


def presentation_json(rows):
    """The JSON of the presentation with one row of row_json per embedding
    (and whatever follows it in each row)."""
    omega, w1, zeta, *_ = zip(*rows)
    return (f'{{"omega":[{",".join(omega)}],"w1":[{",".join(w1)}],'
            f'"zeta":[{",".join(zeta)}]}}')
