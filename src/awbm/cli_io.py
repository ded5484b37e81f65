"""What the command-line handler modules share: argument parsing and output.

Never run as `__main__`, unlike `cli`: under `python -m awbm.cli` a handler
that imported these from `cli` would load `cli.py` a second time.  `json`
loads on first use: most commands read no JSON and write by hand.  Lists
split on commas and str.split's whitespace, the class that \\s matches.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache

from . import group as gr
from . import inertial_types as it
from . import weights as wt
from .errors import InputError


# ---------------------------------------------------------------------------
# parsing

def parse_perm(text: str, n: int):
    text = text.strip()
    if text == "e":
        return gr.perm_identity(n)
    if text == "w0":
        return gr.perm_w0(n)
    if text.startswith("("):
        import re  # only cycle notation needs a pattern
        perm = list(range(1, n + 1))
        for cyc in re.findall(r"\(([^()]*)\)", text):
            body = cyc.strip()
            if body.isdecimal() and n < 10:
                entries = [int(ch) for ch in body]  # compact form like (23)
            else:
                entries = [int(x) for x in body.replace(",", " ").split()]
            if len(entries) < 2:
                continue
            if any(not 1 <= x <= n for x in entries) or len(set(entries)) != len(entries):
                raise InputError(f"cycle {cyc!r} is not valid for n={n}")
            moved = dict(zip(entries, entries[1:] + entries[:1]))
            perm = [moved.get(x, x) for x in perm]
        return tuple(perm)
    img = tuple(int(x) for x in text.strip("[]").replace(",", " ").split())
    if sorted(img) != list(range(1, n + 1)):
        raise InputError(f"{text!r} is not a permutation of 1..{n}")
    return img


def parse_vector(text: str, n: int):
    out = tuple(int(x) for x in text.strip().strip("[]").replace(",", " ").split())
    if len(out) != n:
        raise InputError(f"vector {text!r} must have length {n}")
    return out


def parse_element(text: str, n: int) -> gr.WeylElement:
    text = text.strip()
    if text.startswith("{"):
        import json
        return gr.WeylElement.from_json(json.loads(text))
    if "@" in text:
        ptxt, ntxt = text.split("@", 1)
        return gr.WeylElement(parse_perm(ptxt, n), parse_vector(ntxt, n))
    return gr.WeylElement(parse_perm(text, n), (0,) * n)


def parse_tuple(text: str, n: int, f: int) -> gr.WeylTuple:
    text = text.strip()
    if text.startswith("["):
        import json
        tup = gr.WeylTuple.from_json(json.loads(text))
    else:
        parts = [p for p in text.split(";") if p.strip()]
        if len(parts) == 1 and f > 1:
            parts = parts * f
        tup = gr.WeylTuple(tuple(parse_element(p, n) for p in parts))
    if tup.f != f or tup.n != n:
        raise InputError(f"tuple has shape ({tup.f},{tup.n}), expected ({f},{n})")
    return tup


def parse_weight_rows(text: str, n: int, f: int):
    text = text.strip()
    if text.startswith("[["):
        import json
        try:
            rows = tuple(tuple(gr.json_int(x, "weight row") for x in row)
                         for row in json.loads(text))
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


def ctx_of(args) -> gr.GroupContext:
    return gr.GroupContext(args.n, getattr(args, "f", 1), getattr(args, "p", None))


def presentation(args, ctx, wflag="w1", oflag="omega"):
    w1 = parse_tuple(getattr(args, wflag), ctx.n, ctx.f)
    omega = parse_weight_rows(getattr(args, oflag), ctx.n, ctx.f)
    return wt.SerreWeightPresentation(w1, omega, ctx)


def type_of(args, ctx, sflag="s", mflag="mu", kind="E"):
    s = parse_tuple(getattr(args, sflag), ctx.n, ctx.f)
    mu = parse_weight_rows(getattr(args, mflag), ctx.n, ctx.f)
    return it.make_type(ctx, s, mu, kind)


# ---------------------------------------------------------------------------
# output

# one encoder for every document: json.dumps with options builds a new one
# per call, and a streamed output serializes each of its rows separately
@lru_cache(maxsize=None)
def _encoder():
    import json
    return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def serialize(doc):
    return _encoder()(doc)


def write(text: str, end: str = "\n"):
    if sys.stdout is None:  # started with stdout closed (`>&-`)
        raise BrokenPipeError("stdout is closed")
    sys.stdout.write(text)
    sys.stdout.write(end)


def emit(doc):
    write(serialize(doc))


def flag_json(value):
    """serialize(value) for a bool or None."""
    return "null" if value is None else "true" if value else "false"


def element_json(a):
    """serialize(a.to_json()) for a WeylElement, written from its integers."""
    return (f'{{"convention":"t_nu_then_w","nu":[{",".join(map(str, a.nu))}],'
            f'"w":[{",".join(map(str, a.w))}]}}')


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
