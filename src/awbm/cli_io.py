"""What every command-line handler module shares: parsing elements and
tuples and writing them; the rest of the I/O is in `cli_rows`.

Never run as `__main__`, unlike `cli`: under `python -m awbm.cli` a handler
that imported these from `cli` would load `cli.py` a second time.  `json`
loads on first use: most commands read no JSON and write by hand.  Lists
split on commas and str.split's whitespace, the class that \\s matches.
"""

from __future__ import annotations

import sys

from . import context as cx
from . import group as gr
from .errors import InputError


# ---------------------------------------------------------------------------
# parsing

def parsed(read, text: str):
    """read(text), read being int or json.loads: its ValueError (json's
    JSONDecodeError among them) is an input error, with the same text."""
    try:
        return read(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


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
                entries = [parsed(int, x) for x in body.replace(",", " ").split()]
            if len(entries) < 2:
                continue
            if any(not 1 <= x <= n for x in entries) or len(set(entries)) != len(entries):
                raise InputError(f"cycle {cyc!r} is not valid for n={n}")
            moved = dict(zip(entries, entries[1:] + entries[:1]))
            perm = [moved.get(x, x) for x in perm]
        return tuple(perm)
    img = tuple(parsed(int, x) for x in text.strip("[]").replace(",", " ").split())
    if sorted(img) != list(range(1, n + 1)):
        raise InputError(f"{text!r} is not a permutation of 1..{n}")
    return img


def parse_vector(text: str, n: int):
    out = tuple(parsed(int, x)
                for x in text.strip().strip("[]").replace(",", " ").split())
    if len(out) != n:
        raise InputError(f"vector {text!r} must have length {n}")
    return out


def parse_element(text: str, n: int) -> gr.WeylElement:
    text = text.strip()
    if text.startswith("{"):
        import json
        return gr.WeylElement.from_json(parsed(json.loads, text))
    if "@" in text:
        ptxt, ntxt = text.split("@", 1)
        return gr.WeylElement(parse_perm(ptxt, n), parse_vector(ntxt, n))
    return gr.WeylElement(parse_perm(text, n), (0,) * n)


def parse_tuple(text: str, n: int, f: int) -> cx.WeylTuple:
    text = text.strip()
    if text.startswith("["):
        import json
        tup = cx.WeylTuple.from_json(parsed(json.loads, text))
    else:
        parts = [p for p in text.split(";") if p.strip()]
        if len(parts) == 1 and f > 1:
            parts = parts * f
        tup = cx.WeylTuple(tuple(parse_element(p, n) for p in parts))
    if tup.f != f or tup.n != n:
        raise InputError(f"tuple has shape ({tup.f},{tup.n}), expected ({f},{n})")
    return tup


# ---------------------------------------------------------------------------
# output

def write(text: str, end: str = "\n"):
    if sys.stdout is None:  # started with stdout closed (`>&-`)
        raise BrokenPipeError("stdout is closed")
    sys.stdout.write(text)
    sys.stdout.write(end)


def flag_json(value):
    """serialize(value) for a bool or None."""
    return "null" if value is None else "true" if value else "false"


def element_json(a):
    """serialize(a.to_json()) for a WeylElement, written from its integers."""
    return (f'{{"convention":"t_nu_then_w","nu":[{",".join(map(str, a.nu))}],'
            f'"w":[{",".join(map(str, a.w))}]}}')
