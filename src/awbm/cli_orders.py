"""Command handlers of the orders family: the group law, length, the Bruhat
and upper-arrow orders, intervals, admissible sets and pairs, and the naive
oracles.  Every document is written by hand: `json` loads only to read a
JSON element."""

from __future__ import annotations

from . import affine_weyl as aw
from . import group as gr
from . import oracles as orc
from .cli_io import element_json, flag_json, parse_element, parse_vector, write
from .errors import InputError


def cmd_mul(args):
    a = parse_element(args.a, args.n)
    b = parse_element(args.b, args.n)
    write(element_json(gr.multiply(a, b)))


def _write_length(length):
    write(f'{{"length":{length}}}')


def cmd_len(args):
    _write_length(gr.length(parse_element(args.a, args.n)))


def cmd_star(args):
    write(element_json(gr.star(parse_element(args.a, args.n))))


def _write_leq(leq):
    write(f'{{"leq":{flag_json(leq)}}}')


def cmd_bruhat(args):
    a = parse_element(args.a, args.n)
    b = parse_element(args.b, args.n)
    _write_leq(aw.bruhat_leq(a, b))


def cmd_up(args):
    a = parse_element(args.a, args.n)
    b = parse_element(args.b, args.n)
    _write_leq(aw.up_leq(a, b))


def cmd_classify(args):
    a = parse_element(args.a, args.n)
    fl = aw.classify(a, args.m, args.p)
    write(f'{{"dominant":{flag_json(fl.dominant)},'
          f'"m_generic":{flag_json(fl.m_generic)},'
          f'"m_small":{flag_json(fl.m_small)},'
          f'"regular":{flag_json(fl.regular)},'
          f'"restricted":{flag_json(fl.restricted)}}}')


def _write_array(items):
    write(f'[{",".join(items)}]')


def cmd_interval(args):
    a = parse_element(args.a, args.n)
    _write_array([element_json(e) for e in aw.bruhat_interval(a)])


def cmd_adm(args):
    lam = parse_vector(getattr(args, "lambda"), args.n)
    _write_array([element_json(e) for e in aw.adm(lam, args.variant)])


def cmd_ap(args):
    lam = parse_vector(getattr(args, "lambda"), args.n)
    _write_array([f"[{element_json(a)},{element_json(b)}]"
                  for a, b in aw.ap_enumerate(lam)])


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
        _write_length(out)
    elif kind == "enumerate":
        _write_array([element_json(e) for e in out])
    else:
        _write_leq(out)
