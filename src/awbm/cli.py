"""Command-line front end: every operation behind one subcommand, JSON out.

Conventions: a successful invocation prints exactly one JSON document on
stdout (canonical key order, sorted sets) and exits 0; malformed input exits
2; a violated precondition exits 3 with the failing condition named on
stderr, among them a stdout closed before the output was written; an
internal invariant breach, or any other unexpected exception, exits 4 with
a one-line message and no traceback.  `wq`, `jh`, `intersect` and `bm`
stream their document, a product over the embeddings, in chunks once every
check (and every solve) has passed: a reader that closes stdout
mid-document has read a prefix, and the run exits 3.  Elements are written
PERM or PERM@NU (PERM one of 'e', 'w0', cycle notation '(1 2)', or a
one-line image '2,1'; NU a comma-separated integer vector), tuples join
components with ';'.  The canonical JSON element encoding
{"w": [...], "nu": [...], "convention": "t_nu_then_w"} is accepted anywhere
an element is expected and emitted everywhere one is produced.
"""

from __future__ import annotations

import importlib
import os
import sys
import types

from .cli_io import parse_element, parse_tuple  # noqa: F401  (re-exported)
from .errors import InputError, InternalError, PreconditionError

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# argument wiring

_INT = {"type": int, "default": None}
_FORCE = ("--force", {"action": "store_true"})
_KIND = ("--kind", {"default": "E", "choices": ["E", "F"]})
_MATRIX = ("--matrix", {"required": True, "help": "JSON or - for stdin"})
_M = ("--M", {"type": int, "default": 40})

# name: (handler module, shared options, own options).  Every command takes
# --n, then --f when the letters hold "f", then --p when they hold "p"
# (optional) or "P" (required), then --jobs, then its own options in order:
# a bare flag is a required string, a pair is (flag, add_argument keywords).
# _options expands an entry; _plain_args reads a well-formed argv off it and
# _build_parser builds the argparse parser for every other argv.
COMMANDS = {
    "mul": ("cli_orders", "", ("--a", "--b")),
    "len": ("cli_orders", "", ("--a",)),
    "star": ("cli_orders", "", ("--a",)),
    "bruhat": ("cli_orders", "", ("--a", "--b")),
    "up": ("cli_orders", "", ("--a", "--b")),
    "classify": ("cli_orders", "p", ("--a", ("--m", _INT))),
    "interval": ("cli_orders", "", ("--a",)),
    "adm": ("cli_orders", "", ("--lambda", ("--variant", {
        "default": "all", "choices": ["all", "regular", "dual"]}))),
    "ap": ("cli_orders", "", (("--lambda", {
        "required": True, "help": "the shifted weight lambda+eta"}),)),
    "weight": ("cli_weights", "fP", ("--w1", "--omega")),
    "lap": ("cli_weights", "fP", ("--kappa", "--zeta")),
    "zchar": ("cli_weights", "fp", ("--w1", "--omega")),
    "generic": ("cli_weights", "fP", (
        "--mu", ("--m", _INT), ("--pm", _INT), ("--super", {"default": None}),
        ("--emit-poly", {"action": "store_true"}))),
    "type": ("cli_weights", "fP", ("--s", "--mu", _KIND)),
    "descent": ("cli_weights", "fP", ("--s", "--mu", _KIND)),
    "atau": ("cli_weights", "fP", ("--s", "--mu", _KIND)),
    "jh": ("cli_sets", "fP", ("--s", "--mu", "--lambda", _FORCE)),
    "wq": ("cli_sets", "fP", ("--s", "--mu", _FORCE)),
    "covers": ("cli_sets", "fP", (
        "--w1a", "--omegaa", "--w1b", "--omegab", _FORCE)),
    "intersect": ("cli_sets", "fP", (
        "--rs", "--rmu", "--ts", "--tmu", "--lambda", _FORCE)),
    "defect": ("cli_sets", "fP", ("--rs", "--rmu", "--w1", "--omega", _FORCE)),
    "maxdefect": ("cli_sets", "fP", ("--rs", "--rmu", "--ts", "--tmu", _FORCE)),
    "bm": ("cli_sets", "fP", ("--rs", "--rmu", _FORCE)),
    "chart": ("cli_flag", "", ("--z", ("--h", {"type": int, "required": True}))),
    "cell": ("cli_flag", "", ("--w",)),
    "monodromy": ("cli_flag", "P", (
        "--w", "--abar", ("--free", {"default": None}))),
    "nabla": ("cli_gauge", "", (_MATRIX, "--abar")),
    "component": ("cli_flag", "fP", ("--w1", "--omega", _FORCE)),
    "fiber": ("cli_flag", "fP", (
        "--ts", "--tmu", "--lambda", ("--zeta", {"default": None}), _FORCE)),
    "twist": ("cli_gauge", "fP", (
        _MATRIX, ("--j", {"type": int, "default": 0}), "--s", "--mu", _M)),
    "cob": ("cli_gauge", "fP", ("--s", "--mu", _M)),
    "straighten": ("cli_gauge", "fP", (
        "--z", _M, ("--h", {"type": int, "default": None}))),
    "shape": ("cli_gauge", "fP", (
        "--rs", "--rmu", "--ts", "--tmu", ("--lambda", {"default": None}))),
    "oracle": ("cli_orders", "", (
        ("--kind", {"required": True,
                    "choices": ["length", "bruhat", "up", "enumerate"]}),
        ("--a", {"default": None}), ("--b", {"default": None}),
        ("--deg", {"type": int, "default": 0}),
        ("--bound", {"type": int, "default": 6}))),
}


def _rank(text):
    n = int(text)
    if n < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"rank must be at least 1, got {n}")
    return n


def _options(name):
    """The options of a command as (flag, add_argument keywords), in the
    order its subparser adds them."""
    _, shared, own = COMMANDS[name]
    options = [("--n", {"type": _rank, "required": True})]
    if "f" in shared:
        options.append(("--f", {"type": int, "default": 1}))
    if "p" in shared.lower():
        options.append(("--p", {"type": int, "required": "P" in shared,
                                "default": None}))
    options.append(("--jobs", {
        "type": int, "default": 1,
        "help": "accepted and ignored; every job runs in one thread"}))
    return options + [(opt, {"required": True}) if isinstance(opt, str)
                      else opt for opt in own]


def _plain_args(argv):
    """The namespace parse_args gives a well-formed argv, read off the option
    table without importing argparse: a command, then exact option strings,
    each but a switch followed by a value that is "-" or does not start with
    "-", that its type converts and its choices hold, every required option
    present.  None for any other argv, which argparse parses or refuses with
    its own texts."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = dict(_options(argv[0]))
    values, i = {}, 1
    while i < len(argv):
        keywords = options.get(argv[i])
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            values[argv[i]], i = True, i + 1
            continue
        text = argv[i + 1] if i + 1 < len(argv) else None
        if text is None or text.startswith("-") and text != "-":
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse reports what the conversion raised
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[argv[i]], i = value, i + 2
    args = types.SimpleNamespace(command=argv[0])
    for flag, keywords in options.items():
        if flag not in values:
            if keywords.get("required"):
                return None
            switch = keywords.get("action") == "store_true"
            values[flag] = keywords.get("default", False if switch else None)
        setattr(args, flag[2:].replace("-", "_"), values[flag])
    return args


def _build_parser(argv=()):
    from .cli_help import build_parser  # only for an argv _plain_args refuses
    return build_parser(argv, __doc__, COMMANDS, _options)


def _handler(command):
    """The cmd_ function of a command, from the module of its family: the
    one handler module a run loads."""
    module = importlib.import_module(f".{COMMANDS[command][0]}", __package__)
    return getattr(module, f"cmd_{command}")


def run(argv) -> int:
    """The exit code of a command line, its error written to stderr as one
    line; a closed stderr loses the line, not the code."""
    try:
        args = _plain_args(argv) or _build_parser(argv).parse_args(argv)
        for flag in ("n", "f"):  # past an index's range, work would overflow
            if getattr(args, flag, 1) > sys.maxsize:
                raise InputError(f"--{flag} must be at most {sys.maxsize}")
        _handler(args.command)(args)
        sys.stdout.flush()
        return 0
    except InputError as exc:  # the parsers raise it for what int() or json refuse
        code, line = 2, f"input error: {exc}"
    except InternalError as exc:
        code, line = 4, f"internal invariant breach: {exc}"
    except PreconditionError as exc:
        code, line = 3, f"precondition violated: {exc}"
    except BrokenPipeError:
        code, line = 3, ("precondition violated: stdout closed before the "
                         "output was written")
    except MemoryError:  # written below, once leaving here has freed the frames
        code, line = 4, "internal invariant breach: out of memory"
    except Exception as exc:
        code, line = 4, (f"internal invariant breach: unexpected "
                         f"{type(exc).__name__}: {exc}")
    if sys.stderr is not None:  # None when the process started without fd 2
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass  # a closed stderr loses the message, not the exit code
    return code


def main():
    code = run(sys.argv[1:])
    # the job is done once its output is flushed: the process ends here,
    # without the interpreter teardown that would free each module and cache
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            pass  # run has reported the closed stdout; a closed stderr is mute
    os._exit(code)


if __name__ == "__main__":
    main()
