"""The parser surface of the command line, frozen.

`cli_surface.json` was written by `surface()` from the wiring as it stood
before the option table replaced it: for each of the 34 subparsers its usage
line and, for each option, its option strings, dest, type name, default,
required flag, choices and help; and the error text of `awbm` with no
argument and with an unknown command name.  Regenerate it with
`python tests/test_cli_surface.py > tests/cli_surface.json` only when the
surface is meant to change.
"""

import contextlib
import io
import json
import pathlib
import sys

from awbm import cli

FROZEN = pathlib.Path(__file__).with_name("cli_surface.json")


def _error_text(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


def surface():
    top = cli._build_parser()
    subparsers = next(a for a in top._actions if a.dest == "command").choices
    return {
        "subparsers": {
            name: {
                "usage": sp.format_usage(),
                "options": [
                    {"strings": a.option_strings, "dest": a.dest,
                     "type": getattr(a.type, "__name__", None),
                     "default": a.default, "required": a.required,
                     "choices": a.choices, "help": a.help}
                    for a in sp._actions],
            } for name, sp in subparsers.items()},
        "errors": {"none": _error_text([]),
                   "unknown": _error_text(["nosuch"])},
    }


def test_parser_surface_is_unchanged():
    got = json.loads(json.dumps(surface()))
    frozen = json.loads(FROZEN.read_text())
    assert list(got["subparsers"]) == list(frozen["subparsers"])
    for name, want in frozen["subparsers"].items():
        assert got["subparsers"][name] == want, name
    assert got["errors"] == frozen["errors"]


def _dump(doc):
    """doc as JSON text with one option per line."""
    subs = [f"  {json.dumps(name)}: {{\"usage\": {json.dumps(sp['usage'])}, "
            "\"options\": [\n" + ",\n".join(
                "   " + json.dumps(opt) for opt in sp["options"]) + "]}"
            for name, sp in doc["subparsers"].items()]
    return ("{\"errors\": " + json.dumps(doc["errors"]) + ",\n"
            " \"subparsers\": {\n" + ",\n".join(subs) + "}}\n")


if __name__ == "__main__":
    sys.stdout.write(_dump(surface()))
