"""The argparse parser, built only for an argv that `cli` does not read off
its option table.  `cli` runs as `__main__` under `python -m awbm.cli`, so
it passes its docstring, commands and options instead of being imported."""

import argparse

from .errors import InputError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser(argv, description, commands, options):
    """The top parser with the subparser of the command argv names, or with
    every subparser when argv[0] is not a command (no arguments, --help, an
    unknown name), so that usage and error texts list them all."""
    top = _Parser(prog="awbm", description=description,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv and argv[0] in commands else commands:
        sp = sub.add_parser(name)
        for flag, keywords in options(name):
            sp.add_argument(flag, **keywords)
    return top
