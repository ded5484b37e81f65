"""Exception hierarchy shared by all modules.

The split mirrors the process exit codes of the command line tool:
malformed input (2), violated precondition (3), broken internal
invariant (4).  Precondition errors always name the failing condition
in their message so callers can act on them.
"""


class AwbmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AwbmError):
    """Malformed or unparseable input (wrong arity, bad encoding, ...)."""


class PreconditionError(AwbmError):
    """A documented precondition of an operation does not hold."""


class ArgumentError(PreconditionError):
    """A well-formed argument lies outside the operation's domain."""


class ContextError(PreconditionError):
    """Operands belong to different group contexts (rank/embedding mismatch)."""


class CapacityError(PreconditionError):
    """An enumeration exceeds the configured size bounds."""


class RegularityError(PreconditionError):
    """A regular element was required."""


class GenericityError(PreconditionError):
    """A depth/genericity hypothesis fails."""


class DepthError(PreconditionError):
    """A weight is not deep enough for the requested normal form."""


class CompatibilityError(PreconditionError):
    """Central characters (or presentations) do not match."""


class MembershipError(PreconditionError):
    """An element lies outside the required set."""


class ZeroDivisorError(PreconditionError):
    """A pivot vanishes mod p; carries the offending (root, index)."""

    def __init__(self, root, index, message=None):
        self.root = root
        self.index = index
        super().__init__(message or f"vanishing pivot at root {root}, index {index}")


class IntegralityError(PreconditionError):
    """A series operation produced a genuine pole."""


class InternalError(AwbmError):
    """An internal invariant was violated; indicates a bug."""


def json_int(x, where):
    """x, refused unless a JSON integer: int() would truncate 1.7 to 1 and
    read true and "1" as 1."""
    if type(x) is not int:
        raise InputError(f"{where} holds {x!r} where an integer belongs")
    return x
