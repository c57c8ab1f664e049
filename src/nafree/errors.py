"""Exception hierarchy shared by all modules, and the bounded echo of user
values in their messages."""
import reprlib

_ECHO = reprlib.Repr()
_ECHO.maxlevel = 3
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 60
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = 10
ECHO_LIMIT = 100


def clip(text: str) -> str:
    """`text` cut to at most ECHO_LIMIT characters, ending in '...' if cut."""
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."


def shown(value) -> str:
    """`repr(value)` for an error message, bounded in depth and length.

    A value nested at most three deep, with at most ten items per array or
    object and strings of at most 60 characters, is shown as `repr` shows it
    (object keys sorted); anything larger is elided with '...'.
    """
    return clip(_ECHO.repr(value))


class NafreeError(Exception):
    """Base class for all library errors."""


class InputError(NafreeError):
    """Malformed user input: bad JSON, unknown names, schema faults."""


class Violation(InputError):
    """Well-formed input that breaks an axiom: the strong triangle, a
    partition or chain condition, or the isometry of an action."""


class PreconditionError(NafreeError):
    """An operation was called outside its stated domain."""


class CapExceeded(PreconditionError):
    """A combinatorial enumeration would exceed the configured cap."""
