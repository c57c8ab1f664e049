"""Exception hierarchy shared by all modules."""


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
