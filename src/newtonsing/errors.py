"""Exception hierarchy shared by all modules."""


class NewtonsingError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPrimitiveInput(NewtonsingError):
    pass


class EqualVectors(NewtonsingError):
    pass


class NonCoprime(NewtonsingError):
    pass


class NotIsolated(NewtonsingError):
    pass


class NoCompactFace(NewtonsingError):
    pass


class NotRationalHomologySphere(NewtonsingError):
    pass


class NotNegativeDefinite(NewtonsingError):
    pass


class Disconnected(NewtonsingError):
    pass


class NotTree(NewtonsingError):
    pass


class KindMismatch(NewtonsingError):
    pass


class ClassificationFailed(NewtonsingError):
    pass


class BudgetExceeded(NewtonsingError):
    """Work that would exceed one of the fixed budgets; the message names it."""


class InputError(NewtonsingError):
    """Malformed input document (CLI layer, exit code 2)."""


class InternalError(NewtonsingError):
    """Any other exception of a subcommand, such as a broken internal
    invariant or exhausted recursion (CLI exit code 1)."""
