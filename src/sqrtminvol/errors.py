"""Exception types shared across the package: one class per exit code.

A bad argument, setting or file raises :class:`InvalidInputError`, and
the command-line tools exit with code 2; a numerical breakdown raises
:class:`NumericalFaultError`, and they exit with code 3.
"""

__all__ = ["SqrtMinvolError", "InvalidInputError", "NumericalFaultError"]


class SqrtMinvolError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SqrtMinvolError, ValueError):
    """An argument, setting or file violates a precondition (exit code 2)."""


class NumericalFaultError(SqrtMinvolError, ArithmeticError):
    """A numerical breakdown: a non-finite quantity, a rise, a failed factor.

    Exit code 3.  Carries whatever per-iteration trace existed when the
    fault was detected so the caller can flush it before exiting.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
