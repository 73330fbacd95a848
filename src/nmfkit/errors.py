"""Exception types shared across the toolkit: one family per CLI exit code.

A :class:`ContractViolationError` refuses an argument before any work is
done (exit code 1); a :class:`NumericalFailureError` reports an iteration
that broke down on valid input (exit code 2).
"""


class NmfError(Exception):
    """Base class for every error raised by this package."""


class ContractViolationError(NmfError):
    """An argument violates a documented precondition: its shape, type,
    range or entries. The CLI reports it as an invalid request (exit 1)."""


class DegenerateColumnError(ContractViolationError):
    """A column that must be normalizable is identically zero."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"column {column} is identically zero")


class NumericalFailureError(NmfError):
    """An iteration broke down on valid input: a factor, a component or a
    ratio denominator reached zero, or the objective stopped being finite.
    The CLI reports it as a numerical failure (exit 2)."""

    def __init__(self, message: str, iteration: int | None = None):
        self.iteration = iteration
        super().__init__(message)


class CsvFormatError(NmfError):
    """A matrix CSV file could not be parsed. The CLI reports it as an input
    error (exit 1)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
