"""Exception and warning types shared across the package."""


class GausscovError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the status the command line exits with on the error: 2
    by default (unreadable input and other failures), 3 for a configuration
    error.
    """

    exit_code = 2


class DomainError(GausscovError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""

    exit_code = 3


class CollinearColumn(GausscovError):
    """A column is numerically collinear with the current basis."""


class NoCandidates(GausscovError):
    """No admissible candidate column remains to scan."""


class AllColumnsConstant(GausscovError):
    """Every column of the matrix is constant; nothing can be standardized."""

    exit_code = 3


class TooManyColumns(GausscovError):
    """The operation's hard column cap was exceeded."""

    exit_code = 3


class ColumnBudgetExceeded(GausscovError):
    """A feature expansion would generate more columns than the budget allows."""

    exit_code = 3


class InsufficientLength(GausscovError):
    """A series is too short for the requested lag window."""

    exit_code = 3


class ParseError(GausscovError):
    """A delimited input file could not be parsed.

    Carries 1-based row/column coordinates when they are known.
    """

    def __init__(self, message, row=None, col=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.row = row
        self.col = col


class MissingValue(ParseError):
    """A missing value was encountered under na_policy='reject'."""


class GenerationFailure(GausscovError):
    """A random-model generator failed to produce a valid instance."""

    exit_code = 3


class RatioClampWarning(UserWarning):
    """An rss ratio fell outside [0, 1] by at most the tolerated slack and was clamped."""
