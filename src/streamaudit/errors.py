"""Exception hierarchy for streamaudit.

All library errors derive from StreamAuditError so callers can catch one
base class. Parsing errors carry the 1-based line number of the offending
input line when known.
"""


class StreamAuditError(Exception):
    """Base class for all streamaudit errors."""


class _InputError(StreamAuditError):
    """An error about an input, prefixed with its line when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(_InputError):
    """Malformed input file (bad header, bad row, ragged CSV, ...)."""


class UnsupportedFeature(_InputError):
    """Input uses a format feature the parser deliberately rejects
    (sparse ARFF rows, string/date attributes, missing values)."""


class EmptyStream(StreamAuditError):
    """An operation that needs at least one instance got zero."""

    def __init__(self, message="an empty stream has no first instance"):
        super().__init__(message)


class ZeroVariance(StreamAuditError):
    """Autocorrelation is undefined: only one class occurs."""


class LagTooLarge(StreamAuditError):
    """Requested max_lag is not smaller than the stream length."""


class InvalidModel(StreamAuditError):
    """Synthetic label model parameters are out of range or infeasible."""


class InvalidRho(StreamAuditError):
    """Restart probability outside [0, 1]."""


class SchemaMismatch(StreamAuditError):
    """A classifier bound to one dataset was given another's schema or
    rows."""


class LabelMismatch(StreamAuditError):
    """A prediction log's true-label column disagrees with the dataset."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class ScoreOverflow(StreamAuditError, OverflowError):
    """Naive Bayes cannot score row: a value is too far from a class
    mean to square, and the row-by-row learner raises OverflowError."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row}: a value is too far from a class mean "
                         "for naive Bayes to square")
