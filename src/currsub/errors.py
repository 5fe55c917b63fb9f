"""Exception hierarchy.

Two branches matter operationally: :class:`ValidationError` covers bad
inputs (CLI exit code 2) and :class:`DegeneracyError` covers numerically
degenerate problems such as zero-variance regressors (CLI exit code 3).
"""


class CurrsubError(Exception):
    """Base class for all package errors."""


class ValidationError(CurrsubError, ValueError):
    """Invalid input: bad parameters, malformed data, domain violations."""


class ParameterError(ValidationError):
    """A model or estimator parameter is outside its admissible range."""


class DataError(ValidationError):
    """A data precondition fails (length, ordering, finiteness)."""


class SeriesDomainError(DataError):
    """A series value is outside the mathematical domain of an operation."""


class IngestionError(DataError):
    """A CSV input file fails schema or contiguity validation."""


class DegeneracyError(CurrsubError, ArithmeticError):
    """A regression or statistic is numerically degenerate (collinear
    regressors, zero variance, singular moment matrix)."""
