"""Exception hierarchy shared by all specbeta modules."""


class SpecbetaError(Exception):
    """Base class for all errors raised by this package."""


class TooFewSamplesError(SpecbetaError):
    """Sample count is too small for the requested operation (n <= d)."""


class RankDeficientError(SpecbetaError):
    """Covariance matrix is numerically rank deficient.

    The estimator needs an invertible predictor covariance; once the smallest
    eigenvalue falls below the relative rank threshold the inverse-covariance
    terms in the likelihood are meaningless.
    """


class ZeroSignalError(SpecbetaError):
    """Cross-covariance (or the input vector) is zero; no direction exists."""


class NumericOverflowError(SpecbetaError):
    """A computation produced a non-finite intermediate value."""


class SingularMatrixError(SpecbetaError):
    """Matrix is singular or too ill-conditioned to invert."""


class BadDimensionsError(SpecbetaError):
    """Dimension arguments are inconsistent (e.g. fewer sources than observed variables)."""


class DegenerateModelError(SpecbetaError):
    """Ground-truth model has neither causal nor confounding signal (a = c = 0)."""


class DataError(SpecbetaError):
    """Base class for problems with user-supplied tabular data."""


class ParseError(DataError):
    """CSV file could not be parsed; message carries row/column coordinates."""


class NonNumericError(DataError):
    """A data cell is not numeric; message carries its location."""


class MissingColumnError(DataError):
    """Requested target column does not exist."""


class ConstantColumnError(DataError):
    """A predictor column has zero variance and cannot be normalized."""
