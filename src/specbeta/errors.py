"""Exception hierarchy shared by all specbeta modules: one class per exit code."""


class SpecbetaError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SpecbetaError):
    """The input cannot be fitted: its file, values, columns or dimensions (exit 2)."""


class ZeroSignalError(DataError):
    """Cross-covariance (or the input vector) is zero; no direction exists."""


class NumericError(SpecbetaError):
    """The numerics break: a rank-deficient covariance, an overflow, a singular
    matrix, or a ground-truth model whose confounding strength is undefined (exit 3)."""
