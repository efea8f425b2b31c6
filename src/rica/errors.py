"""Exception types shared across the package."""


class RicaError(Exception):
    """Base class for all package-specific errors."""


class DegenerateCovariance(RicaError):
    """Empirical covariance is numerically rank deficient."""


class InvalidRange(RicaError):
    """A requested numeric range is empty or out of bounds."""


class DimensionMismatch(RicaError):
    """Operand shapes are incompatible."""


class CountTooLarge(RicaError):
    """Requested more items than exist."""


class OracleSizeExceeded(RicaError):
    """Sample size too large for an exact (cubic-cost) oracle."""


class SampleMismatch(RicaError):
    """Feature matrices disagree on the number of samples."""


class SingularDiagonal(RicaError):
    """A diagonal pencil block is numerically singular (regularizer too small)."""


class NoProgress(RicaError):
    """Every optimizer restart failed its first line search."""


class SingularMatrix(RicaError):
    """Matrix inversion required but the matrix is singular."""


class RateMismatch(RicaError):
    """Audio clips have different sample rates."""


class TooShort(RicaError):
    """Audio clip too short to separate."""


class MalformedInput(RicaError):
    """An input file does not hold the data its reader expects."""
