"""Exception hierarchy shared across the toolkit."""


class LatentAxesError(Exception):
    """Base class for all toolkit errors."""


class BadMagic(LatentAxesError):
    """File does not start with the .npy magic string."""


class UnsupportedDtype(LatentAxesError):
    """Array dtype is not little-endian float32/float64."""


class UnsupportedRank(LatentAxesError):
    """Array is not 2-D."""


class TruncatedFile(LatentAxesError):
    """File ends before the declared payload is complete."""


class RowCountMismatch(LatentAxesError):
    """Latent and attribute matrices disagree on the number of rows."""


class DimensionMismatch(LatentAxesError):
    """Operand shapes are inconsistent."""


class DegenerateData(LatentAxesError):
    """Not enough samples to estimate the requested statistics."""


class NonFinite(LatentAxesError):
    """NaN or infinity encountered where finite values are required."""


class TooFewSamples(LatentAxesError):
    """Sample count below the minimum for a stable estimate."""


class OutOfDomain(LatentAxesError):
    """Argument outside the mathematical domain of the function."""


class BatchTooSmall(LatentAxesError):
    """Batch statistics need at least two samples."""


class SingleClass(LatentAxesError):
    """Binary fit requires both classes to be present."""


class NotConverged(LatentAxesError):
    """Iterative fit reached its iteration cap before its tolerance."""


class ConfigInvalid(LatentAxesError):
    """Training or run configuration violates a precondition."""


class NonPSD(LatentAxesError):
    """Covariance product has negative eigenvalues beyond tolerance."""
