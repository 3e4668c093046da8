"""Every exception class of the toolkit."""


class LatentAxesError(Exception):
    """Base class for all toolkit errors."""


class BadNpyFile(LatentAxesError):
    """File is not a readable 2-D little-endian float .npy v1.0 matrix."""


class DimensionMismatch(LatentAxesError):
    """Operand or file shapes are inconsistent."""


class NonFinite(LatentAxesError):
    """NaN or infinity encountered where finite values are required."""


class TooFewSamples(LatentAxesError):
    """Sample count below the minimum for a stable estimate."""


class OutOfDomain(LatentAxesError):
    """Argument outside the mathematical domain of the function."""


class SingleClass(LatentAxesError):
    """Binary fit requires both classes to be present."""


class ConfigInvalid(LatentAxesError):
    """Training or run configuration violates a precondition."""


class NonPSD(LatentAxesError):
    """Covariance product has negative eigenvalues beyond tolerance."""


class OracleFailure(LatentAxesError):
    """Classifier output unusable during the amplitude search."""


class AllZeroEmbeddings(LatentAxesError):
    """Every embedding pair had a zero-norm member."""
