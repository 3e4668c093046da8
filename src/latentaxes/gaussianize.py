"""Rank-based gaussianization of attribute values.

Classifier outputs live in [0, 1] and pile up near the endpoints. Each
attribute column is mapped to an approximately standard-normal variable by
composing its empirical CDF (midrank convention, so ties are order
independent) with the inverse normal CDF, and back by interpolating the
empirical quantile function.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erfc

from .errors import OutOfDomain, TooFewSamples
from .npyio import read_matrix, write_matrix

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation of the normal quantile function.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def norm_cdf(x):
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * erfc(-np.asarray(x, dtype=np.float64) / _SQRT2)


def inv_norm_cdf(p):
    """Inverse standard normal CDF.

    Piecewise rational approximation refined by one Halley step against
    erfc; absolute error stays below 1e-8 across (1e-12, 1 - 1e-12).
    Accepts scalars or arrays.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise OutOfDomain("probability must lie strictly inside (0, 1)")

    # Work on the lower half only and mirror, so the result is antisymmetric
    # by construction (1 - p is exact for p >= 0.5).
    upper = p_arr > 0.5
    q = np.where(upper, 1.0 - p_arr, p_arr)

    x = np.empty_like(q)
    tail = q < _P_LOW
    mid = ~tail
    if mid.any():
        t = q[mid] - 0.5
        r = t * t
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = t * num / den
    if tail.any():
        t = np.sqrt(-2.0 * np.log(q[tail]))
        num = ((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]
        den = (((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0
        x[tail] = num / den

    # Halley refinement against erfc (evaluated on its accurate positive
    # branch, x <= 0 here); skipped where exp(x^2/2) would overflow.
    safe = np.abs(x) < 37.0
    if safe.any():
        xs = x[safe]
        err = 0.5 * erfc(-xs / _SQRT2) - q[safe]
        u = err * _SQRT2PI * np.exp(0.5 * xs * xs)
        x[safe] = xs - u / (1.0 + 0.5 * xs * u)

    x[upper] = -x[upper]
    return float(x[0]) if scalar else x


@dataclass(frozen=True)
class AttributeTransform:
    """Per-attribute empirical quantile tables, rows sorted ascending."""

    tables: np.ndarray  # (K, n)

    @property
    def n(self) -> int:
        return self.tables.shape[1]

    @property
    def n_attributes(self) -> int:
        return self.tables.shape[0]


def fit_transform(attrs: np.ndarray) -> AttributeTransform:
    attrs = np.asarray(attrs, dtype=np.float64)
    if attrs.ndim != 2 or attrs.shape[0] < 2:
        raise TooFewSamples("need a 2-D matrix with at least 2 rows")
    return AttributeTransform(tables=np.sort(attrs.T, axis=1))


def _midrank_probs(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    below = np.searchsorted(table, values, side="left")
    upto = np.searchsorted(table, values, side="right")
    p = (below + (upto - below + 1) / 2.0) / (n + 1)
    eps = 1.0 / (2.0 * n)
    return np.clip(p, eps, 1.0 - eps)


def gaussianize_columns(t: AttributeTransform, raw: np.ndarray) -> np.ndarray:
    """Map raw attribute columns to gaussianized values; raw is (n, K) or (K,)."""
    raw = np.asarray(raw, dtype=np.float64)
    single = raw.ndim == 1
    mat = np.atleast_2d(raw)
    out = np.empty_like(mat)
    for k in range(t.n_attributes):
        out[:, k] = inv_norm_cdf(_midrank_probs(t.tables[k], mat[:, k]))
    return out[0] if single else out


def degaussianize_columns(t: AttributeTransform, gauss: np.ndarray) -> np.ndarray:
    """Inverse map: gaussianized values back to the raw scale via the
    interpolated empirical quantile function, clamped to the table range."""
    gauss = np.asarray(gauss, dtype=np.float64)
    single = gauss.ndim == 1
    mat = np.atleast_2d(gauss)
    p = norm_cdf(mat)
    n = t.n
    positions = np.arange(1, n + 1) / (n + 1)
    out = np.empty_like(mat)
    for k in range(t.n_attributes):
        out[:, k] = np.interp(p[:, k], positions, t.tables[k])
    return out[0] if single else out


def gaussianize_value(t: AttributeTransform, k: int, value: float) -> float:
    """Single raw value of attribute k to its gaussianized counterpart."""
    return float(inv_norm_cdf(_midrank_probs(t.tables[k], np.asarray([value]))[0]))


def save_transform(t: AttributeTransform, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(t.tables, directory / "attr_tables.npy")
    meta = {"n": t.n, "K": t.n_attributes}
    (directory / "attr_meta.json").write_text(json.dumps(meta, indent=2))


def load_transform(directory) -> AttributeTransform:
    directory = Path(directory)
    return AttributeTransform(tables=read_matrix(directory / "attr_tables.npy"))
