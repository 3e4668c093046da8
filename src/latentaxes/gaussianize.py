"""Rank-based gaussianization of attribute values.

Classifier outputs live in [0, 1] and pile up near the endpoints. Each
attribute column is mapped to an approximately standard-normal variable by
composing its empirical CDF (midrank convention, so ties are order
independent) with the inverse normal CDF (`scipy.special.ndtri`), and back
by interpolating the empirical quantile function.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import OutOfDomain, TooFewSamples
from .npyio import read_matrix, write_matrix


def norm_cdf(x):
    """Standard normal CDF (`scipy.special.ndtr`, accurate in both tails)."""
    return ndtr(np.asarray(x, dtype=np.float64))


def inv_norm_cdf(p):
    """Inverse standard normal CDF (`scipy.special.ndtri`).

    Accepts scalars or arrays; a scalar in gives a float out.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):  # NaN is outside too
        raise OutOfDomain("probability must lie strictly inside (0, 1)")
    x = ndtri(p_arr)
    return float(x) if p_arr.ndim == 0 else x


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


def load_transform(directory) -> AttributeTransform:
    directory = Path(directory)
    return AttributeTransform(tables=read_matrix(directory / "attr_tables.npy"))
