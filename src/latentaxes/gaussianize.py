"""Rank-based gaussianization of attribute values.

Classifier outputs live in [0, 1] and pile up near the endpoints. Each
attribute column is mapped to an approximately standard-normal variable by
composing its empirical CDF (midrank convention, so ties are order
independent) with the inverse normal CDF, and back by interpolating the
empirical quantile function.

The inverse normal CDF is a numpy port of Moshier's Cephes ``ndtri``: a
rational function of y - 1/2 where exp(-2) < y < 1 - exp(-2), and of
z = 1 / sqrt(-2 log y) on the smaller tail probability y in each tail, with
one table for sqrt(-2 log y) < 8 and one beyond.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, NonFinite, OutOfDomain, TooFewSamples
from .npyio import check_finite_rows, read_matrix, write_matrix

MIN_SAMPLES = 2  # fewest samples per attribute a transform is built on
_SQRT2 = math.sqrt(2.0)
_SQRT2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189  # exp(-2), where the tails begin
# Cephes ndtri's tables, highest power first; each Q has Cephes's implied
# leading 1 written out (1 * x + q is exact, so the bits are Cephes's)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def norm_cdf(x):
    """Standard normal CDF, 0.5 * erfc(-x / sqrt(2)) element by element,
    accurate in both tails."""
    x = np.asarray(x, dtype=np.float64)
    erfc = np.fromiter(map(math.erfc, (-x / _SQRT2).flat), np.float64, x.size)
    return 0.5 * erfc.reshape(x.shape)


def inv_norm_cdf(p):
    """Inverse standard normal CDF (Cephes ``ndtri``, see the module notes).

    Accepts scalars or arrays; a scalar in gives a float out.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):  # NaN is outside too
        raise OutOfDomain("probability must lie strictly inside (0, 1)")
    flat = p_arr.ravel()
    upper = flat > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - flat, flat)  # the smaller tail probability
    x = np.empty_like(y)
    # each branch is computed on its own elements only
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    x[central] = (c + c * (c2 * np.polyval(_P0, c2) / np.polyval(_Q0, c2))) * _SQRT2PI
    tail = ~central
    r = np.sqrt(-2.0 * np.log(y[tail]))
    x1 = np.empty_like(r)
    for part, p_tab, q_tab in ((r < 8.0, _P1, _Q1), (r >= 8.0, _P2, _Q2)):
        z = 1.0 / r[part]
        x1[part] = z * np.polyval(p_tab, z) / np.polyval(q_tab, z)
    x_tail = r - np.log(r) / r - x1
    x[tail] = np.where(upper[tail], x_tail, -x_tail)
    return float(x[0]) if p_arr.ndim == 0 else x.reshape(p_arr.shape)


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
    if attrs.ndim != 2 or attrs.shape[0] < MIN_SAMPLES:
        raise TooFewSamples(f"need a 2-D matrix with at least {MIN_SAMPLES} rows")
    check_finite_rows("attrs", attrs)
    return AttributeTransform(tables=np.sort(attrs.T, axis=1))


def _midrank_probs(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    # on ascending keys, numpy's binary search starts from the previous
    # key's bound, so both searches run on the sorted values
    order = np.argsort(values)
    keys = values[order]
    below, upto = np.empty_like(order), np.empty_like(order)
    below[order] = np.searchsorted(table, keys, side="left")
    upto[order] = np.searchsorted(table, keys, side="right")
    p = (below + (upto - below + 1) / 2.0) / (n + 1)
    eps = 1.0 / (2.0 * n)
    return np.clip(p, eps, 1.0 - eps)


def _columns(t: AttributeTransform, values) -> np.ndarray:
    """``values``, (n, K) or (K,), as an (n, K) float64 matrix; another
    width than the transform's K is a DimensionMismatch."""
    mat = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if mat.shape[1] != t.n_attributes:
        raise DimensionMismatch(f"{mat.shape[1]} attribute columns, but the "
                                f"transform has {t.n_attributes}")
    return mat


def gaussianize_columns(t: AttributeTransform, raw: np.ndarray) -> np.ndarray:
    """Map raw attribute columns to gaussianized values; raw is (n, K) or (K,).
    A NaN or infinity is a NonFinite naming the row."""
    mat = _columns(t, raw)
    check_finite_rows("raw", mat)
    out = np.empty_like(mat)
    for k in range(t.n_attributes):
        out[:, k] = inv_norm_cdf(_midrank_probs(t.tables[k], mat[:, k]))
    return out[0] if np.ndim(raw) == 1 else out


def degaussianize_columns(t: AttributeTransform, gauss: np.ndarray) -> np.ndarray:
    """Inverse map: gaussianized values back to the raw scale via the
    interpolated empirical quantile function, clamped to the table range."""
    mat = _columns(t, gauss)
    p = norm_cdf(mat)
    n = t.n
    positions = np.arange(1, n + 1) / (n + 1)
    out = np.empty_like(mat)
    for k in range(t.n_attributes):
        out[:, k] = np.interp(p[:, k], positions, t.tables[k])
    return out[0] if np.ndim(gauss) == 1 else out


def gaussianize_value(t: AttributeTransform, k: int, value: float) -> float:
    """Single raw value of attribute k to its gaussianized counterpart; a
    NaN or infinity is a NonFinite naming the attribute."""
    if not math.isfinite(value):
        raise NonFinite(f"attribute {k}: value {value} is not finite")
    return float(inv_norm_cdf(_midrank_probs(t.tables[k], np.asarray([value]))[0]))


def save_transform(t: AttributeTransform, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(t.tables, directory / "attr_tables.npy")


def load_transform(directory, k=None) -> AttributeTransform:
    """The transform ``save_transform`` wrote; a table count other than
    ``k``, the model's K where given, is a DimensionMismatch, fewer than
    MIN_SAMPLES samples a TooFewSamples and a row that is not sorted
    ascending an OutOfDomain, each naming the file."""
    path = Path(directory) / "attr_tables.npy"
    t = AttributeTransform(read_matrix(path, (k, None), "model_meta.json"))
    if t.n < MIN_SAMPLES:
        raise TooFewSamples(f"{path}: sample count {t.n} is below {MIN_SAMPLES}")
    unsorted = (np.diff(t.tables, axis=1) < 0).any(axis=1)
    if unsorted.any():
        raise OutOfDomain(f"{path}: row {np.argmax(unsorted)} is not sorted")
    return t
