"""Linear editing baseline: one direction per attribute, the normal of a
separating hyperplane (the InterFaceGAN family), fit in closed form as a
ridge least-squares regression of the attribute's raw score on the
standardized latents xs = (x - mu) / sigma:

    (R + FIT_L2 * I) W = cov(xs, Y),    R = cov(xs, xs),

one m-by-m solve with a right-hand side per attribute. The raw scores, not
labels thresholded from them, are the regressand: they carry how far a row
lies from the boundary.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .editor import first_hit
from .errors import DimensionMismatch, LatentAxesError, SingleClass, TooFewSamples
from .npyio import check_finite_rows, read_matrix, write_matrix
from .pca import BLOCK_ROWS

DEFAULT_AMPLITUDES = tuple(round(0.1 * i, 1) for i in range(1, 81))
FIT_L2 = 1e-3  # ridge weight on the standardized coefficients w


def linear_edit(w: np.ndarray, unit: np.ndarray,
                amplitude: float | np.ndarray) -> np.ndarray:  # one, or per row
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != unit.shape[0]:
        raise DimensionMismatch("latent/direction dims differ")
    return w + np.multiply.outer(amplitude, unit)


@dataclass(frozen=True)
class LinearEditor:
    """Per-attribute linear directions; the positive-edit search bisects
    fixed step lengths along them through the shared ``editor.first_hit``,
    whose (edited, success) it returns."""

    units: np.ndarray  # (K, m): row k is attribute k's unit-norm direction

    def search_positive(self, latents: np.ndarray, k: int, classify_fn,
                        threshold: float = 0.9):
        latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
        unit, steps = self.units[k], np.asarray(DEFAULT_AMPLITUDES)
        return first_hit(latents, k, classify_fn, threshold, len(steps),
                         lambda idx, rows: linear_edit(latents[rows], unit,
                                                       steps[idx]))


def fit_all_directions(latents: np.ndarray, raw_attrs: np.ndarray) -> LinearEditor:
    """Solve the module's ridge system for every attribute at once, one
    right-hand side per attribute's raw scores; units[k] is w / sigma, the
    direction in the original space, at unit norm. One pass over
    BLOCK_ROWS-row blocks centres each block once and sums the covariance
    and all K cross-covariances, so no n-by-m temporary is made. A constant
    column gets sigma 1 and a zero weight; it is found by its own max and
    min, as its centred values may be a few ulps off 0. Bad shapes, fewer
    than 2 rows, non-finite latents and, naming the attribute, a non-finite
    score or scores all on one side of 0.5 are refused before any fit.
    """
    x = np.asarray(latents, dtype=np.float64)
    raw_attrs = np.asarray(raw_attrs, dtype=np.float64)
    if x.ndim != 2 or raw_attrs.ndim != 2 or raw_attrs.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"latents {x.shape} and raw_attrs "
                                f"{raw_attrs.shape} must be (n, m) and (n, K)")
    n, m = x.shape
    if n < 2:
        raise TooFewSamples(f"the linear baseline needs at least 2 rows, got {n}")
    check_finite_rows("latents", x)
    for k, col in enumerate(raw_attrs.T):
        try:
            check_finite_rows("labels", col)
            labels = col >= 0.5
            if labels.min() == labels.max():
                raise SingleClass("both classes must be present")
        except LatentAxesError as exc:
            raise type(exc)(f"attribute {k}: {exc}") from exc
    mu, y_mu = x.mean(axis=0), raw_attrs.mean(axis=0)
    cov = np.zeros((m, m))
    cross = np.zeros((m, raw_attrs.shape[1]))
    for i in range(0, n, BLOCK_ROWS):
        xc = x[i:i + BLOCK_ROWS] - mu
        cov += xc.T @ xc
        cross += xc.T @ (raw_attrs[i:i + BLOCK_ROWS] - y_mu)
    sigma = np.sqrt(np.diag(cov) / n)
    sigma[x.max(axis=0) == x.min(axis=0)] = 1.0
    system = cov / n / np.outer(sigma, sigma) + FIT_L2 * np.eye(m)
    w = np.linalg.solve(system, cross / n / sigma[:, None]).T / sigma
    return LinearEditor(units=w / np.linalg.norm(w, axis=1, keepdims=True))


def save_directions(editor: LinearEditor, directory) -> None:
    """Write ``directions.npy``: row k is units[k]."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(editor.units, directory / "directions.npy")


def load_directions(directory) -> LinearEditor:
    return LinearEditor(units=read_matrix(Path(directory) / "directions.npy"))
