"""Linear editing baseline: one direction per attribute, fit as an
L2-regularized logistic regression on thresholded labels (the classic
hyperplane editing approach, with an exact deterministic fit).

The fit minimizes, on standardized features xs = (x - mu) / sigma,

    mean(log(1 + exp(z)) - y * z) + FIT_L2 * ||w||^2,    z = xs @ w + b,

with the bias b unpenalized. The objective is strictly convex, so a damped
Newton (IRLS) solve reaches its unique optimum in a handful of
(m+1)x(m+1) solves (Hastie, Tibshirani & Friedman, ESL 4.4.1). The optimum
is float64; only the Hessian's feature block is float32 (inexact Newton).
On more than 2 * WARM_ROWS rows, Newton starts from the optimum on the first
WARM_ROWS rows, which is close enough that the steps over all rows take
quadratic convergence from the first (on the desk data 5 instead of 9).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .editor import first_hit
from .errors import DimensionMismatch, LatentAxesError, NotConverged, SingleClass
from .npyio import check_finite_rows, read_matrix, write_matrix
from .pca import BLOCK_ROWS

DEFAULT_AMPLITUDES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0)
FIT_L2 = 1e-3       # ridge weight on the standardized coefficients w
FIT_TOL = 1e-12     # converged once a step moves no coefficient by this much
FIT_MAX_ITER = 50   # Newton steps before NotConverged, per phase: the desk
                    # data takes 9 on the warm-start rows, then 5 on all
WARM_ROWS = 2048    # rows of the warm-start fit


def expit(z):
    """The logistic function 1 / (1 + exp(-z)), as exp(z) / (1 + exp(z))
    for negative z, so that no exp overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _fit(x, y, to_raw, xs32, theta):
    """The optimum (w, b) on rows x with labels y, Newton from theta."""
    n, m = x.shape
    ridge = np.full(m + 1, 2.0 * FIT_L2)  # the penalty's Hessian diagonal
    ridge[m] = 0.0

    def logits(theta):
        v = to_raw @ theta
        return x @ v[:m] + v[m]

    theta = theta.copy()
    z = logits(theta)
    hess = np.empty((m + 1, m + 1))
    for _ in range(FIT_MAX_ITER):
        p = expit(z)
        s = p * (1.0 - p) / n
        sr = np.stack([s, p - y])  # IRLS weights and residuals
        # the Hessian's bias row and the gradient, mapped from (v, c) to (w, b)
        hess_b, grad = np.column_stack([sr @ x, sr.sum(axis=1)]) @ to_raw
        # summed over row blocks of u = xs32 * sqrt(s), so that no n-by-m u
        # is made; numpy forms each u.T @ u by a symmetric rank-k update
        hess[:m, :m] = 0.0
        for i in range(0, n, BLOCK_ROWS):
            b = slice(i, i + BLOCK_ROWS)
            u = xs32[b] * np.sqrt(s[b]).astype(np.float32)[:, None]
            hess[:m, :m] += u.T @ u
        hess[m] = hess[:, m] = hess_b
        step = -np.linalg.solve(hess + np.diag(ridge), grad / n + ridge * theta)
        while True:
            dz = logits(step)
            # the objective's change, with log(1 + e^(z+dz)) - log(1 + e^z)
            # as log1p(expm1(dz) * p): exact even where the change is below
            # the rounding of the objective itself, as near the optimum. A
            # step so long that it overflows, or takes a row's log1p to -inf
            # where p rounds to 1, counts as a rise.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rise = (np.mean(np.log1p(np.expm1(dz) * p) - y * dz)
                        + FIT_L2 * step[:m] @ (2.0 * theta[:m] + step[:m]))
            done = np.abs(step).max() < FIT_TOL
            if done or (np.isfinite(rise) and rise <= 0.0):
                break
            step /= 2.0
        theta += step
        z += dz
        if done:
            break
    else:
        raise NotConverged(f"no convergence in {FIT_MAX_ITER} Newton steps "
                           f"(last step {np.abs(step).max():.3g})")
    return theta


def linear_edit(w: np.ndarray, unit: np.ndarray, amplitude: float) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != unit.shape[0]:
        raise DimensionMismatch("latent/direction dims differ")
    return w + amplitude * unit


@dataclass(frozen=True)
class LinearEditor:
    """Per-attribute linear directions; the positive-edit search walks fixed
    step lengths along them through the shared ``editor.first_hit``, whose
    (edited, success) it returns."""

    units: np.ndarray   # (K, m): row k is attribute k's unit-norm direction
    biases: np.ndarray  # (K,): attribute k's standardized bias b

    def search_positive(self, latents: np.ndarray, k: int, classify_fn,
                        threshold: float = 0.9):
        latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
        unit = self.units[k]
        return first_hit(latents, k, classify_fn, threshold,
                         len(DEFAULT_AMPLITUDES),
                         lambda i, rows: linear_edit(latents[rows], unit,
                                                     DEFAULT_AMPLITUDES[i]))


def fit_all_directions(latents: np.ndarray, raw_attrs: np.ndarray) -> LinearEditor:
    """Fit the module's objective for each attribute k on labels y = raw
    value >= 0.5 (a non-finite raw value is refused) by damped Newton: each
    step solves the Hessian system for (w, b) and is halved while the
    objective rises; a fit stops once a step moves no coefficient by FIT_TOL
    and raises NotConverged after FIT_MAX_ITER steps. On n > 2 * WARM_ROWS
    rows, the fit on all rows starts from the same fit on the first
    WARM_ROWS rows, or from zero when those hold one class or the fit on
    them does not converge. units[k] is w / sigma, the direction in the
    original space, at unit norm; biases[k] is b.

    The logits x @ v + c, with (v, c) = (w / sigma, b - mu @ w / sigma), the
    gradient and the line search are float64, so the fixed point is the
    float64 optimum; the Hessian's feature block is a float32 product of the
    standardized latents (raw ones lose the optimum to cancellation), shared
    by every attribute. sigma and that product are summed over BLOCK_ROWS-row
    blocks, so no n-by-m temporary is made beside the shared design. The
    fit changes nothing outside its own arrays, so it may run on a thread of
    its own. A constant column (sigma 0) gets sigma 1 and a zero weight. Bad
    shapes and non-finite latents are refused before any fit; a fit error is
    raised again, of the same type, naming the attribute.
    """
    x = np.asarray(latents, dtype=np.float64)
    raw_attrs = np.asarray(raw_attrs, dtype=np.float64)
    if x.ndim != 2 or raw_attrs.ndim != 2 or raw_attrs.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"latents {x.shape} and raw_attrs "
                                f"{raw_attrs.shape} must be (n, m) and (n, K)")
    check_finite_rows("latents", x)
    # shared by every fit: (v, c) = to_raw @ (w, b), and xs32, the standardized
    # x in float32; sigma and xs32 come from row blocks, so that no n-by-m
    # float64 is made
    n, m = x.shape
    blocks = [slice(i, i + BLOCK_ROWS) for i in range(0, n, BLOCK_ROWS)]
    mu = x.mean(axis=0)
    sigma = np.sqrt(sum(((x[b] - mu) ** 2).sum(axis=0) for b in blocks) / n)
    sigma[sigma == 0] = 1.0
    to_raw = np.eye(m + 1)
    to_raw[:m, :m] /= sigma
    to_raw[m, :m] = -mu / sigma
    xs32 = np.empty((n, m), dtype=np.float32)
    for b in blocks:
        xs32[b] = (x[b] - mu) / sigma
    units, biases = np.empty((raw_attrs.shape[1], m)), np.empty(raw_attrs.shape[1])
    for k, col in enumerate(raw_attrs.T):
        labels = col >= 0.5
        try:
            check_finite_rows("labels", col)
            if labels.min() == labels.max():
                raise SingleClass("both classes must be present")
            theta = np.zeros(m + 1)
            warm = labels[:WARM_ROWS]
            if n > 2 * WARM_ROWS and warm.min() < warm.max():
                try:
                    theta = _fit(x[:WARM_ROWS], warm, to_raw, xs32[:WARM_ROWS],
                                 theta)
                except NotConverged:
                    pass  # all rows from zero, as with no warm start
            theta = _fit(x, labels, to_raw, xs32, theta)
        except LatentAxesError as exc:
            raise type(exc)(f"attribute {k}: {exc}") from exc
        unit = theta[:m] / sigma
        units[k], biases[k] = unit / np.linalg.norm(unit), theta[m]
    return LinearEditor(units=units, biases=biases)


def save_directions(editor: LinearEditor, directory) -> None:
    """Write ``directions.npy``: row k is units[k], then biases[k]."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(np.column_stack([editor.units, editor.biases]),
                 directory / "directions.npy")


def load_directions(directory) -> LinearEditor:
    directions = read_matrix(Path(directory) / "directions.npy")
    return LinearEditor(units=directions[:, :-1], biases=directions[:, -1])
