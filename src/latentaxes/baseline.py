"""Linear editing baseline: one direction per attribute, fit as an
L2-regularized logistic regression on thresholded labels (the classic
hyperplane editing approach, with an exact deterministic fit).

The fit minimizes, on standardized features xs = (x - mu) / sigma,

    mean(log(1 + exp(z)) - y * z) + FIT_L2 * ||w||^2,    z = xs @ w + b,

with the bias b unpenalized. The objective is strictly convex, so a damped
Newton (IRLS) solve reaches its unique optimum in a handful of
(m+1)x(m+1) solves (Hastie, Tibshirani & Friedman, ESL 4.4.1).
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .editor import first_hit
from .errors import (DimensionMismatch, LatentAxesError, NotConverged,
                     OutOfDomain, SingleClass)
from .npyio import check_finite_rows, read_matrix, read_meta, write_matrix

DEFAULT_AMPLITUDES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0)
FIT_L2 = 1e-3       # ridge weight on the standardized coefficients w
FIT_TOL = 1e-12     # converged once a step moves no coefficient by this much
FIT_MAX_ITER = 50   # Newton steps before NotConverged; the desk data takes 9


@dataclass(frozen=True)
class LinearDirection:
    unit: np.ndarray  # unit-norm direction
    bias: float
    space: str = "W"


def fit_direction(latents: np.ndarray, labels: np.ndarray) -> LinearDirection:
    """Fit the module's objective by damped Newton: each step solves the
    Hessian system for (w, b) and is halved while the objective rises; the
    fit stops once a step moves no coefficient by FIT_TOL, and raises
    NotConverged after FIT_MAX_ITER steps. Returns w / sigma, the direction
    in the original space, at unit norm, and the standardized bias b.

    xs is never formed: the logits are x @ v + c with (v, c) = (w / sigma,
    b - mu @ w / sigma), and the Hessian in (v, c) is mapped to (w, b), so
    the loop's one n-by-m temporary is x times the IRLS weights. A constant
    column (sigma 0) is taken with sigma 1, and gets a zero coefficient.

    NaN or infinite latents or labels raise NonFinite naming the first bad
    row; labels other than 0 and 1 raise OutOfDomain, and labels of one
    class SingleClass.
    """
    x = np.asarray(latents, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionMismatch("latents must be (n, m), labels (n,)")
    check_finite_rows("latents", x)
    check_finite_rows("labels", y)
    off = (y != 0.0) & (y != 1.0)
    if off.any():
        i = np.argmax(off)
        raise OutOfDomain(f"labels row {i} is {y[i]!r}, not 0 or 1")
    if y.min() == y.max():
        raise SingleClass("both classes must be present")
    n, m = x.shape
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma == 0] = 1.0
    to_raw = np.eye(m + 1)  # (v, c) = to_raw @ (w, b)
    to_raw[:m, :m] /= sigma
    to_raw[m, :m] = -mu / sigma
    ridge = np.full(m + 1, 2.0 * FIT_L2)  # the penalty's Hessian diagonal
    ridge[m] = 0.0

    def logits(theta):
        v = to_raw @ theta
        return x @ v[:m] + v[m]

    theta = np.zeros(m + 1)
    z = np.zeros(n)  # logits(theta)
    hess = np.empty((m + 1, m + 1))
    for _ in range(FIT_MAX_ITER):
        p = expit(z)
        s = p * (1.0 - p) / n
        hess[:m, :m] = x.T @ (x * s[:, None])
        hess[:m, m] = hess[m, :m] = s @ x
        hess[m, m] = s.sum()
        r = p - y
        grad = to_raw.T @ np.append(r @ x, r.sum()) / n + ridge * theta
        step = -np.linalg.solve(to_raw.T @ hess @ to_raw + np.diag(ridge), grad)
        while True:
            dz = logits(step)
            # the objective's change, with log(1 + e^(z+dz)) - log(1 + e^z)
            # as log1p(expm1(dz) * p): exact even where the change is below
            # the rounding of the objective itself, as near the optimum. A
            # step so long that it overflows counts as a rise.
            with np.errstate(over="ignore", invalid="ignore"):
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
    unit = theta[:m] / sigma
    return LinearDirection(unit=unit / np.linalg.norm(unit), bias=float(theta[m]))


def linear_edit(w: np.ndarray, direction: LinearDirection,
                amplitude: float) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != direction.unit.shape[0]:
        raise DimensionMismatch("latent/direction dims differ")
    return w + amplitude * direction.unit


@dataclass(frozen=True)
class LinearEditor:
    """Per-attribute linear directions; the positive-edit search walks fixed
    step lengths along them through the shared ``editor.first_hit``."""

    directions: tuple  # one LinearDirection per attribute

    def search_positive(self, latents: np.ndarray, k: int, classify_fn,
                        threshold: float = 0.9):
        latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
        return first_hit(latents, k, classify_fn, threshold,
                         (linear_edit(latents, self.directions[k], amp)
                          for amp in DEFAULT_AMPLITUDES))


def fit_all_directions(latents: np.ndarray, raw_attrs: np.ndarray) -> LinearEditor:
    """Fit one direction per attribute, labels = raw value thresholded at 0.5
    (a non-finite raw value stays non-finite, so the fit refuses it). A fit
    error is raised again, of the same type, naming the attribute."""
    dirs = []
    for k in range(raw_attrs.shape[1]):
        col = raw_attrs[:, k]
        labels = np.where(np.isfinite(col), col >= 0.5, np.nan)
        try:
            dirs.append(fit_direction(latents, labels))
        except LatentAxesError as exc:
            raise type(exc)(f"attribute {k}: {exc}") from exc
    return LinearEditor(directions=tuple(dirs))


def save_directions(editor: LinearEditor, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    units = np.stack([d.unit for d in editor.directions])
    write_matrix(units, directory / "directions.npy")
    meta = {"biases": [d.bias for d in editor.directions],
            "space": editor.directions[0].space}
    (directory / "directions_meta.json").write_text(json.dumps(meta, indent=2))


def load_directions(directory) -> LinearEditor:
    directory = Path(directory)
    units = read_matrix(directory / "directions.npy")
    meta = read_meta(directory / "directions_meta.json",
                     {"biases": list, "space": str})
    dirs = tuple(LinearDirection(unit=units[i], bias=float(meta["biases"][i]),
                                 space=meta["space"])
                 for i in range(units.shape[0]))
    return LinearEditor(directions=dirs)
