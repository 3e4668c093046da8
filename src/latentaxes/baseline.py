"""Linear editing baseline: one direction per attribute, fit as an
L2-regularized logistic regression on thresholded labels (the classic
SVM-hyperplane editing approach, with a simpler deterministic fit)."""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .editor import first_hit
from .errors import DimensionMismatch, SingleClass
from .npyio import read_matrix, read_meta, write_matrix

DEFAULT_AMPLITUDES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0)
FIT_L2, FIT_ITERATIONS, FIT_LR = 1e-3, 500, 0.1


@dataclass(frozen=True)
class LinearDirection:
    unit: np.ndarray  # unit-norm direction
    bias: float
    space: str = "W"


def fit_direction(latents: np.ndarray, labels: np.ndarray) -> LinearDirection:
    """Gradient-descent logistic fit on standardized features; the resulting
    weight vector is mapped back to the original space and unit-normalized."""
    x = np.asarray(latents, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionMismatch("latents must be (n, m), labels (n,)")
    if y.min() == y.max():
        raise SingleClass("both classes must be present")
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma == 0] = 1.0
    xs = (x - mu) / sigma

    n, m = xs.shape
    w = np.zeros(m)
    b = 0.0
    for _ in range(FIT_ITERATIONS):
        p = 1.0 / (1.0 + np.exp(-(xs @ w + b)))
        err = p - y
        w -= FIT_LR * (xs.T @ err / n + 2.0 * FIT_L2 * w)
        b -= FIT_LR * err.mean()
    w_orig = w / sigma
    norm = np.linalg.norm(w_orig)
    return LinearDirection(unit=w_orig / norm, bias=float(b))


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
                        threshold: float = 0.9,
                        amplitudes=DEFAULT_AMPLITUDES):
        latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
        return first_hit(latents, k, classify_fn, threshold,
                         (linear_edit(latents, self.directions[k], amp)
                          for amp in amplitudes))


def fit_all_directions(latents: np.ndarray, raw_attrs: np.ndarray) -> LinearEditor:
    """Fit one direction per attribute, labels = raw value thresholded at 0.5."""
    dirs = []
    for k in range(raw_attrs.shape[1]):
        labels = (raw_attrs[:, k] >= 0.5).astype(np.float64)
        dirs.append(fit_direction(latents, labels))
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
