"""Full-basis PCA of the latent space with a leading/trailing coordinate split.

The model keeps every component: edits operate on the ``split`` leading
coordinates while the trailing ones ride along untouched, so reconstruction
is exact by construction rather than lossy.

``project`` and ``reconstruct`` take one vector (1-D) or a batch of rows
(2-D) and multiply with ``ndarray.dot``: the same BLAS call and bits as
``@``, without the ``matmul`` gufunc's 0.34-0.45 us of dispatch per small
product, of which an edit makes ten (these two and the eight layers of
``mlp_forward``). A 3-D input, which ``dot`` would send down numpy's
non-BLAS path, is refused.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, TooFewSamples
from .npyio import check_finite_rows, read_matrix, read_meta, write_matrix

# rows per block of the n-by-m temporaries. OpenBLAS can give a block of a
# few dozen rows other product bits than the whole matrix (blocks of up to 33
# rows did on a Haswell kernel, m = 32), so no block is smaller than this.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray        # (m,)
    basis: np.ndarray       # (m, m), columns sorted by descending eigenvalue
    eigenvalues: np.ndarray  # (m,), non-increasing
    split: int              # number of leading components kept editable

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


class PcaSplit(NamedTuple):  # built per edit: lighter than a dataclass
    top: np.ndarray       # (split,) or (n, split)
    residual: np.ndarray  # (m - split,) or (n, m - split)


def fit_pca(data: np.ndarray, split: int) -> PcaModel:
    """Fit the full orthonormal basis via eigendecomposition of the covariance.

    Sign convention: in each column the entry of largest magnitude is made
    positive, so refits are bit-reproducible.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatch("data must be 2-D (samples x features)")
    n, m = data.shape
    if not (1 <= split <= m):
        raise DimensionMismatch(f"split {split} out of range for dim {m}")
    if n < 2:
        raise TooFewSamples("PCA needs at least 2 samples")
    check_finite_rows("data", data)

    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]

    if eigvals[0] == 0.0:
        # all rows identical: identity basis fallback
        return PcaModel(mean=mean, basis=np.eye(m), eigenvalues=np.zeros(m),
                        split=split)

    flip = np.sign(eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(m)])
    eigvecs = eigvecs * flip
    return PcaModel(mean=mean, basis=eigvecs, eigenvalues=eigvals, split=split)


def _check_vec(w: np.ndarray, dim: int, what: str) -> np.ndarray:
    """w in float64, refused unless it is one vector or a batch of rows,
    each of length dim."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2):
        raise DimensionMismatch(f"{what} of shape {w.shape} is not 1-D or 2-D")
    if w.shape[-1] != dim:
        raise DimensionMismatch(f"{what} dim {w.shape[-1]} != {dim}")
    return w


def project(model: PcaModel, w: np.ndarray) -> PcaSplit:
    """Coordinates of ``w - mean`` in the basis, split into leading/trailing.

    Accepts a single vector or a batch (rows are samples). A batch is
    projected in blocks of BLOCK_ROWS rows, the remainder joining the last
    block, into a C-contiguous ``top`` and ``residual`` of their own, so no
    n-by-m temporary is made; each row has the bits of the one-shot product.
    """
    w = _check_vec(w, model.dim, "latent")
    d = model.split
    if w.ndim == 1:
        t = (w - model.mean).dot(model.basis)
        return PcaSplit(top=t[:d], residual=t[d:])
    n = w.shape[0]
    top, residual = np.empty((n, d)), np.empty((n, model.dim - d))
    starts = range(0, BLOCK_ROWS * max(n // BLOCK_ROWS, 1), BLOCK_ROWS)
    for start, stop in zip(starts, [*starts[1:], n]):
        t = (w[start:stop] - model.mean).dot(model.basis)
        top[start:stop], residual[start:stop] = t[:, :d], t[:, d:]
        del t  # freed before the next block's two temporaries exist
    return PcaSplit(top=top, residual=residual)


def reconstruct(model: PcaModel, split: PcaSplit) -> np.ndarray:
    top = _check_vec(split.top, model.split, "top")
    residual = _check_vec(split.residual, model.dim - model.split, "residual")
    t = np.concatenate([top, residual], axis=-1)
    return model.mean + t.dot(model.basis.T)


def explained_variance_fraction(model: PcaModel, d: int) -> float:
    if not (1 <= d <= model.dim):
        raise DimensionMismatch(f"d {d} out of range for dim {model.dim}")
    total = model.eigenvalues.sum()
    if total == 0.0:
        return 1.0
    return float(model.eigenvalues[:d].sum() / total)


def save_pca(model: PcaModel, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(model.mean[None, :], directory / "pca_mean.npy")
    write_matrix(model.basis, directory / "pca_basis.npy")
    write_matrix(model.eigenvalues[None, :], directory / "pca_eigenvalues.npy")
    meta = {"d": model.split}
    (directory / "pca_meta.json").write_text(json.dumps(meta, indent=2))


def load_pca(directory) -> PcaModel:
    """The model ``save_pca`` wrote. It refuses a ``d`` outside [1, m], and
    a basis or eigenvalue file whose shape is not the mean's m x m or 1 x m
    (a DimensionMismatch naming the file)."""
    directory = Path(directory)
    meta_path = directory / "pca_meta.json"
    d = read_meta(meta_path, {"d": int})["d"]

    mean = read_matrix(directory / "pca_mean.npy", (1, None), "a mean row")[0]
    m = mean.shape[0]
    if not 1 <= d <= m:
        raise ConfigInvalid(f"{meta_path}: d {d} is not in [1, {m}], the latent dim")
    return PcaModel(
        mean=mean,
        basis=read_matrix(directory / "pca_basis.npy", (m, m), "pca_mean.npy"),
        eigenvalues=read_matrix(directory / "pca_eigenvalues.npy", (1, m),
                                "pca_mean.npy")[0],
        split=d)
