"""Quantitative editing protocol.

For every attribute: sample latents once, keep the negatives, push each
one positive with every method's amplitude search, then score each
method's pairs (variation matrix, well-edited rate, identity cosine,
Fréchet distance between pre- and post-edit sets). The classifier and
the identity embedder are pluggable callables, so the synthetic oracle
and any real network share the same code path.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroEmbeddings, NonPSD, TooFewSamples


@dataclass(frozen=True)
class EditPairs:
    """Successful (negative, edited-positive) latent pairs for one attribute."""

    negatives: np.ndarray   # (n_success, m)
    positives: np.ndarray   # (n_success, m)
    n_negatives: int        # negatives that entered the search

    @property
    def n_success(self) -> int:
        return self.negatives.shape[0]

    @property
    def success_rate(self) -> float:
        if self.n_negatives == 0:
            return float("nan")
        return self.n_success / self.n_negatives


def build_edit_pairs(search, classify_fn, negatives: np.ndarray, k: int,
                     threshold: float = 0.9) -> EditPairs:
    """One method's search(latents, k, classify_fn, threshold) -> (edited,
    success) on all of attribute k's negatives, none at all included (the
    rate is then undefined); the successful rows form the pairs."""
    edited, success = search(negatives, k, classify_fn, threshold)
    return EditPairs(negatives=negatives[success], positives=edited[success],
                     n_negatives=negatives.shape[0])


def variation_matrix(pairs_per_attr, classify_fn) -> np.ndarray:
    """Mat[k, l]: mean raw change of attribute l under an edit of attribute k.
    Rows with no successful pairs are NaN."""
    k_total = len(pairs_per_attr)
    mat = np.full((k_total, k_total), np.nan)
    for k, pairs in enumerate(pairs_per_attr):
        if pairs.n_success == 0:
            continue
        before = np.asarray(classify_fn(pairs.negatives), dtype=np.float64)
        after = np.asarray(classify_fn(pairs.positives), dtype=np.float64)
        mat[k] = (after - before).mean(axis=0)
    return mat


def off_diagonal_sum(mat: np.ndarray) -> float:
    """Sum of |off-diagonal entries|: NaN if any is NaN."""
    mat = np.asarray(mat, dtype=np.float64)
    return float(np.abs(mat[~np.eye(*mat.shape, dtype=bool)]).sum())


def identity_similarity(pairs: EditPairs, embed_fn) -> float:
    """Mean cosine between identity embeddings before and after the edit.
    Pairs with a zero-norm embedding are skipped (counted, not scored)."""
    before = np.atleast_2d(np.asarray(embed_fn(pairs.negatives), dtype=np.float64))
    after = np.atleast_2d(np.asarray(embed_fn(pairs.positives), dtype=np.float64))
    nb = np.linalg.norm(before, axis=1)
    na = np.linalg.norm(after, axis=1)
    keep = (nb > 0) & (na > 0)
    if not keep.any():
        raise AllZeroEmbeddings("no pair with nonzero embeddings")
    cos = np.sum(before[keep] * after[keep], axis=1) / (nb[keep] * na[keep])
    return float(cos.mean())


def frechet_distance(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Gaussian-moment distance between two sample sets:
    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}).

    The matrix square root goes through the symmetric product
    S_a^{1/2} S_b S_a^{1/2}; tiny negative eigenvalues are clamped.
    """
    a = np.asarray(set_a, dtype=np.float64)
    b = np.asarray(set_b, dtype=np.float64)
    dim = a.shape[1]
    if a.shape[0] <= dim or b.shape[0] <= dim:
        raise TooFewSamples("need more samples than dimensions")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False).reshape(dim, dim)
    cov_b = np.cov(b, rowvar=False).reshape(dim, dim)

    vals_a, vecs_a = np.linalg.eigh(cov_a)
    _check_psd(vals_a)
    sqrt_a = vecs_a @ (np.sqrt(np.maximum(vals_a, 0.0))[:, None] * vecs_a.T)
    inner = sqrt_a @ cov_b @ sqrt_a
    inner = (inner + inner.T) / 2.0
    vals = np.linalg.eigvalsh(inner)
    _check_psd(vals)
    trace_sqrt = np.sqrt(np.maximum(vals, 0.0)).sum()

    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_sqrt)


def _check_psd(eigenvalues, tol: float = 1e-6):
    scale = max(1.0, float(np.max(np.abs(eigenvalues), initial=0.0)))
    if np.min(eigenvalues, initial=0.0) < -tol * scale:
        raise NonPSD("covariance product has significantly negative eigenvalues")


def score_methods(searches: dict, classify_fn, embed_fn, sample_fn,
                  n_attributes: int, n: int, threshold: float, seed: int) -> dict:
    """Each editing method's report block, under the report's keys, keyed
    and ordered as ``searches`` (method name -> search). Attribute k's
    latents are drawn once, as sample_fn(n, seed + k), and classified once:
    every method searches the same k-negatives, through build_edit_pairs.
    An attribute without a success has a NaN variation row (0 in
    off_diagonal_sum) and no part in identity_similarity; a Fréchet distance
    with n_success <= m is NaN."""
    pairs = {name: [] for name in searches}
    for k in range(n_attributes):
        latents = np.asarray(sample_fn(n, seed + k), dtype=np.float64)
        negatives = latents[np.asarray(classify_fn(latents))[:, k] < 0.5]
        for name, search in searches.items():
            pairs[name].append(build_edit_pairs(search, classify_fn, negatives,
                                                k, threshold))
    blocks = {}
    for name, method_pairs in pairs.items():
        mat = variation_matrix(method_pairs, classify_fn)
        identities = [identity_similarity(p, embed_fn)
                      for p in method_pairs if p.n_success > 0]
        blocks[name] = {
            "well_edited_rates": [p.success_rate for p in method_pairs],
            "n_negatives": [p.n_negatives for p in method_pairs],
            "n_success": [p.n_success for p in method_pairs],
            "variation_matrix": mat,
            "off_diagonal_sum": off_diagonal_sum(np.nan_to_num(mat)),
            "identity_similarity": (float(np.mean(identities)) if identities
                                    else float("nan")),
            "frechet_distances": [frechet_distance(p.negatives, p.positives)
                                  if p.n_success > p.negatives.shape[1]
                                  else float("nan") for p in method_pairs],
        }
    return blocks


def make_report(config, seeds, amplitude_grid, threshold, methods,
                linear_amplitudes=None) -> dict:
    """Assemble the machine-readable evaluation report.

    ``methods`` maps method name -> its score_methods block; arrays become
    lists and NaN becomes null. ``amplitude_grid`` names the autoencoder
    search's quantiles, ``linear_amplitudes`` the linear search's steps.
    """
    def clean(value):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if isinstance(value, float) and np.isnan(value):
            return None
        return value

    report = {
        "schema_version": 1,
        "config": config,
        "seeds": seeds,
        "amplitude_grid": clean(amplitude_grid),
        "linear_amplitudes": clean(linear_amplitudes),
        "threshold": threshold,
        "methods": {name: {key: clean(value) for key, value in block.items()}
                    for name, block in methods.items()},
    }
    json.dumps(report)  # guarantee serializability before returning
    return report
