"""End-to-end attribute editing: project, encode, move a code slot, decode,
reattach the untouched trailing coordinates, reconstruct.

Code slots hold gaussianized attribute values, so a slider is linear in code
space; a raw-scale wrapper converts through the attribute transform. The
amplitude search walks targets expressed as quantiles, which makes the
schedule independent of any per-attribute scale.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, OracleFailure, OutOfDomain
from .gaussianize import AttributeTransform, gaussianize_value, inv_norm_cdf
from .mlp import mlp_forward
from .pca import PcaModel, PcaSplit, project, reconstruct
from .training import EncoderDecoder

DEFAULT_AMPLITUDE_QUANTILES = (
    0.55, 0.65, 0.75, 0.85, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9995,
)


@dataclass(frozen=True)
class EditableCode:
    slots: np.ndarray     # (d,) or (n, d): K attribute slots, then d - K free
    residual: np.ndarray  # (m - d,) or (n, m - d)
    n_attributes: int
    # views into slots: the gaussianized attribute slots, and the free ones
    attr_slots = property(lambda self: self.slots[..., :self.n_attributes])
    free_slots = property(lambda self: self.slots[..., self.n_attributes:])


@dataclass(frozen=True)
class EditPipeline:
    pca: PcaModel
    transform: AttributeTransform
    model: EncoderDecoder

    def __post_init__(self):
        if self.pca.split != self.model.encoder.layer_sizes[0]:
            raise DimensionMismatch("PCA split does not match encoder input")
        if self.transform.n_attributes != self.model.n_attributes:
            raise DimensionMismatch("transform/model attribute counts differ")


def encode(pipeline: EditPipeline, w: np.ndarray) -> EditableCode:
    split = project(pipeline.pca, w)
    slots, _ = mlp_forward(pipeline.model.encoder, split.top)
    return EditableCode(slots, split.residual, pipeline.model.n_attributes)


def decode(pipeline: EditPipeline, code: EditableCode) -> np.ndarray:
    top, _ = mlp_forward(pipeline.model.decoder, code.slots)
    return reconstruct(pipeline.pca, PcaSplit(top=top, residual=code.residual))


def set_attribute(code: EditableCode, k: int, value: float) -> EditableCode:
    """Return a copy with attribute slot k set; everything else untouched."""
    if not 0 <= k < code.n_attributes:
        raise IndexError(f"attribute index {k} out of range")
    slots = code.slots.copy()
    slots[..., k] = value
    return replace(code, slots=slots)


def raw_to_slot(pipeline: EditPipeline, k: int, raw_value: float) -> float:
    """Slot value (gaussianized scale) of a raw attribute-k value in [0, 1];
    another value (NaN too) is OutOfDomain."""
    if not 0.0 <= raw_value <= 1.0:
        raise OutOfDomain(f"raw attribute value {raw_value} outside [0, 1]")
    return gaussianize_value(pipeline.transform, k, raw_value)


def edit(pipeline: EditPipeline, w: np.ndarray, k: int,
         target_gaussianized: float) -> np.ndarray:
    return decode(pipeline, set_attribute(encode(pipeline, w), k,
                                          target_gaussianized))


def search_positive(pipeline: EditPipeline, latents: np.ndarray, k: int,
                    classify_fn, threshold: float = 0.9,
                    quantile_grid=DEFAULT_AMPLITUDE_QUANTILES):
    """Amplitude search over a batch of k-negative latents: encode once,
    then walk slot-k targets at the quantiles of ``quantile_grid``.
    Returns (edited (n, m), success (n,)), as ``first_hit`` does."""
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    code = encode(pipeline, latents)
    targets = inv_norm_cdf(quantile_grid)

    def candidate(i, rows):
        sub = replace(code, slots=code.slots[rows], residual=code.residual[rows])
        return decode(pipeline, set_attribute(sub, k, targets[i]))

    return first_hit(latents, k, classify_fn, threshold, len(quantile_grid),
                     candidate)


def first_hit(latents: np.ndarray, k: int, classify_fn, threshold: float,
              n_candidates: int, candidate):
    """The amplitude walk shared by every editing method.

    ``candidate(i, rows)`` returns the i-th of ``n_candidates`` edits, in
    increasing amplitude, of ``latents[rows]``, for an index array ``rows``.
    Each step asks it only for the rows that have not hit yet, and the walk
    stops once every row has hit. Returns (edited, success): a row takes the
    first candidate whose classifier output for attribute k reaches the
    threshold, and a row that never does comes back as its input, bit for
    bit, with success False.
    """
    edited = latents.copy()
    rows = np.arange(latents.shape[0])  # still pending
    for i in range(n_candidates):
        if rows.size == 0:
            break
        w_hat = candidate(i, rows)
        out = np.asarray(classify_fn(w_hat), dtype=np.float64)
        if not np.isfinite(out).all():
            raise OracleFailure("classifier returned non-finite values")
        hit = out[:, k] >= threshold
        edited[rows[hit]] = w_hat[hit]
        rows = rows[~hit]
    success = np.ones(latents.shape[0], dtype=bool)
    success[rows] = False
    return edited, success
