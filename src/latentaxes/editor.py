"""End-to-end attribute editing: project, encode, move a code slot, decode,
reattach the untouched trailing coordinates, reconstruct.

Code slots hold gaussianized attribute values, so a slider is linear in code
space; a raw value reaches its slot through ``gaussianize_value``. The
amplitude search bisects a grid of targets expressed as quantiles, which
makes the schedule independent of any per-attribute scale.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, OracleFailure
from .gaussianize import AttributeTransform, inv_norm_cdf
from .mlp import mlp_forward
from .pca import PcaModel, PcaSplit, project, reconstruct
from .training import EncoderDecoder

# the search's grid: every 0.02 from 0.55 to 0.93, then finer towards 1
AMPLITUDE_QUANTILES = tuple(np.concatenate([
    np.arange(0.55, 0.95, 0.02),
    [0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 0.999, 0.9995]]).tolist())
# no search reads this coarser grid: perfbench's edit-single takes its slider
# targets, and the 50-call block its median is taken over, from its 10 values
DEFAULT_AMPLITUDE_QUANTILES = (
    0.55, 0.65, 0.75, 0.85, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9995,
)


class EditableCode(NamedTuple):  # built per edit: lighter than a dataclass
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
    return EditableCode(slots, code.residual, code.n_attributes)


def edit(pipeline: EditPipeline, w: np.ndarray, k: int,
         target_gaussianized: float) -> np.ndarray:
    return decode(pipeline, set_attribute(encode(pipeline, w), k,
                                          target_gaussianized))


def search_positive(pipeline: EditPipeline, latents: np.ndarray, k: int,
                    classify_fn, threshold: float = 0.9):
    """Amplitude search over a batch of k-negative latents: encode once,
    then bisect slot-k targets at the quantiles of ``AMPLITUDE_QUANTILES``.
    Returns (edited (n, m), success (n,)), as ``first_hit`` does."""
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    code = encode(pipeline, latents)
    targets = inv_norm_cdf(AMPLITUDE_QUANTILES)

    def candidate(idx, rows):
        sub = EditableCode(code.slots[rows], code.residual[rows],
                           code.n_attributes)
        return decode(pipeline, set_attribute(sub, k, targets[idx]))

    return first_hit(latents, k, classify_fn, threshold,
                     len(AMPLITUDE_QUANTILES), candidate)


def first_hit(latents: np.ndarray, k: int, classify_fn, threshold: float,
              n_candidates: int, candidate):
    """The amplitude search shared by every editing method: it bisects each
    row's index into ``n_candidates`` edits of increasing amplitude, which
    ``candidate(idx, rows)`` returns: edit ``idx[j]`` of ``latents[rows[j]]``.
    A row hits where its classifier output for attribute k reaches the
    threshold. Each probe classifies only the rows still searching, in at
    most ceil(log2(n_candidates + 1)) calls. Returns (edited, success). On a
    row whose output never falls along the edits, the answer is the first
    hit, as a walk finds it; on any other row, it is the hit at the final
    bound, and every probed index below that bound missed. A row with no hit
    comes back as its input, bit for bit, with success False.
    """
    edited = latents.copy()
    lo = np.zeros(len(latents), dtype=np.intp)
    hi = lo + n_candidates  # the lowest index known to hit; none yet
    rows = np.flatnonzero(lo < hi)  # still searching
    while rows.size:
        mid = (lo[rows] + hi[rows]) // 2
        w_hat = candidate(mid, rows)
        out = np.asarray(classify_fn(w_hat), dtype=np.float64)
        if not np.isfinite(out).all():
            raise OracleFailure("classifier returned non-finite values")
        hit = out[:, k] >= threshold
        edited[rows[hit]] = w_hat[hit]
        hi[rows[hit]] = mid[hit]
        lo[rows[~hit]] = mid[~hit] + 1
        rows = rows[lo[rows] < hi[rows]]
    return edited, hi < n_candidates
