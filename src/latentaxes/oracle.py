"""Synthetic latent world with planted attribute directions.

Stands in for the generator + attribute classifier pair: attributes are
sigmoids of projections onto planted orthonormal directions (optionally
mixed to induce correlations), and a designated orthogonal subspace plays
the role of identity features. Because the planted structure is known
exactly, the whole editing pipeline can be verified closed-loop.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch
from .npyio import read_matrix, read_meta, write_matrix, write_meta

GAIN = 2.0  # classifier logit scale: sigmoid(GAIN * mix * A * w)
MAPPING_KINDS = ("linear", "tanh-mixed")


@dataclass(frozen=True)
class SyntheticWorld:
    attr_directions: np.ndarray   # (K, m), orthonormal rows
    mix: np.ndarray               # (K, K), unit-diagonal lower-triangular
    identity_basis: np.ndarray    # (m, q), orthonormal, orthogonal to attr rows
    mapping_kind: str             # one of MAPPING_KINDS
    mixing_matrix: np.ndarray     # (m, m), used by tanh-mixed sampling
    seed: int

    @property
    def dim(self) -> int:
        return self.attr_directions.shape[1]

    @property
    def n_attributes(self) -> int:
        return self.attr_directions.shape[0]


def _check_mapping_kind(kind, where: str) -> None:
    if kind not in MAPPING_KINDS:
        raise ConfigInvalid(f"{where}mapping_kind {kind!r} is not one of "
                            f"{', '.join(MAPPING_KINDS)}")


def make_world(m: int, n_attributes: int, q: int, correlated: bool = False,
               seed: int = 0, mapping_kind: str = "linear") -> SyntheticWorld:
    """Build a seeded world. Attribute directions and the identity basis come
    from one QR factorization, so they are exactly mutually orthogonal."""
    _check_mapping_kind(mapping_kind, "")
    k = n_attributes
    if k < 1 or q < 1:
        raise ConfigInvalid(f"need K >= 1 and q >= 1, got K={k}, q={q}: identity "
                            "similarity scores edits in the identity subspace")
    if m <= k + q:
        raise ConfigInvalid(f"need m > K + q, got m={m}, K={k}, q={q}")
    if seed < 0:
        raise ConfigInvalid(f"seed {seed} is negative")
    rng = np.random.default_rng(seed)
    full, _ = np.linalg.qr(rng.normal(size=(m, k + q)))
    a = full[:, :k].T
    identity_basis = full[:, k : k + q]
    mix = np.eye(k)
    if correlated:
        # adjacent attributes share signal through the first sub-diagonal
        mix[np.arange(1, k), np.arange(k - 1)] = 0.5
    mixing = rng.normal(size=(m, m)) / np.sqrt(m)
    return SyntheticWorld(attr_directions=a, mix=mix,
                          identity_basis=identity_basis,
                          mapping_kind=mapping_kind, mixing_matrix=mixing,
                          seed=seed)


def sample_w(world: SyntheticWorld, n: int, seed: int) -> np.ndarray:
    if n < 0:
        raise ConfigInvalid(f"sample count {n} is negative")
    if seed < 0:
        raise ConfigInvalid(f"seed {seed} is negative")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, world.dim))
    if world.mapping_kind == "tanh-mixed":
        return z + 0.1 * np.tanh(z @ world.mixing_matrix.T)
    return z


def classify(world: SyntheticWorld, w: np.ndarray) -> np.ndarray:
    """Raw attribute outputs in (0, 1): sigmoid(GAIN * mix * A * w)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != world.dim:
        raise DimensionMismatch(f"latent dim {w.shape[-1]} != {world.dim}")
    logits = GAIN * (w @ world.attr_directions.T) @ world.mix.T
    return 1.0 / (1.0 + np.exp(-logits))


def embed_identity(world: SyntheticWorld, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != world.dim:
        raise DimensionMismatch(f"latent dim {w.shape[-1]} != {world.dim}")
    return w @ world.identity_basis


def build_dataset(world: SyntheticWorld, n: int, seed: int):
    """Paired (latents, raw attributes) sampled from the world."""
    latents = sample_w(world, n, seed)
    return latents, classify(world, latents)


def save_world(world: SyntheticWorld, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(world.attr_directions, directory / "world_attr_directions.npy")
    write_matrix(world.mix, directory / "world_mix.npy")
    write_matrix(world.identity_basis, directory / "world_identity_basis.npy")
    write_matrix(world.mixing_matrix, directory / "world_mixing.npy")
    write_meta(directory / "world_meta.json",
               {"mapping_kind": world.mapping_kind, "seed": world.seed})


def load_world(directory) -> SyntheticWorld:
    """The world ``save_world`` wrote. The attribute directions (K x m) fix
    the shapes of the mix (K x K), the identity basis (m x q, q >= 1) and the
    mixing matrix (m x m); a file of another shape is a DimensionMismatch
    naming it."""
    directory = Path(directory)
    meta_path = directory / "world_meta.json"
    meta = read_meta(meta_path, {"mapping_kind": str, "seed": int})
    _check_mapping_kind(meta["mapping_kind"], f"{meta_path}: ")
    source = "world_attr_directions.npy"
    directions = read_matrix(directory / source)
    k, m = directions.shape
    identity_path = directory / "world_identity_basis.npy"
    identity_basis = read_matrix(identity_path, (m, None), source)
    if identity_basis.shape[1] == 0:
        raise DimensionMismatch(f"{identity_path}: no columns, but identity "
                                "similarity scores edits in the identity subspace")
    return SyntheticWorld(
        attr_directions=directions,
        mix=read_matrix(directory / "world_mix.npy", (k, k), source),
        identity_basis=identity_basis,
        mixing_matrix=read_matrix(directory / "world_mixing.npy", (m, m), source),
        mapping_kind=meta["mapping_kind"],
        seed=meta["seed"],
    )
