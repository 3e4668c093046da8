"""Training of the reorganizing autoencoder.

The objective has three parts: squared reconstruction error in the
compressed latent coordinates, a squared penalty tying the first K code
dimensions to the (gaussianized) attribute values, and an L1 penalty pulling
the batch Pearson correlation of those K dimensions toward a reference
matrix. Gradients are derived by hand; the optimizer is Adam.
"""

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    BatchTooSmall,
    ConfigInvalid,
    DimensionMismatch,
    NonFinite,
)
from .mlp import (
    AdamState,
    MlpParams,
    adam_init,
    adam_step,
    init_params,
    mlp_backward,
    mlp_forward,
)
from .npyio import (check_finite_rows, check_keys, read_matrix, read_meta,
                    write_matrix)

VAR_EPS = 1e-8  # variance guard in the correlation denominator
MIN_CORR_BATCH = 32  # fewest rows per batch the correlation loss is fed

CORR_NONE = "none"          # variant A
CORR_DATABASE = "database"  # variant B
CORR_IDENTITY = "identity"  # variant C

VARIANT_MODES = {"A": CORR_NONE, "B": CORR_DATABASE, "C": CORR_IDENTITY}


@dataclass
class EncoderDecoder:
    encoder: MlpParams
    decoder: MlpParams
    n_attributes: int
    leaky_slope: float = 0.01

    @property
    def input_dim(self) -> int:
        return self.encoder.weights[0].shape[0]


@dataclass
class TrainConfig:
    alpha: float = 1e-5
    beta: float = 1e-5
    epochs: int = 150
    batch_size: int = 256
    corr_mode: str = CORR_IDENTITY
    learning_rate: float = 1e-4
    seed: int = 0
    hidden_size: int = 512
    n_layers: int = 8


def loss_recons(w: np.ndarray, w_hat: np.ndarray) -> float:
    if w.shape != w_hat.shape:
        raise DimensionMismatch("reconstruction shapes differ")
    diff = w - w_hat
    return float(np.sum(diff * diff) / w.shape[0])


def loss_attr(codes: np.ndarray, attrs: np.ndarray) -> float:
    k = attrs.shape[1]
    if codes.shape[0] != attrs.shape[0] or codes.shape[1] < k:
        raise DimensionMismatch("codes/attributes shapes inconsistent")
    diff = codes[:, :k] - attrs
    return float(np.sum(diff * diff) / codes.shape[0])


def _corr_parts(codes_first_k: np.ndarray):
    """Centred columns, guarded variances and the Pearson correlation over
    the batch (covariance divisor = batch size). The small additive variance
    guard keeps constant columns finite."""
    y = np.asarray(codes_first_k, dtype=np.float64)
    b = y.shape[0]
    if b < 2:
        raise BatchTooSmall("correlation needs at least 2 samples")
    z = y - y.mean(axis=0)
    cov = z.T @ z / b
    var = np.diag(cov) + VAR_EPS
    s = np.sqrt(var)
    return z, var, s, cov / np.outer(s, s)


def batch_corr(codes_first_k: np.ndarray) -> np.ndarray:
    """Pearson correlation over the batch, variance-guarded."""
    return _corr_parts(codes_first_k)[3]


def loss_corr(corr: np.ndarray, gamma_ref: np.ndarray) -> float:
    if corr.shape != gamma_ref.shape:
        raise DimensionMismatch("correlation/reference shapes differ")
    return float(np.abs(corr - gamma_ref).sum())


def corr_loss_and_grad(codes_first_k: np.ndarray, gamma_ref: np.ndarray):
    """L1 correlation loss and its gradient w.r.t. the code entries.

    Subgradient of |.| at 0 is taken as 0. Returns (loss, grad (B, K)).
    """
    z, var, s, corr = _corr_parts(codes_first_k)
    b, k = z.shape
    diff = corr - gamma_ref
    loss = float(np.abs(diff).sum())
    g = np.sign(diff)

    # dL/dCov: numerator path, plus the variance path on the diagonal.
    m = g / np.outer(s, s)
    m[np.diag_indices(k)] -= np.sum(g * corr, axis=1) / var
    grad_z = z @ (m + m.T) / b
    grad_y = grad_z - grad_z.mean(axis=0)
    return loss, grad_y


def total_loss(w, w_hat, codes, attrs, cfg: TrainConfig, gamma_ref=None):
    """Weighted sum of the three components; the correlation term is dropped
    entirely in variant A. Returns (total, components dict)."""
    comps = {
        "recons": loss_recons(w, w_hat),
        "attr": loss_attr(codes, attrs),
        "corr": 0.0,
    }
    total = comps["recons"] + cfg.alpha * comps["attr"]
    if cfg.corr_mode != CORR_NONE:
        if gamma_ref is None:
            raise ConfigInvalid("corr_mode set but no reference matrix given")
        comps["corr"] = loss_corr(batch_corr(codes[:, : attrs.shape[1]]), gamma_ref)
        total += cfg.beta * comps["corr"]
    return total, comps


def forward_batch(model: EncoderDecoder, x: np.ndarray):
    codes, cache_e = mlp_forward(model.encoder, x, model.leaky_slope)
    w_hat, cache_d = mlp_forward(model.decoder, codes, model.leaky_slope)
    return codes, w_hat, cache_e, cache_d


def backward(model: EncoderDecoder, x: np.ndarray, attrs: np.ndarray,
             cfg: TrainConfig, gamma_ref=None):
    """Gradients of the total loss for every encoder/decoder parameter.

    Returns (enc_grad_w, enc_grad_b, dec_grad_w, dec_grad_b, components).
    """
    b = x.shape[0]
    k = attrs.shape[1]
    codes, w_hat, cache_e, cache_d = forward_batch(model, x)

    comps = {"recons": loss_recons(x, w_hat), "attr": loss_attr(codes, attrs),
             "corr": 0.0}

    grad_w_hat = 2.0 * (w_hat - x) / b
    dec_gw, dec_gb, grad_codes = mlp_backward(
        model.decoder, cache_d, grad_w_hat, model.leaky_slope)

    grad_codes[:, :k] += cfg.alpha * 2.0 * (codes[:, :k] - attrs) / b

    if cfg.corr_mode != CORR_NONE and cfg.beta != 0.0:
        if gamma_ref is None:
            raise ConfigInvalid("corr_mode set but no reference matrix given")
        c_loss, c_grad = corr_loss_and_grad(codes[:, :k], gamma_ref)
        comps["corr"] = c_loss
        grad_codes[:, :k] += cfg.beta * c_grad

    # input_grad False: nothing reads the gradient of the encoder's input
    enc_gw, enc_gb, _ = mlp_backward(
        model.encoder, cache_e, grad_codes, model.leaky_slope, False)

    for net, grads in (("encoder", (enc_gw, enc_gb)),
                       ("decoder", (dec_gw, dec_gb))):
        for kind, layers in zip(("weight", "bias"), grads):
            for i, g in enumerate(layers):
                if not np.isfinite(g).all():
                    raise NonFinite(f"non-finite {net} {kind} gradient "
                                    f"in layer {i}")
    return enc_gw, enc_gb, dec_gw, dec_gb, comps


def train(latents_top: np.ndarray, attrs_gauss: np.ndarray, cfg: TrainConfig):
    """Train the autoencoder on pre-projected latents and gaussianized
    attributes. The code has as many slots as the input has coordinates.
    Deterministic given (config, data).

    Returns (EncoderDecoder, history) where history is one dict of
    sample-weighted component means per epoch.
    """
    x = np.asarray(latents_top, dtype=np.float64)
    a = np.asarray(attrs_gauss, dtype=np.float64)
    if x.ndim != 2 or a.ndim != 2 or x.shape[0] != a.shape[0]:
        raise DimensionMismatch("latents/attributes must be aligned 2-D arrays")
    n, d = x.shape
    k = a.shape[1]
    if n == 0:
        raise ConfigInvalid("empty dataset")
    check_finite_rows("latents_top", x)
    check_finite_rows("attrs_gauss", a)
    if d <= k:
        raise ConfigInvalid(f"code size {d} must exceed attribute count {k}")
    # A shorter last batch is topped up with the rows before it, so the
    # correlation loss never sees a short tail (on 2 rows every correlation
    # is +-1) and an epoch keeps ceil(n / batch_size) steps.
    min_batch = 2 if cfg.corr_mode == CORR_NONE else MIN_CORR_BATCH
    if min(cfg.batch_size, n) < min_batch:
        raise ConfigInvalid(f"corr_mode {cfg.corr_mode!r} needs batches of at "
                            f"least {min_batch} rows")

    if cfg.corr_mode == CORR_IDENTITY:
        gamma = np.eye(k)
    elif cfg.corr_mode == CORR_DATABASE:
        gamma = batch_corr(a)
    else:
        gamma = None

    sizes = [d] + [cfg.hidden_size] * (cfg.n_layers - 1) + [d]
    model = EncoderDecoder(
        encoder=init_params(cfg.seed, sizes),
        decoder=init_params(cfg.seed + 1, sizes),
        n_attributes=k,
    )
    state_e = adam_init(model.encoder)
    state_d = adam_init(model.decoder)
    rng = np.random.default_rng(cfg.seed)

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = {"recons": 0.0, "attr": 0.0, "corr": 0.0}
        count = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < min_batch:
                idx = order[-min_batch:]
            try:
                enc_gw, enc_gb, dec_gw, dec_gb, comps = backward(
                    model, x[idx], a[idx], cfg, gamma)
            except NonFinite as exc:
                raise NonFinite(f"epoch {epoch}, batch at position {start} "
                                f"(first row {idx[0]}): {exc}") from exc
            adam_step(model.encoder, enc_gw, enc_gb, state_e, cfg.learning_rate)
            adam_step(model.decoder, dec_gw, dec_gb, state_d, cfg.learning_rate)
            for key in sums:
                sums[key] += comps[key] * idx.size
            count += idx.size
        epoch_stats = {key: sums[key] / count for key in sums}
        epoch_stats["total"] = (epoch_stats["recons"]
                                + cfg.alpha * epoch_stats["attr"]
                                + cfg.beta * epoch_stats["corr"])
        history.append(epoch_stats)
    return model, history


def save_model(model: EncoderDecoder, cfg: TrainConfig, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for prefix, net in (("enc", model.encoder), ("dec", model.decoder)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            write_matrix(w, directory / f"{prefix}_w{i}.npy")
            write_matrix(b[None, :], directory / f"{prefix}_b{i}.npy")
    manifest = {
        "enc_layer_sizes": model.encoder.layer_sizes,
        "dec_layer_sizes": model.decoder.layer_sizes,
        "K": model.n_attributes,
        "leaky_slope": model.leaky_slope,
        "train_config": asdict(cfg),
    }
    (directory / "model_meta.json").write_text(json.dumps(manifest, indent=2))


def load_model(directory):
    """The model and config that ``save_model`` wrote. A manifest with a
    missing, ill-typed or unknown field is a ConfigInvalid, and a weight or
    bias file of another shape than the manifest's layer sizes a
    DimensionMismatch; both name the file."""
    directory = Path(directory)
    meta_path = directory / "model_meta.json"
    manifest = read_meta(meta_path, {"enc_layer_sizes": list,
                                     "dec_layer_sizes": list, "K": int,
                                     "leaky_slope": float, "train_config": dict})
    slope = manifest["leaky_slope"]
    # the activation is max(x, slope * x), a LeakyReLU only for 0 <= slope < 1
    if not 0 <= slope < 1:
        raise ConfigInvalid(f"{meta_path}: leaky_slope {slope!r} is not in [0, 1)")
    enc, dec = manifest["enc_layer_sizes"], manifest["dec_layer_sizes"]
    for key, sizes in (("enc_layer_sizes", enc), ("dec_layer_sizes", dec)):
        if not all(type(n) is int and n > 0 for n in sizes):
            raise ConfigInvalid(f"{meta_path}: {key} {sizes!r} are not "
                                f"all positive ints")
    if min(len(enc), len(dec)) < 2 or dec[0] != enc[-1] or dec[-1] != enc[0]:
        raise DimensionMismatch(f"{meta_path}: layer sizes {enc} and {dec} "
                                f"are not an encoder and its decoder")
    k = manifest["K"]
    if not 0 <= k < enc[-1]:
        raise ConfigInvalid(f"{meta_path}: K {k} is not in [0, {enc[-1]}), "
                            f"the code size")
    cfg_fields = {f.name: f.type for f in fields(TrainConfig)}
    cfg_values = check_keys(manifest["train_config"], cfg_fields,
                            f"{meta_path}: train_config")
    unknown = sorted(set(cfg_values) - set(cfg_fields))
    if unknown:
        raise ConfigInvalid(f"{meta_path}: unknown train_config keys "
                            f"{unknown}; run train again to rewrite it")

    def matrix(name, shape):
        path = directory / f"{name}.npy"
        arr = read_matrix(path)
        if arr.shape != shape:
            raise DimensionMismatch(f"{path}: shape {arr.shape}, but "
                                    f"{meta_path.name} gives {shape}")
        return arr

    nets = {}
    for prefix, sizes in (("enc", enc), ("dec", dec)):
        shapes = list(zip(sizes[:-1], sizes[1:]))
        weights = [matrix(f"{prefix}_w{i}", shape) for i, shape in enumerate(shapes)]
        biases = [matrix(f"{prefix}_b{i}", (1, n_out))[0]
                  for i, (_, n_out) in enumerate(shapes)]
        nets[prefix] = MlpParams(weights, biases)
    model = EncoderDecoder(
        encoder=nets["enc"],
        decoder=nets["dec"],
        n_attributes=k,
        leaky_slope=slope,
    )
    return model, TrainConfig(**cfg_values)
