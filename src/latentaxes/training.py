"""Training of the reorganizing autoencoder.

The objective has three parts: squared reconstruction error in the
compressed latent coordinates, a squared penalty tying the first K code
dimensions to the (gaussianized) attribute values, and an L1 penalty pulling
the batch Pearson correlation of those K dimensions toward a reference
matrix. ``backward`` computes the three components and their gradients,
derived by hand, and ``weighted_total`` weighs the components into the
objective; the optimizer is Adam.

Precision: ``train`` computes and updates in float32 (the nets, their
gradients and Adam's moments; the loss components and the correlation
kernel are float64), and it returns a float64 model, which is saved and
loaded in float64. Outside ``train``, every function here computes in the
dtype of the nets it is given.
"""

import json
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, NonFinite, TooFewSamples
from .mlp import (
    MlpParams,
    adam_init,
    adam_step,
    init_params,
    mlp_backward,
    mlp_forward,
)
from .npyio import (check_finite_rows, check_keys, read_matrix,
                    read_meta, write_matrix)

VAR_EPS = 1e-8  # variance guard in the correlation denominator

CORR_NONE = "none"          # variant A
CORR_DATABASE = "database"  # variant B
CORR_IDENTITY = "identity"  # variant C

VARIANT_MODES = {"A": CORR_NONE, "B": CORR_DATABASE, "C": CORR_IDENTITY}
CORR_MODES = tuple(VARIANT_MODES.values())


@dataclass
class EncoderDecoder:
    encoder: MlpParams
    decoder: MlpParams
    n_attributes: int


@dataclass
class TrainConfig:
    alpha: float = 1.0
    beta: float = 0.5
    epochs: int = 150
    batch_size: int = 256
    corr_mode: str = CORR_IDENTITY
    learning_rate: float = 1e-3
    seed: int = 0
    hidden_size: int = 128
    n_layers: int = 4

    @property
    def min_batch(self) -> int:  # 32 rows where the correlation loss is fed
        return 2 if self.corr_mode == CORR_NONE else 32


def _corr_parts(codes_first_k: np.ndarray):
    """Centred columns, guarded variances and the Pearson correlation over
    the batch (covariance divisor = batch size). The small additive variance
    guard keeps constant columns finite."""
    y = np.asarray(codes_first_k, dtype=np.float64)
    b = y.shape[0]
    if b < 2:
        raise TooFewSamples("correlation needs at least 2 samples")
    z = y - y.mean(axis=0)
    cov = z.T @ z / b
    var = np.diag(cov) + VAR_EPS
    s = np.sqrt(var)
    return z, var, s, cov / np.outer(s, s)


def batch_corr(codes_first_k: np.ndarray) -> np.ndarray:
    """Pearson correlation over the batch, variance-guarded."""
    return _corr_parts(codes_first_k)[3]


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


def weighted_total(comps: dict, cfg: TrainConfig) -> float:
    """The objective from its components: recons + alpha * attr + beta * corr."""
    return comps["recons"] + cfg.alpha * comps["attr"] + cfg.beta * comps["corr"]


def backward(model: EncoderDecoder, x: np.ndarray, attrs: np.ndarray,
             cfg: TrainConfig, gamma_ref=None):
    """Gradients of the objective, each laid out like its net's flat
    buffer, and the objective's components, which ``weighted_total``
    weighs (corr is 0 in variant A and when beta is 0): returns (enc_grad,
    dec_grad, {"recons", "attr", "corr"}). A non-finite component or
    gradient is a NonFinite naming it."""
    b = x.shape[0]
    k = attrs.shape[1]
    codes, acts_e = mlp_forward(model.encoder, x)
    w_hat, acts_d = mlp_forward(model.decoder, codes)
    recons_diff = w_hat - x
    attr_diff = codes[:, :k] - attrs
    comps = {"recons": float(np.sum(recons_diff * recons_diff) / b),
             "attr": float(np.sum(attr_diff * attr_diff) / b), "corr": 0.0}

    dec_grad, grad_codes = mlp_backward(model.decoder, acts_d,
                                        2.0 * recons_diff / b)
    grad_codes[:, :k] += cfg.alpha * 2.0 * attr_diff / b

    if cfg.corr_mode != CORR_NONE and cfg.beta != 0.0:
        if gamma_ref is None:
            raise ConfigInvalid("corr_mode set but no reference matrix given")
        c_loss, c_grad = corr_loss_and_grad(codes[:, :k], gamma_ref)
        comps["corr"] = c_loss
        grad_codes[:, :k] += cfg.beta * c_grad
    for name, value in comps.items():
        if not np.isfinite(value):
            raise NonFinite(f"non-finite {name} loss component")

    # input_grad False: nothing reads the gradient of the encoder's input
    enc_grad, _ = mlp_backward(model.encoder, acts_e, grad_codes, False)

    for net, params, grad in (("encoder", model.encoder, enc_grad),
                              ("decoder", model.decoder, dec_grad)):
        if not np.isfinite(grad).all():  # find the first bad layer to name
            for kind, layers in zip(("weight", "bias"), params.views(grad)):
                for i, g in enumerate(layers):
                    if not np.isfinite(g).all():
                        raise NonFinite(f"non-finite {net} {kind} gradient "
                                        f"in layer {i}")
    return enc_grad, dec_grad, comps


def check_config(cfg: TrainConfig, where: str = "") -> None:
    """Refuse a config ``train`` cannot run with: a ConfigInvalid naming
    ``where`` and the first field out of range."""
    for name, valid, rule in (  # NaN fails every comparison
            ("epochs", cfg.epochs >= 1, ">= 1"),
            ("hidden_size", cfg.hidden_size >= 1, ">= 1"),
            ("n_layers", cfg.n_layers >= 1, ">= 1"),
            ("learning_rate", 0 < cfg.learning_rate < np.inf, "finite and > 0"),
            ("alpha", 0 <= cfg.alpha < np.inf, "finite and >= 0"),
            ("beta", 0 <= cfg.beta < np.inf, "finite and >= 0"),
            ("seed", cfg.seed >= 0, ">= 0"),
            ("corr_mode", cfg.corr_mode in CORR_MODES, f"one of {CORR_MODES}"),
            ("batch_size", cfg.batch_size >= cfg.min_batch,
             f">= {cfg.min_batch} under corr_mode {cfg.corr_mode!r}")):
        if not valid:
            raise ConfigInvalid(f"{where}{name} {getattr(cfg, name)!r} is not {rule}")


def train(latents_top: np.ndarray, attrs_gauss: np.ndarray, cfg: TrainConfig):
    """Train the autoencoder on pre-projected latents and gaussianized
    attributes. The code has as many slots as the input has coordinates.
    Deterministic given (config, data). Computes in float32 (see the module
    docstring). A non-finite loss component or gradient, or an Adam second
    moment that overflows float32, is a NonFinite naming the epoch and
    batch, with no numpy warning before it.

    Returns (EncoderDecoder, history): the float64 model, and one dict of
    sample-weighted component means per epoch.
    """
    check_config(cfg)
    x = np.asarray(latents_top, dtype=np.float64)
    a = np.asarray(attrs_gauss, dtype=np.float64)
    if x.ndim != 2 or a.ndim != 2 or x.shape[0] != a.shape[0]:
        raise DimensionMismatch("latents/attributes must be aligned 2-D arrays")
    n, d = x.shape
    k = a.shape[1]
    check_finite_rows("latents_top", x)
    check_finite_rows("attrs_gauss", a)
    if d <= k:
        raise ConfigInvalid(f"code size {d} must exceed attribute count {k}")
    # A shorter last batch is topped up with the rows before it, so the
    # correlation loss never sees a short tail (on 2 rows every correlation
    # is +-1) and an epoch keeps ceil(n / batch_size) steps.
    if n < cfg.min_batch:
        raise ConfigInvalid(f"corr_mode {cfg.corr_mode!r} needs at least "
                            f"{cfg.min_batch} rows, but the dataset has {n}")

    if cfg.corr_mode == CORR_IDENTITY:
        gamma = np.eye(k)
    elif cfg.corr_mode == CORR_DATABASE:
        gamma = batch_corr(a)
    else:
        gamma = None

    sizes = layer_sizes(d, cfg)
    nets = [init_params(seed, sizes).astype(np.float32)
            for seed in (cfg.seed, cfg.seed + 1)]
    model = EncoderDecoder(*nets, n_attributes=k)
    states = [adam_init(net) for net in nets]
    rng = np.random.default_rng(cfg.seed)

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = {"recons": 0.0, "attr": 0.0, "corr": 0.0}
        count = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < cfg.min_batch:
                idx = order[-cfg.min_batch:]
            try:
                # every overflow is reported by a check that names it, not by
                # numpy: backward checks the loss components and the
                # gradients, and an overflow in Adam leaves v non-finite
                with np.errstate(over="ignore", invalid="ignore"):
                    *grads, comps = backward(model, x[idx], a[idx], cfg, gamma)
                    for name, net, grad, state in zip(("encoder", "decoder"),
                                                      nets, grads, states):
                        adam_step(net, grad, state, cfg.learning_rate)
                        if not np.isfinite(np.max(state.v)):  # m / inf: no step
                            raise NonFinite(f"{name} Adam second moment is "
                                            "not finite")
            except NonFinite as exc:
                raise NonFinite(f"epoch {epoch}, batch at position {start} "
                                f"(first row {idx[0]}): {exc}") from exc
            for key in sums:
                sums[key] += comps[key] * idx.size
            count += idx.size
        epoch_stats = {key: sums[key] / count for key in sums}
        epoch_stats["total"] = weighted_total(epoch_stats, cfg)
        history.append(epoch_stats)
    return EncoderDecoder(*(net.astype(np.float64) for net in nets),
                          n_attributes=k), history


def layer_sizes(code_size: int, cfg: TrainConfig) -> list:
    """The layer sizes of the encoder and of the decoder: ``code_size`` in
    and out, and ``n_layers - 1`` hidden layers of ``hidden_size``."""
    return [code_size] + [cfg.hidden_size] * (cfg.n_layers - 1) + [code_size]


def save_model(model: EncoderDecoder, cfg: TrainConfig, directory) -> None:
    """Write the weights and the manifest ``model_meta.json``, which holds
    ``code_size``, ``K`` and ``train_config``, and delete the weight files
    of layers the nets do not have. A net whose layer sizes are not
    ``layer_sizes(code_size, cfg)`` is a DimensionMismatch."""
    code_size = model.encoder.layer_sizes[-1]
    sizes = layer_sizes(code_size, cfg)
    for net in (model.encoder, model.decoder):
        if net.layer_sizes != sizes:
            raise DimensionMismatch(f"layer sizes {net.layer_sizes} are not "
                                    f"{sizes}, those of the train config")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for prefix, net in (("enc", model.encoder), ("dec", model.decoder)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            write_matrix(w, directory / f"{prefix}_w{i}.npy")
            write_matrix(b[None, :], directory / f"{prefix}_b{i}.npy")
    for path in directory.glob("*.npy"):  # the layers of a deeper old model
        layer = re.fullmatch(r"(enc|dec)_[wb](\d+)", path.stem)
        if layer and int(layer[2]) >= cfg.n_layers:
            path.unlink()
    manifest = {"code_size": code_size, "K": model.n_attributes,
                "train_config": asdict(cfg)}
    (directory / "model_meta.json").write_text(json.dumps(manifest, indent=2))


def load_model(directory):
    """The model and config that ``save_model`` wrote. A manifest with a
    missing, unknown or ill-typed key (an older manifest's, for one), a K
    outside [0, code_size) or a train_config that ``check_config`` refuses
    is a ConfigInvalid; a weight or bias file of another shape than
    ``layer_sizes`` gives is a DimensionMismatch. Both name the file."""
    directory = Path(directory)
    meta_path = directory / "model_meta.json"
    try:
        manifest = read_meta(meta_path, {"code_size": int, "K": int,
                                         "train_config": dict})
        where = f"{meta_path}: train_config"
        cfg = TrainConfig(**check_keys(manifest["train_config"], {
            f.name: f.type for f in fields(TrainConfig)}, where))
        check_config(cfg, f"{where} ")
        code_size, k = manifest["code_size"], manifest["K"]
        if not 0 <= k < code_size:
            raise ConfigInvalid(f"{meta_path}: K {k} is not in [0, "
                                f"{code_size}), the code_size")
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{exc}; run train again to rewrite it") from exc

    def matrix(name, shape):
        return read_matrix(directory / f"{name}.npy", shape, meta_path.name)

    sizes = layer_sizes(code_size, cfg)
    shapes = list(zip(sizes[:-1], sizes[1:]))
    nets = [MlpParams([matrix(f"{prefix}_w{i}", s) for i, s in enumerate(shapes)],
                      [matrix(f"{prefix}_b{i}", (1, s[1]))[0]
                       for i, s in enumerate(shapes)])
            for prefix in ("enc", "dec")]
    return EncoderDecoder(*nets, n_attributes=k), cfg
