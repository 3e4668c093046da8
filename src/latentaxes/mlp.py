"""Plain-numpy MLP with LeakyReLU hidden layers and a hand-written backward
pass, plus an Adam optimizer. Everything is deterministic given the seed.

All weights and biases of a net live in one 1-D float64 buffer,
``MlpParams.flat``; ``weights`` and ``biases`` are lists of views into it.
Adam keeps its moments in two more buffers of that layout, so one update is
a few vector operations over the whole net. The forward pass caches each
layer's input and pre-activation for the backward pass.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class MlpParams:
    weights: list  # weights[i]: (sizes[i], sizes[i+1]), a view into flat
    biases: list   # biases[i]: (sizes[i+1],), a view into flat
    flat: np.ndarray = field(init=False, repr=False)  # w0, b0, w1, b1, ...

    def __post_init__(self):  # copies the arrays into flat
        arrays = [a for pair in zip(self.weights, self.biases) for a in pair]
        self.flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        parts = np.split(self.flat, np.cumsum([np.size(a) for a in arrays])[:-1])
        views = [part.reshape(np.shape(a)) for part, a in zip(parts, arrays)]
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "MlpParams":
        return MlpParams(self.weights, self.biases)


def init_params(seed: int, layer_sizes) -> MlpParams:
    """He-style init: weights ~ N(0, 2/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def leaky_relu(x, slope):
    """max(x, slope * x): for 0 <= slope < 1 the same bits as
    ``np.where(x > 0, x, slope * x)``, without its mispredicted branch, on
    every input but one: at slope 0, +inf gives NaN (0 * inf) instead of
    inf."""
    return np.maximum(x, slope * x)


def mlp_forward(params: MlpParams, x: np.ndarray, leaky_slope: float = 0.01):
    """Forward pass. Hidden layers use LeakyReLU; the output layer is linear.

    Returns (output, cache). The cache is (acts, pre): acts[i] is the input
    of layer i (acts[0] is x) and pre[i] = acts[i] @ weights[i] + biases[i],
    all that the backward pass reads.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.weights[0].shape[0]:
        raise DimensionMismatch(
            f"input dim {x.shape[-1]} != {params.weights[0].shape[0]}")
    pre = []
    acts = [x]
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w
        z += b
        pre.append(z)
        h = z if i == last else leaky_relu(z, leaky_slope)
        if i < last:
            acts.append(h)
    if not np.isfinite(h).all():
        raise NonFinite("non-finite activation in forward pass")
    return h, (acts, pre)


def mlp_backward(params: MlpParams, cache, grad_out: np.ndarray,
                 leaky_slope: float = 0.01, input_grad: bool = True):
    """Backpropagate grad_out (dL/d output) through the network.

    Returns (grad_weights, grad_biases, grad_input). With input_grad false,
    grad_input is None and its matmul is skipped.
    """
    acts, pre = cache
    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.biases)
    g = np.asarray(grad_out, dtype=np.float64)
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        if i != last:  # g is the fresh product below, never grad_out
            # LeakyReLU derivative without a branch: 1 - slope + slope is
            # exactly 1.0 for 0 <= slope < 1, so each factor is 1.0 or slope
            mask = np.multiply(pre[i] > 0, 1 - leaky_slope)
            mask += leaky_slope
            g *= mask
        grad_w[i] = acts[i].T @ g
        grad_b[i] = g.sum(axis=0)
        g = g @ params.weights[i].T if i > 0 or input_grad else None
    return grad_w, grad_b, g


@dataclass
class AdamState:
    m: np.ndarray  # first moment, laid out like MlpParams.flat
    v: np.ndarray  # second moment, same layout
    t: int = 0


def adam_init(params: MlpParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: MlpParams, grad_w, grad_b, state: AdamState,
              lr: float) -> None:
    """Standard Adam update with bias correction, in place, over the whole
    flat buffer at once. The gradient lists are read, not modified."""
    state.t += 1
    t = state.t
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    g = np.concatenate([np.ravel(a) for pair in zip(grad_w, grad_b)
                        for a in pair], dtype=np.float64)  # a fresh copy
    m, v = state.m, state.v
    step = np.multiply(g, 1 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += step                       # m = beta1*m + (1-beta1)*g
    np.square(g, out=g)
    g *= 1 - ADAM_BETA2
    v *= ADAM_BETA2
    v += g                          # v = beta2*v + (1-beta2)*g**2
    np.divide(m, c1, out=step)
    step *= lr
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    step /= g                       # lr*(m/c1) / (sqrt(v/c2)+eps)
    params.flat -= step
