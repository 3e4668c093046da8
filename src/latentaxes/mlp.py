"""Plain-numpy MLP with LeakyReLU hidden layers and a hand-written backward
pass, plus an Adam optimizer. Everything is deterministic given the seed.

All weights and biases of a net live in one 1-D buffer, ``MlpParams.flat``;
``weights`` and ``biases`` are lists of views into it. The gradient and
Adam's two moments are buffers of that layout, so one update is a few
vector operations over the whole net. The forward pass caches each layer's
input for the backward pass.

``flat`` starts on a 64-byte boundary, so with a hidden size that is a
multiple of 16 every weight and bias view starts on a cache line, which a
single-row forward (one edit, a gemv) reads directly.

``mlp_forward`` takes one row (1-D) or a batch (2-D) and multiplies with
``ndarray.dot``: the same BLAS call and bits as ``@``, without the
``matmul`` gufunc's 0.34-0.45 us of dispatch per small product, of which an
edit makes ten (four layers per net, and ``pca``'s two). A 3-D input, which
``dot`` would send down numpy's non-BLAS path, is refused.

A net computes in the dtype of its buffer: float32 when every array it was
built from is float32, float64 otherwise; Adam's moments and the gradient
it takes are in that dtype too.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite

LEAKY_SLOPE = 0.01  # of every hidden layer's LeakyReLU
ALIGN = 64  # bytes: where each net's flat buffer starts
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class MlpParams:
    weights: list  # weights[i]: (sizes[i], sizes[i+1]), a view into flat
    biases: list   # biases[i]: (sizes[i+1],), a view into flat
    flat: np.ndarray = field(init=False, repr=False)  # w0, b0, w1, b1, ...

    def __post_init__(self):  # copies the arrays into flat, ALIGN-aligned
        arrays = [np.asarray(a) for pair in zip(self.weights, self.biases)
                  for a in pair]
        dtype = np.dtype(np.float32 if all(a.dtype == np.float32 for a in arrays)
                         else np.float64)
        nbytes = sum(a.size for a in arrays) * dtype.itemsize
        raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
        start = -raw.ctypes.data % ALIGN
        self.flat = raw[start : start + nbytes].view(dtype)
        np.concatenate([np.ravel(a) for a in arrays], out=self.flat)
        self.weights, self.biases = self.views(self.flat)

    def views(self, buffer: np.ndarray):
        """Per-layer (weights, biases) views into buffer, laid out like flat."""
        weights, biases, start = [], [], 0
        for n_in, n_out in map(np.shape, self.weights):
            weights.append(buffer[start : start + n_in * n_out].reshape(n_in, n_out))
            start += n_in * n_out
            biases.append(buffer[start : start + n_out])
            start += n_out
        return weights, biases

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def astype(self, dtype) -> "MlpParams":
        """A copy whose buffer has the float dtype given."""
        return MlpParams(*self.views(self.flat.astype(dtype)))


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


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Forward pass of one row (1-D x) or a batch (2-D x). Hidden layers use
    LeakyReLU; the output layer is linear.

    Computes in the dtype of ``params.flat``. Returns (output, acts),
    acts[i] the input of layer i (acts[0] is x in that dtype).
    """
    x = np.asarray(x, dtype=params.flat.dtype)
    if x.ndim not in (1, 2):
        raise DimensionMismatch(f"input of shape {x.shape} is not 1-D or 2-D")
    if x.shape[-1] != params.weights[0].shape[0]:
        raise DimensionMismatch(
            f"input dim {x.shape[-1]} != {params.weights[0].shape[0]}")
    acts = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = acts[-1].dot(w)
        h += b
        acts.append(leaky_relu(h, LEAKY_SLOPE))
    h = acts[-1].dot(params.weights[-1])
    h += params.biases[-1]
    if not np.isfinite(h).all():
        raise NonFinite("non-finite activation in forward pass")
    return h, acts


def mlp_backward(params: MlpParams, acts, grad_out: np.ndarray,
                 input_grad: bool = True):
    """Backpropagate grad_out (dL/d output) through the network.

    Computes in the dtype of ``params.flat``. Returns (grad, grad_input),
    grad laid out like ``params.flat``. With input_grad false, grad_input is
    None and its matmul is skipped.
    """
    grad = np.empty_like(params.flat)
    grad_w, grad_b = params.views(grad)
    g = np.asarray(grad_out, dtype=params.flat.dtype)
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        if i != last:  # g is the fresh product below, never grad_out
            # LeakyReLU derivative without a branch: acts[i + 1] > 0 where
            # its input is, and each factor is exactly 1.0 or the slope
            mask = np.multiply(acts[i + 1] > 0, 1 - LEAKY_SLOPE, dtype=g.dtype)
            mask += LEAKY_SLOPE
            g *= mask
        np.matmul(acts[i].T, g, out=grad_w[i])
        g.sum(axis=0, out=grad_b[i])
        g = g @ params.weights[i].T if i > 0 or input_grad else None
    return grad, g


@dataclass
class AdamState:
    m: np.ndarray  # first moment, laid out like MlpParams.flat
    v: np.ndarray  # second moment, same layout
    t: int = 0


def adam_init(params: MlpParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: MlpParams, grad: np.ndarray, state: AdamState,
              lr: float) -> None:
    """Standard Adam update with bias correction, in place, over the whole
    flat buffer at once. The flat gradient is read, not modified."""
    state.t += 1
    t = state.t
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    step = grad * (1 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += step                       # m = beta1*m + (1-beta1)*g
    sq = np.square(grad)
    sq *= 1 - ADAM_BETA2
    v *= ADAM_BETA2
    v += sq                         # v = beta2*v + (1-beta2)*g**2
    np.divide(m, c1, out=step)
    step *= lr
    np.divide(v, c2, out=sq)
    np.sqrt(sq, out=sq)
    sq += ADAM_EPS
    step /= sq                      # lr*(m/c1) / (sqrt(v/c2)+eps)
    params.flat -= step
