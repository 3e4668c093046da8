import numpy as np
import pytest

from latentaxes import mlp
from latentaxes.errors import DimensionMismatch


def test_init_deterministic():
    p1 = mlp.init_params(3, [8, 16, 8])
    p2 = mlp.init_params(3, [8, 16, 8])
    for w1, w2 in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(w1, w2)


def test_init_he_scale():
    p = mlp.init_params(0, [512, 512])
    assert p.weights[0].std() == pytest.approx(np.sqrt(2 / 512), rel=0.1)


def test_init_biases_zero():
    p = mlp.init_params(0, [4, 8, 2])
    for b in p.biases:
        np.testing.assert_array_equal(b, 0.0)


def test_forward_zero_params():
    p = mlp.init_params(0, [3, 5, 2])
    for w in p.weights:
        w[:] = 0.0
    y, _ = mlp.mlp_forward(p, np.ones((4, 3)))
    np.testing.assert_array_equal(y, 0.0)


def test_forward_single_identity_layer():
    p = mlp.MlpParams([np.eye(3)], [np.zeros(3)])
    x = np.random.default_rng(0).normal(size=(5, 3))
    y, _ = mlp.mlp_forward(p, x)
    np.testing.assert_array_equal(y, x)


def test_leaky_relu_propagates():
    # 1 -> 1 -> 1 net, both weights 1: hidden applies the leaky slope
    p = mlp.MlpParams([np.array([[1.0]]), np.array([[1.0]])],
                      [np.zeros(1), np.zeros(1)])
    y, _ = mlp.mlp_forward(p, np.array([[-1.0]]))
    assert y[0, 0] == pytest.approx(-mlp.LEAKY_SLOPE)


def test_forward_dim_check():
    p = mlp.init_params(0, [3, 2])
    with pytest.raises(DimensionMismatch):
        mlp.mlp_forward(p, np.ones((4, 5)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = mlp.init_params(7, [4, 6, 3])
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss(params):
        y, _ = mlp.mlp_forward(params, x)
        return np.sum((y - target) ** 2)

    y, acts = mlp.mlp_forward(p, x)
    grad, gx = mlp.mlp_backward(p, acts, 2 * (y - target))
    gw, _ = p.views(grad)

    h = 1e-6
    for li in range(len(p.weights)):
        for idx in [(0, 0), (1, 2)]:
            orig = p.weights[li][idx]
            p.weights[li][idx] = orig + h
            up = loss(p)
            p.weights[li][idx] = orig - h
            down = loss(p)
            p.weights[li][idx] = orig
            assert gw[li][idx] == pytest.approx((up - down) / (2 * h), rel=1e-5)


def test_adam_zero_grad_no_change():
    p = mlp.init_params(0, [3, 3])
    before = p.astype(np.float64)
    state = mlp.adam_init(p)
    mlp.adam_step(p, np.zeros_like(p.flat), state, lr=0.1)
    np.testing.assert_array_equal(p.weights[0], before.weights[0])


def test_adam_first_step_is_signed_lr():
    p = mlp.init_params(0, [2, 2])
    before = p.astype(np.float64)
    state = mlp.adam_init(p)
    g = np.array([[5.0, -0.003], [100.0, 0.5]])
    mlp.adam_step(p, np.concatenate([g.ravel(), np.zeros(2)]), state, lr=0.01)
    step = before.weights[0] - p.weights[0]
    # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
    np.testing.assert_allclose(step, 0.01 * np.sign(g), rtol=1e-4)


def test_adam_deterministic():
    results = []
    for _ in range(2):
        p = mlp.init_params(5, [3, 4, 2])
        state = mlp.adam_init(p)
        grad = np.empty_like(p.flat)
        g_w, g_b = p.views(grad)
        for w, b in zip(g_w, g_b):
            w[:] = 0.3
            b[:] = -0.2
        for _ in range(10):
            mlp.adam_step(p, grad, state, lr=1e-3)
        results.append(p)
    np.testing.assert_array_equal(results[0].weights[1], results[1].weights[1])


# The np.where forward and backward and the per-layer Adam that the flat,
# branch-free versions replaced, kept as references: the trainer's output
# must not move by a bit.

def where_forward(weights, biases, x, slope):
    acts, pre, h = [x], [], x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        h = z if i == last else np.where(z > 0, z, slope * z)
        if i < last:
            acts.append(h)
    return h, (acts, pre)


def where_backward(weights, cache, grad_out, slope):
    acts, pre = cache
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    g = grad_out
    last = len(weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            g = g * np.where(pre[i] > 0, 1.0, slope)
        grad_w[i] = acts[i].T @ g
        grad_b[i] = g.sum(axis=0)
        g = g @ weights[i].T
    return grad_w, grad_b, g


def per_layer_adam(weights, biases, grad_w, grad_b, moments, t, lr,
                   beta1=0.9, beta2=0.999, eps=1e-8):
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for params, grads, (m, v) in ((weights, grad_w, moments[0]),
                                  (biases, grad_b, moments[1])):
        for i in range(len(params)):
            m[i] = beta1 * m[i] + (1 - beta1) * grads[i]
            v[i] = beta2 * v[i] + (1 - beta2) * grads[i] ** 2
            params[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SIGNED_ZERO_SIZES = [3, 7, 7, 2]


def zero_pre_activation_net(seed):
    """A random net and batch whose first hidden pre-activations hold exact
    zeros (a zero weight column with a zero bias), the rest mixed signs."""
    rng = np.random.default_rng(seed)
    p = mlp.init_params(seed, SIGNED_ZERO_SIZES)
    for b in p.biases:
        b[:] = rng.normal(size=b.shape)
    p.weights[0][:, 0] = 0.0
    p.biases[0][0] = -0.0
    return p, rng.normal(size=(9, 3))


@pytest.mark.parametrize("slope", [mlp.LEAKY_SLOPE])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_backward_bit_identical_to_where_reference(seed, slope):
    p, x = zero_pre_activation_net(seed)
    y, acts = mlp.mlp_forward(p, x)
    ref_y, (ref_acts, ref_pre) = where_forward(p.weights, p.biases, x, slope)
    assert (ref_pre[0] == 0).any() and (acts[1] == 0).any()
    assert same_bits(y, ref_y)
    assert len(acts) == len(ref_acts)
    for got, want in zip(acts, ref_acts):
        assert same_bits(got, want)
    # a matmul plus a bias never yields -0.0, so the backward mask gets its
    # signed zeros written into the activations, and the reference's
    # pre-activations with them
    for layer_out in (acts[2], ref_acts[2], ref_pre[1]):
        layer_out[0, :3] = -0.0
        layer_out[1, :3] = 0.0
    grad_out = np.random.default_rng(seed + 10).normal(size=y.shape)
    grad_out_before = grad_out.copy()
    grad, grad_in = mlp.mlp_backward(p, acts, grad_out)
    want_w, want_b, want_in = where_backward(p.weights, (ref_acts, ref_pre),
                                             grad_out, slope)
    got_w, got_b = p.views(grad)
    for g, w in zip(got_w + got_b, want_w + want_b):
        assert same_bits(g, w)
    assert same_bits(grad_in, want_in)
    assert same_bits(grad_out, grad_out_before)


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.5])
def test_leaky_relu_bit_identical_to_where(slope):
    x = np.concatenate([np.random.default_rng(3).normal(size=200),
                        [0.0, -0.0, 1e-310, -1e-310, 1e308, -1e308,
                         -np.inf, np.nan]])
    if slope > 0:
        x = np.append(x, np.inf)
    with np.errstate(invalid="ignore"):  # 0 * -inf
        assert same_bits(mlp.leaky_relu(x, slope), np.where(x > 0, x, slope * x))


def test_leaky_relu_slope_zero_maps_inf_to_nan():
    # the one input where max(x, slope * x) departs from the where form
    with np.errstate(invalid="ignore"):
        assert np.isnan(mlp.leaky_relu(np.array([np.inf]), 0.0)[0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_bit_identical_to_per_layer_reference(dtype):
    rng = np.random.default_rng(4)
    p = mlp.init_params(4, [5, 6, 6, 3]).astype(dtype)
    ref_w = [w.copy() for w in p.weights]
    ref_b = [b.copy() for b in p.biases]
    moments = [([np.zeros_like(a) for a in arrs], [np.zeros_like(a) for a in arrs])
               for arrs in (ref_w, ref_b)]
    state = mlp.adam_init(p)
    grad = np.empty_like(p.flat)
    g_w, g_b = p.views(grad)
    for t in range(1, 21):
        for g in g_w:
            g[:] = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=g.shape)
        for g in g_b:
            g[:] = rng.normal(size=g.shape)
        g_b[0][0] = 0.0
        mlp.adam_step(p, grad, state, lr=1e-3)
        per_layer_adam(ref_w, ref_b, g_w, g_b, moments, t, lr=1e-3)
    assert state.m.dtype == state.v.dtype == dtype
    for got, want in zip(p.weights + p.biases, ref_w + ref_b):
        assert same_bits(got, want)


def test_adam_leaves_gradients_unchanged():
    p = mlp.init_params(0, [3, 4, 2])
    state = mlp.adam_init(p)
    grad = np.random.default_rng(0).normal(size=p.flat.shape)
    before = grad.copy()
    for _ in range(3):
        mlp.adam_step(p, grad, state, lr=0.1)
    assert same_bits(grad, before)


def test_views_lay_out_any_buffer_like_flat():
    p = mlp.init_params(0, [3, 4, 2])
    buf = np.arange(p.flat.size, dtype=np.float64)
    weights, biases = p.views(buf)
    assert [w.shape for w in weights] == [w.shape for w in p.weights]
    assert [b.shape for b in biases] == [b.shape for b in p.biases]
    for a in weights + biases:
        assert np.shares_memory(a, buf)
    np.testing.assert_array_equal(biases[0], [12, 13, 14, 15])  # w0 is 3 x 4
    np.testing.assert_array_equal(weights[1][0], [16, 17])


def test_backward_writes_gradient_like_flat():
    p = mlp.init_params(0, [3, 4, 2])
    x = np.random.default_rng(0).normal(size=(6, 3))
    y, acts = mlp.mlp_forward(p, x)
    grad, grad_in = mlp.mlp_backward(p, acts, np.ones_like(y), False)
    assert grad.shape == p.flat.shape and grad.dtype == p.flat.dtype
    assert grad_in is None
    assert not np.shares_memory(grad, p.flat)
    np.testing.assert_array_equal(p.views(grad)[1][1], [6.0, 6.0])  # sum of ones


def test_weights_and_biases_are_views_of_flat():
    p = mlp.init_params(0, [3, 4, 2])
    assert p.flat.ndim == 1
    assert p.flat.size == sum(w.size + b.size for w, b in zip(p.weights, p.biases))
    for a in p.weights + p.biases:
        assert np.shares_memory(a, p.flat)
    p.weights[1][2, 1] = 7.5
    assert (p.flat == 7.5).sum() == 1
    p.flat[:] = -1.0
    for a in p.weights + p.biases:
        np.testing.assert_array_equal(a, -1.0)
    p.biases[0] += 3.0
    np.testing.assert_array_equal(p.flat[12:16], 2.0)  # w0 is 3 x 4


def test_copy_shares_no_memory():
    p = mlp.init_params(0, [3, 4, 2])
    q = p.astype(np.float64)
    assert not np.shares_memory(p.flat, q.flat)
    assert same_bits(p.flat, q.flat)
    q.weights[0][0, 0] += 1.0
    q.biases[1][0] += 1.0
    assert p.weights[0][0, 0] != q.weights[0][0, 0]
    assert p.biases[1][0] != q.biases[1][0]


def test_params_from_int_and_non_contiguous_arrays():
    w0 = np.arange(12).reshape(4, 3).T          # int, Fortran-ordered view
    w1 = np.ones((8, 2))[::2]                   # strided rows
    b0, b1 = np.array([1, -2, 0, 3]), np.zeros(2)
    p = mlp.MlpParams([w0, w1], [b0, b1])
    assert p.flat.dtype == np.float64
    assert [w.shape for w in p.weights] == [(3, 4), (4, 2)]
    x = np.random.default_rng(0).normal(size=(5, 3))
    y, _ = mlp.mlp_forward(p, x)
    ref, _ = where_forward([w0.astype(float), w1.copy()],
                           [b0.astype(float), b1], x, mlp.LEAKY_SLOPE)
    assert same_bits(y, ref)
    assert not np.shares_memory(p.flat, w1)


def test_params_keep_float32_and_compute_in_it():
    p64 = mlp.init_params(0, [3, 4, 2])
    p = mlp.MlpParams([w.astype(np.float32) for w in p64.weights],
                      [b.astype(np.float32) for b in p64.biases])
    assert p.flat.dtype == np.float32
    assert all(a.dtype == np.float32 for a in p.weights + p.biases)
    assert same_bits(p.flat, p64.astype(np.float32).flat)
    x = np.random.default_rng(0).normal(size=(6, 3))  # cast on entry
    y, acts = mlp.mlp_forward(p, x)
    assert y.dtype == np.float32 and all(a.dtype == np.float32 for a in acts)
    grad, grad_in = mlp.mlp_backward(p, acts, np.ones(y.shape))
    assert grad.dtype == np.float32 and grad_in.dtype == np.float32
    # one float64 array makes the whole buffer float64
    mixed = mlp.MlpParams([p.weights[0], p64.weights[1]], p.biases)
    assert mixed.flat.dtype == np.float64
