import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latentaxes import gaussianize, oracle, pca, training
from latentaxes.errors import (
    ConfigInvalid,
    DimensionMismatch,
    NonFinite,
    TooFewSamples,
)
from latentaxes.mlp import MlpParams, init_params
from latentaxes.training import (
    EncoderDecoder,
    TrainConfig,
    backward,
    batch_corr,
    corr_loss_and_grad,
    train,
    weighted_total,
)


# a desk-shaped training in a fresh process: the weights' hash, then the
# loss history
TRAIN_AND_HASH = """
import hashlib
import numpy as np
from latentaxes import training
rng = np.random.default_rng(0)
x = rng.normal(size=(1024, 16))
a = np.tanh(x[:, :5]) + 0.1 * rng.normal(size=(1024, 5))
cfg = training.TrainConfig(alpha=1.0, beta=0.5, epochs=2, learning_rate=1e-3,
                           hidden_size=128, n_layers=4, seed=1)
model, history = training.train(x, a, cfg)
print(hashlib.sha256(model.encoder.flat.tobytes()
                     + model.decoder.flat.tobytes()).hexdigest())
print(repr(history))
"""


def small_model(seed=0, sizes=(10, 16, 16, 10)):
    return EncoderDecoder(encoder=init_params(seed, list(sizes)),
                          decoder=init_params(seed + 1, list(sizes)),
                          n_attributes=3)


SMALL_CFG = TrainConfig(hidden_size=16, n_layers=3)  # small_model's sizes


def components(x, attrs, decoder=1.0,
               cfg=TrainConfig(corr_mode=training.CORR_NONE), gamma=None):
    """``backward``'s loss components on one-layer nets: the identity
    encoder, so codes == x, and the decoder ``decoder`` times the identity,
    so w_hat == decoder * x."""
    d = x.shape[1]
    model = EncoderDecoder(MlpParams([np.eye(d)], [np.zeros(d)]),
                           MlpParams([decoder * np.eye(d)], [np.zeros(d)]),
                           attrs.shape[1])
    return backward(model, x, attrs, cfg, gamma)[2]


class TestLosses:
    def test_recons_zero_on_identical(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        assert components(x, x[:, :2])["recons"] == 0.0

    def test_recons_pythagoras(self):
        w = np.array([[3.0, 4.0]])
        assert components(w, w[:, :1], decoder=0.0)["recons"] == pytest.approx(25.0)

    def test_recons_quadratic(self):
        w = np.random.default_rng(1).normal(size=(8, 5))
        # w_hat - w is w at decoder 2 and 2w at decoder 3
        assert (components(w, w[:, :2], decoder=3.0)["recons"]
                == pytest.approx(4 * components(w, w[:, :2], decoder=2.0)["recons"]))

    def test_attr_zero_when_matching(self):
        codes = np.random.default_rng(2).normal(size=(6, 8))
        assert components(codes, codes[:, :3].copy())["attr"] == 0.0

    def test_attr_hand_value(self):
        codes = np.array([[1.0, -1.0, 9.9]])
        attrs = np.array([[0.0, 0.0]])
        assert components(codes, attrs)["attr"] == pytest.approx(2.0)

    def test_attr_ignores_free_slots(self):
        rng = np.random.default_rng(3)
        codes = rng.normal(size=(5, 7))
        attrs = rng.normal(size=(5, 3))
        before = components(codes, attrs)["attr"]
        codes[:, 3:] += 100.0
        assert components(codes, attrs)["attr"] == before

    def test_corr_zero_at_reference(self):
        codes = np.random.default_rng(14).normal(size=(16, 3))
        assert corr_loss_and_grad(codes, batch_corr(codes))[0] == 0.0

    def test_corr_hand_value(self):
        # unit-variance columns u and u/2 + (sqrt(3)/2) v, u and v orthogonal:
        # correlation 0.5
        u = np.array([1.0, 1.0, -1.0, -1.0])
        v = np.array([1.0, -1.0, 1.0, -1.0])
        codes = np.column_stack([u, 0.5 * u + np.sqrt(0.75) * v])
        assert corr_loss_and_grad(codes, np.eye(2))[0] == pytest.approx(1.0)

    def test_corr_transpose_invariant(self):
        rng = np.random.default_rng(4)
        codes = rng.normal(size=(16, 3))
        gamma = rng.normal(size=(3, 3))  # not symmetric
        assert (corr_loss_and_grad(codes, gamma)[0]
                == pytest.approx(corr_loss_and_grad(codes, gamma.T)[0]))


class TestBatchCorr:
    def test_balanced_design(self):
        # independent +-1 columns, balanced: identity correlation
        codes = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        corr = batch_corr(codes)
        np.testing.assert_allclose(corr, np.eye(2), atol=1e-7)

    def test_duplicated_column(self):
        rng = np.random.default_rng(5)
        col = 10 * rng.normal(size=64)
        corr = batch_corr(np.column_stack([col, col]))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_constant_column_guarded(self):
        rng = np.random.default_rng(6)
        codes = np.column_stack([np.full(32, 2.0), rng.normal(size=32)])
        corr = batch_corr(codes)
        assert np.isfinite(corr).all()
        assert abs(corr[0, 0]) < 1e-6  # var/(var+delta) with var = 0
        assert abs(corr[0, 1]) < 1e-3

    def test_batch_too_small(self):
        with pytest.raises(TooFewSamples, match="^correlation needs at least 2 "):
            batch_corr(np.ones((1, 3)))


class TestTotalLoss:
    def test_alpha_beta_zero(self):
        rng = np.random.default_rng(7)
        x, attrs = rng.normal(size=(8, 5)), rng.normal(size=(8, 3))
        cfg = TrainConfig(alpha=0.0, beta=0.0, corr_mode=training.CORR_IDENTITY)
        comps = components(x, attrs, decoder=2.0, cfg=cfg, gamma=np.eye(3))
        assert weighted_total(comps, cfg) == pytest.approx(comps["recons"])

    def test_perfect_everything_is_zero(self):
        codes = np.array([[1, 0, 0, 0.3], [0, 1, 0, -0.2],
                          [0, 0, 1, 0.1], [-1, 0, 0, 0.0],
                          [0, -1, 0, 0.5], [0, 0, -1, 0.6],
                          [1, 0, 0, 0.2], [-1, 0, 0, -0.4]], dtype=float)
        # balanced columns: batch_corr ~ identity (up to the variance guard)
        cfg = TrainConfig(alpha=1.0, beta=1.0, corr_mode=training.CORR_IDENTITY)
        comps = components(codes, codes[:, :3].copy(), cfg=cfg, gamma=np.eye(3))
        assert weighted_total(comps, cfg) == pytest.approx(0.0, abs=1e-6)

    def test_variant_a_ignores_correlation(self):
        rng = np.random.default_rng(9)
        col = rng.normal(size=16)
        codes = np.column_stack([col, col, col, rng.normal(size=(16, 2))])
        attrs = rng.normal(size=(16, 3))
        cfg = TrainConfig(alpha=1.0, beta=1.0, corr_mode=training.CORR_NONE)
        comps = components(codes, attrs, cfg=cfg)
        assert comps["corr"] == 0.0
        assert weighted_total(comps, cfg) == pytest.approx(cfg.alpha * comps["attr"])


class TestGradients:
    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(10)
        model = small_model()
        x = rng.normal(size=(8, 10))
        attrs = rng.normal(size=(8, 3))
        return model, x, attrs

    def objective(self, model, x, attrs, cfg, gamma):
        return weighted_total(backward(model, x, attrs, cfg, gamma)[2], cfg)

    @pytest.mark.parametrize("cfg,gamma", [
        (TrainConfig(alpha=0.0, beta=0.0, corr_mode=training.CORR_NONE), None),
        (TrainConfig(alpha=1.0, beta=0.0, corr_mode=training.CORR_NONE), None),
        (TrainConfig(alpha=0.0, beta=1.0, corr_mode=training.CORR_IDENTITY), "eye"),
        (TrainConfig(alpha=0.7, beta=0.4, corr_mode=training.CORR_IDENTITY), "eye"),
    ])
    def test_against_finite_differences(self, setup, cfg, gamma):
        model, x, attrs = setup
        gamma = np.eye(3) if gamma == "eye" else None
        enc_grad, dec_grad, _ = backward(model, x, attrs, cfg, gamma)
        h = 1e-5
        rng = np.random.default_rng(11)
        for net, grad in ((model.encoder, enc_grad), (model.decoder, dec_grad)):
            gws, gbs = net.views(grad)
            for li in range(len(net.weights)):
                rows, cols = net.weights[li].shape
                for _ in range(4):
                    i, j = rng.integers(rows), rng.integers(cols)
                    orig = net.weights[li][i, j]
                    net.weights[li][i, j] = orig + h
                    up = self.objective(model, x, attrs, cfg, gamma)
                    net.weights[li][i, j] = orig - h
                    down = self.objective(model, x, attrs, cfg, gamma)
                    net.weights[li][i, j] = orig
                    fd = (up - down) / (2 * h)
                    assert gws[li][i, j] == pytest.approx(fd, rel=1e-4, abs=1e-10)
                bi = rng.integers(net.biases[li].shape[0])
                orig = net.biases[li][bi]
                net.biases[li][bi] = orig + h
                up = self.objective(model, x, attrs, cfg, gamma)
                net.biases[li][bi] = orig - h
                down = self.objective(model, x, attrs, cfg, gamma)
                net.biases[li][bi] = orig
                fd = (up - down) / (2 * h)
                assert gbs[li][bi] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_beta_zero_matches_corr_free_path(self, setup):
        model, x, attrs = setup
        with_corr = TrainConfig(alpha=0.5, beta=0.0, corr_mode=training.CORR_IDENTITY)
        without = TrainConfig(alpha=0.5, beta=0.0, corr_mode=training.CORR_NONE)
        g1 = backward(model, x, attrs, with_corr, np.eye(3))
        g2 = backward(model, x, attrs, without, None)
        np.testing.assert_allclose(g1[0], g2[0], atol=1e-12)

    def test_a_correlation_term_without_a_reference_is_refused(self, setup):
        model, x, attrs = setup
        cfg = TrainConfig(alpha=1.0, beta=0.5, corr_mode=training.CORR_IDENTITY)
        with pytest.raises(ConfigInvalid,
                           match="^corr_mode set but no reference matrix given$"):
            backward(model, x, attrs, cfg)

    @pytest.mark.parametrize("call,net", [(0, "decoder"), (1, "encoder")])
    def test_non_finite_gradient_names_net_and_layer(self, setup, monkeypatch,
                                                     call, net):
        calls = []
        real = training.mlp_backward

        def poisoned(*args):
            grad, grad_in = real(*args)
            if len(calls) == call:
                _, grad_b = args[0].views(grad)
                grad_b[1][0] = np.nan
            calls.append(1)
            return grad, grad_in

        monkeypatch.setattr(training, "mlp_backward", poisoned)
        model, x, attrs = setup
        cfg = TrainConfig(alpha=1.0, beta=0.0, corr_mode=training.CORR_NONE)
        with pytest.raises(NonFinite, match=f"{net} bias gradient in layer 1"):
            backward(model, x, attrs, cfg)

    @pytest.mark.parametrize("mode", training.CORR_MODES)
    def test_float32_copy_agrees_with_float64(self, mode):
        # desk shape: float32's unit roundoff is 6e-8, and the norm-wise
        # error of these gradients measured 3e-7; the bound leaves 30x
        sizes = [16, 128, 128, 128, 16]
        model = EncoderDecoder(init_params(0, sizes), init_params(1, sizes), 5)
        rng = np.random.default_rng(13)
        x, attrs = rng.normal(size=(256, 16)), rng.normal(size=(256, 5))
        cfg = TrainConfig(alpha=0.7, beta=0.4, corr_mode=mode)
        gamma = None if mode == training.CORR_NONE else batch_corr(attrs)
        work = EncoderDecoder(model.encoder.astype(np.float32),
                              model.decoder.astype(np.float32), 5)
        *want, want_comps = backward(model, x, attrs, cfg, gamma)
        *got, comps = backward(work, x, attrs, cfg, gamma)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and w.dtype == np.float64
            assert np.linalg.norm(g - w) <= 1e-5 * np.linalg.norm(w)
        for key, value in want_comps.items():
            assert comps[key] == pytest.approx(value, rel=1e-5, abs=1e-12)

    def test_zero_variance_column_finite(self):
        rng = np.random.default_rng(12)
        codes = np.column_stack([np.full(8, 1.0), rng.normal(size=(8, 2))])
        loss, grad = corr_loss_and_grad(codes, np.eye(3))
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


class TestTrain:
    def make_data(self, n=512, d=8, k=2, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        attrs = np.tanh(x[:, :k]) + 0.1 * rng.normal(size=(n, k))
        return x, attrs

    def test_loss_decreases(self):
        x, attrs = self.make_data()
        cfg = TrainConfig(alpha=1.0, beta=0.1, epochs=60, batch_size=64,
                          learning_rate=3e-3, hidden_size=16, n_layers=3, seed=1)
        _, history = train(x, attrs, cfg)
        assert history[-1]["recons"] < 0.5 * history[0]["recons"]

    def test_bit_deterministic(self):
        x, attrs = self.make_data()
        cfg = TrainConfig(alpha=1.0, beta=0.1, epochs=3, batch_size=64,
                          learning_rate=1e-3, hidden_size=16, n_layers=3, seed=2)
        m1, h1 = train(x, attrs, cfg)
        m2, h2 = train(x, attrs, cfg)
        assert h1 == h2
        for w1, w2 in zip(m1.encoder.weights, m2.encoder.weights):
            np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("beta", [0.4, 0.0])
    @pytest.mark.parametrize("mode", training.CORR_MODES)
    def test_history_total_is_the_weighted_components_bit_for_bit(self, mode,
                                                                  beta):
        x, attrs = self.make_data(n=128)
        cfg = TrainConfig(alpha=0.7, beta=beta, epochs=2, batch_size=32,
                          corr_mode=mode, learning_rate=1e-3, hidden_size=16,
                          n_layers=3, seed=3)
        _, history = train(x, attrs, cfg)
        for stats in history:
            assert stats.keys() == {"recons", "attr", "corr", "total"}
            assert (np.float64(stats["total"]).tobytes()
                    == np.float64(weighted_total(stats, cfg)).tobytes())
            if beta == 0.0:  # the corr component is 0 in every variant
                assert stats["corr"] == 0.0
                assert stats["total"] == stats["recons"] + cfg.alpha * stats["attr"]

    def test_steps_and_returns_in_float32(self, monkeypatch):
        seen = {"mlp_forward": [], "mlp_backward": []}
        for name, dtypes in seen.items():
            def spy(params, *args, _real=getattr(training, name), _seen=dtypes):
                _seen.append(params.flat.dtype)
                return _real(params, *args)
            monkeypatch.setattr(training, name, spy)
        updated = []  # per Adam step: the dtypes of the net and its moments

        def adam_spy(params, grad, state, lr, _real=training.adam_step):
            updated.append((params.flat.dtype, state.m.dtype, state.v.dtype))
            return _real(params, grad, state, lr)
        monkeypatch.setattr(training, "adam_step", adam_spy)
        x, attrs = self.make_data(n=128)
        cfg = TrainConfig(alpha=1.0, beta=0.1, epochs=2, batch_size=64,
                          hidden_size=8, n_layers=3)
        model, history = train(x, attrs, cfg)
        steps = 2 * 2  # two nets a step
        assert seen == {name: [np.float32] * 2 * steps for name in seen}
        assert updated == [(np.float32,) * 3] * 2 * steps
        for net in (model.encoder, model.decoder):
            assert net.flat.dtype == np.float32
            assert all(a.dtype == np.float32 for a in net.weights + net.biases)
        assert all(type(v) is float for h in history for v in h.values())

    def test_bit_identical_at_one_and_two_blas_threads(self):
        # desk shape, so that OpenBLAS splits the large products over two
        # threads; each count runs in a fresh process, as the library reads
        # OPENBLAS_NUM_THREADS when it loads
        src = str(Path(training.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", TRAIN_AND_HASH], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout.splitlines())
        (weights_1, history_1), (weights_2, history_2) = outputs
        assert weights_1 == weights_2
        assert history_1 == history_2

    def test_rejects_code_not_bigger_than_attrs(self):
        x, attrs = self.make_data(d=2, k=2)
        cfg = TrainConfig(epochs=1, hidden_size=8, n_layers=2)
        with pytest.raises(ConfigInvalid):
            train(x, attrs, cfg)

    def test_rejects_tiny_batch_with_corr(self):
        x, attrs = self.make_data()
        cfg = TrainConfig(epochs=1, batch_size=1, corr_mode=training.CORR_IDENTITY)
        with pytest.raises(ConfigInvalid):
            train(x, attrs, cfg)

    @pytest.mark.parametrize("mode", [training.CORR_DATABASE,
                                      training.CORR_IDENTITY])
    def test_short_tail_batch_topped_up(self, mode, monkeypatch):
        seen = []
        real = training.corr_loss_and_grad

        def recording(codes, gamma):
            seen.append(codes.shape[0])
            return real(codes, gamma)

        monkeypatch.setattr(training, "corr_loss_and_grad", recording)
        x, attrs = self.make_data(n=258)
        cfg = TrainConfig(alpha=1.0, beta=0.1, corr_mode=mode, epochs=2,
                          batch_size=64, hidden_size=8, n_layers=2)
        _, history = train(x, attrs, cfg)
        assert seen == [64, 64, 64, 64, 32] * 2
        assert all(np.isfinite(h["total"]) for h in history)
        with pytest.raises(ConfigInvalid):
            train(x[:31], attrs[:31], cfg)

    def test_non_finite_mid_training_names_epoch_and_batch(self):
        x, attrs = self.make_data(n=64)
        cfg = TrainConfig(alpha=1.0, beta=0.1, epochs=3, batch_size=32,
                          learning_rate=1e300, hidden_size=4, n_layers=2)
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
            train(x, attrs, cfg)
        # the first step is finite; its huge update breaks the second batch
        assert str(info.value).startswith("epoch 0, batch at position 32 "
                                          "(first row ")

    @pytest.mark.filterwarnings("error")  # the NonFinite alone reports it
    @pytest.mark.parametrize("alpha", [1e20, 1e38])
    def test_an_overflowing_second_moment_is_refused(self, alpha):
        # float32 Adam squares each gradient entry: above about 1.8e19 the
        # square is inf, so is that entry's v, and m / inf gives it a zero
        # step for the rest of the run, though every loss stays finite
        world = oracle.make_world(12, 2, 4, seed=3)
        latents, attrs = oracle.build_dataset(world, 500, seed=4)
        top = pca.project(pca.fit_pca(latents, 8), latents).top
        gauss = gaussianize.gaussianize_columns(gaussianize.fit_transform(attrs),
                                                attrs)
        cfg = TrainConfig(alpha=alpha, beta=0.5, epochs=3, batch_size=64,
                          learning_rate=1e-3, hidden_size=8, n_layers=2, seed=1)
        with pytest.raises(NonFinite, match=(
                r"^epoch \d+, batch at position \d+ \(first row \d+\): "
                r"encoder Adam second moment is not finite$")):
            train(top, gauss, cfg)

    @pytest.mark.filterwarnings("error")  # the NonFinite alone reports it
    @pytest.mark.parametrize("x_scale, attr_scale, alpha", [
        (1e19, 1.0, 1.0),    # float32 products overflow in backward
        (1.0, 1e200, 0.0)])  # the attr loss overflows; its gradient is 0
    def test_an_overflow_in_backward_is_refused(self, x_scale, attr_scale,
                                                alpha):
        x, attrs = self.make_data(d=16, k=4)
        cfg = TrainConfig(alpha=alpha, epochs=2, batch_size=64, hidden_size=16,
                          n_layers=2)
        with pytest.raises(NonFinite, match=r"^epoch 0, batch at position "):
            train(x * x_scale, attrs * attr_scale, cfg)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("hidden_size", 0), ("n_layers", 0),
        ("learning_rate", -1.0), ("learning_rate", 0.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("alpha", -1.0), ("alpha", float("nan")), ("beta", -0.5),
        ("beta", float("inf")), ("corr_mode", "bogus"), ("corr_mode", "C"),
        ("seed", -1), ("batch_size", -5)])
    def test_rejects_invalid_config(self, field, value, monkeypatch):
        # refused where it enters, before a net is built
        monkeypatch.setattr(training, "init_params", None)
        x, attrs = self.make_data(n=64)
        cfg = TrainConfig(**{"epochs": 1, "hidden_size": 4, "n_layers": 2,
                             field: value})
        with pytest.raises(ConfigInvalid, match=f"^{field} "):
            train(x, attrs, cfg)

    @pytest.mark.parametrize("mode, floor", [(training.CORR_NONE, 2),
                                             (training.CORR_DATABASE, 32),
                                             (training.CORR_IDENTITY, 32)])
    def test_batch_size_floor_depends_on_corr_mode(self, mode, floor):
        training.check_config(TrainConfig(batch_size=floor, corr_mode=mode))
        with pytest.raises(ConfigInvalid, match=f"^batch_size {floor - 1} is "
                                                f"not >= {floor} under "
                                                f"corr_mode '{mode}'$"):
            training.check_config(TrainConfig(batch_size=floor - 1,
                                              corr_mode=mode))

    @pytest.mark.parametrize("mode, floor", [(training.CORR_NONE, 2),
                                             (training.CORR_IDENTITY, 32)])
    def test_a_dataset_below_the_batch_floor_is_refused_before_any_step(
            self, mode, floor, monkeypatch):
        for name in ("init_params", "backward"):
            monkeypatch.setattr(training, name, None)
        cfg = TrainConfig(epochs=1, batch_size=floor, corr_mode=mode,
                          hidden_size=4, n_layers=2)
        for n in (0, floor - 1):
            message = (f"corr_mode '{mode}' needs at least {floor} rows, but "
                       f"the dataset has {n}")
            with pytest.raises(ConfigInvalid, match=f"^{message}$"):
                train(*self.make_data(n=n), cfg)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, which, bad):
        data = list(self.make_data(n=64))
        data[which][[5, 9], 1] = bad
        name = ("latents_top", "attrs_gauss")[which]
        with pytest.raises(NonFinite, match=f"^{name} row 5 is not finite$"):
            train(*data, TrainConfig(epochs=1, hidden_size=4, n_layers=2))

    def test_misaligned_data(self):
        with pytest.raises(DimensionMismatch):
            train(np.ones((5, 4)), np.ones((6, 2)), TrainConfig(epochs=1))

    def test_save_load_round_trip(self, tmp_path):
        x, attrs = self.make_data()
        cfg = TrainConfig(alpha=1.0, beta=0.0, corr_mode=training.CORR_NONE,
                          epochs=2, batch_size=64, hidden_size=16, n_layers=3)
        model, _ = train(x, attrs, cfg)
        training.save_model(model, cfg, tmp_path)
        loaded, loaded_cfg = training.load_model(tmp_path)
        assert loaded_cfg == cfg
        for w1, w2 in zip(model.decoder.weights, loaded.decoder.weights):
            np.testing.assert_array_equal(w1, w2)
        # every net starts each view on a cache line (hidden size 16); six
        # nets, as one small buffer can be 64-byte aligned by chance
        again, _ = training.load_model(tmp_path)
        for m in (model, loaded, again):
            for net in (m.encoder, m.decoder):
                for a in [net.flat] + net.weights + net.biases:
                    assert a.ctypes.data % 64 == 0

    def test_each_net_is_stored_in_its_own_width_and_loads_bit_exact(
            self, tmp_path):
        # train's float32 nets as <f4, float64 nets (init_params') as <f8;
        # load_model gives back either in its own width, bit for bit
        cfg = TrainConfig(epochs=1, batch_size=64, hidden_size=16, n_layers=3)
        trained, _ = train(*self.make_data(d=10), cfg)
        for model, descr in ((trained, "<f4"), (small_model(), "<f8")):
            directory = tmp_path / descr
            training.save_model(model, cfg, directory)
            files = sorted(directory.glob("*.npy"))
            assert len(files) == 12  # 3 layers, weight and bias, 2 nets
            assert {np.load(f).dtype.str for f in files} == {descr}
            loaded, _ = training.load_model(directory)
            for net, back in ((model.encoder, loaded.encoder),
                              (model.decoder, loaded.decoder)):
                assert back.flat.dtype == net.flat.dtype
                assert back.flat.tobytes() == net.flat.tobytes()

    @pytest.mark.parametrize("slope", [1.5, 1.0, -0.01, float("nan"), True,
                                       "0.01", None])
    def test_load_model_refuses_slope_outside_unit_interval(self, tmp_path,
                                                            slope):
        # the slope is a constant: a manifest key of no value is unknown
        meta_path, meta = self.saved_manifest(tmp_path)
        meta["leaky_slope"] = slope
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigInvalid, match=r"model_meta.json: unknown "
                                                r"keys \['leaky_slope'\]"):
            training.load_model(tmp_path)

    @pytest.mark.parametrize("slope", [0.01, 0.5])
    def test_load_model_refuses_manifest_that_carries_slope(self, tmp_path,
                                                            slope):
        # manifests written while the slope was settable carry leaky_slope,
        # even at the constant's value
        meta_path, meta = self.saved_manifest(tmp_path)
        assert "leaky_slope" not in meta
        meta["leaky_slope"] = slope
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigInvalid, match=r"model_meta.json: unknown "
                                                r"keys \['leaky_slope'\]; run "
                                                r"train again"):
            training.load_model(tmp_path)

    def test_load_model_refuses_manifest_written_before_code_size(self,
                                                                  tmp_path):
        meta_path, meta = self.saved_manifest(tmp_path)
        sizes = [meta.pop("code_size"), 16, 16, 10]
        meta.update(enc_layer_sizes=sizes, dec_layer_sizes=sizes)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigInvalid, match=r"model_meta.json: unknown keys "
                                                r"\['dec_layer_sizes', "
                                                r"'enc_layer_sizes'\]; run "
                                                r"train again"):
            training.load_model(tmp_path)

    def test_save_model_refuses_sizes_the_config_does_not_give(self, tmp_path):
        with pytest.raises(DimensionMismatch, match=r"\[10, 16, 16, 10\] are "
                                                    r"not \[10, 512, "):
            training.save_model(small_model(),
                                TrainConfig(hidden_size=512, n_layers=8), tmp_path)
        model = small_model()
        model.decoder = init_params(1, [10, 16, 16, 16, 10])
        with pytest.raises(DimensionMismatch, match="16, 16, 16"):
            training.save_model(model, SMALL_CFG, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def saved_manifest(self, tmp_path):
        training.save_model(small_model(), SMALL_CFG, tmp_path)
        meta_path = tmp_path / "model_meta.json"
        return meta_path, json.loads(meta_path.read_text())

    def test_load_model_refuses_malformed_manifest(self, tmp_path):
        meta_path, _ = self.saved_manifest(tmp_path)
        for text, message in (
                ("{", "not valid JSON"), ("[1]", "must hold a JSON object"),
                ('{"code_size": 10, "K": 2, "train_config": []}',
                 "train_config: must hold a JSON object")):
            meta_path.write_text(text)
            with pytest.raises(ConfigInvalid, match=f"model_meta.json: {message}"):
                training.load_model(tmp_path)

    def test_load_model_takes_an_int_where_a_float_is_wanted(self, tmp_path):
        meta_path, meta = self.saved_manifest(tmp_path)
        meta["train_config"].update(alpha=1, learning_rate=1)
        meta_path.write_text(json.dumps(meta))
        _, cfg = training.load_model(tmp_path)
        for value in (cfg.alpha, cfg.learning_rate):
            assert type(value) is float and value == 1.0

    def test_load_model_refuses_a_key_repeated_in_the_manifest(self, tmp_path):
        # json.loads alone keeps the last value of a repeated key
        meta_path, manifest = self.saved_manifest(tmp_path)
        text = json.dumps(manifest).replace('"seed": ', '"seed": 5, "seed": ')
        meta_path.write_text(text)
        with pytest.raises(ConfigInvalid, match="model_meta.json: key 'seed' "
                                                "appears twice"):
            training.load_model(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("K", None), ("K", "3"), ("K", 3.0), ("K", -1), ("K", 10),
        # keys of manifests written before code_size: unknown now
        ("enc_layer_sizes", 10), ("enc_layer_sizes", ["10", 16, 16, 10]),
        ("enc_layer_sizes", [10, True, 16, 10]),
        ("dec_layer_sizes", [10, 16, 0, 10]),
        ("train_config", []),
        ("code_size", None), ("code_size", "10"), ("code_size", 10.0),
        ("code_size", True), ("code_size", 3), ("code_size", -1)])
    def test_load_model_refuses_missing_or_ill_typed_key(self, tmp_path, key,
                                                         value):
        meta_path, meta = self.saved_manifest(tmp_path)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigInvalid, match=f"model_meta.json.*{key}"):
            training.load_model(tmp_path)

    @pytest.mark.parametrize("train_config", [
        # the Adam constants were TrainConfig fields once
        {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8},
        {"epochs": "150"}, {"alpha": True}, {"corr_mode": "bogus"},
        {"epochs": 0}])
    def test_load_model_refuses_unknown_or_ill_typed_train_config(
            self, tmp_path, train_config):
        meta_path, meta = self.saved_manifest(tmp_path)
        meta["train_config"].update(train_config)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigInvalid, match="model_meta.json"):
            training.load_model(tmp_path)

    def test_load_model_refuses_a_batch_size_train_refuses(self, tmp_path):
        meta_path, meta = self.saved_manifest(tmp_path)
        meta["train_config"]["batch_size"] = -5
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigInvalid, match=r"model_meta.json: train_config "
                                                r"batch_size -5 is not >= 32 "):
            training.load_model(tmp_path)

    def test_load_model_refuses_missing_train_config_field(self, tmp_path):
        meta_path, meta = self.saved_manifest(tmp_path)
        del meta["train_config"]["seed"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigInvalid, match="model_meta.json.*'seed'"):
            training.load_model(tmp_path)

    @pytest.mark.parametrize("source, target", [
        ("enc_w0", "enc_w1"), ("enc_b0", "dec_b2"), ("dec_w0", "dec_w2")])
    def test_load_model_refuses_weights_that_do_not_chain(self, tmp_path,
                                                          source, target):
        self.saved_manifest(tmp_path)
        (tmp_path / f"{target}.npy").write_bytes(
            (tmp_path / f"{source}.npy").read_bytes())
        with pytest.raises(DimensionMismatch, match=f"{target}.npy"):
            training.load_model(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("code_size", 12), ("code_size", 4), ("hidden_size", 8),
        ("n_layers", 2), ("n_layers", 4)])
    def test_load_model_refuses_layer_sizes_the_files_disagree_with(
            self, tmp_path, key, value):
        meta_path, meta = self.saved_manifest(tmp_path)
        (meta if key == "code_size" else meta["train_config"])[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DimensionMismatch, match="model_meta.json"):
            training.load_model(tmp_path)
