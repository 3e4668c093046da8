"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion. The heavy trainings
(desk-scale worlds, 150 epochs) are session-scoped fixtures whose wall time
is recorded so the end-to-end runtime budget can be asserted.
"""

import functools
import math
import time

import numpy as np
import pytest
import scipy.integrate

from latentaxes import (baseline, editor, evaluation, gaussianize, oracle,
                        pca, training)
from latentaxes.mlp import init_params
from latentaxes.training import (EncoderDecoder, TrainConfig, backward,
                                 weighted_total)

DESK = dict(m=32, k=5, q=8, n=20000, d=16)
DESK_CFG = dict(alpha=1.0, beta=0.5, epochs=150, batch_size=256,
                learning_rate=1e-3, hidden_size=128, n_layers=4, seed=1)


def announce(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def train_desk(correlated, corr_mode, seed=DESK_CFG["seed"]):
    t0 = time.perf_counter()
    world = oracle.make_world(DESK["m"], DESK["k"], DESK["q"],
                              correlated=correlated, seed=7)
    latents, attrs = oracle.build_dataset(world, DESK["n"], seed=8)
    pm = pca.fit_pca(latents, DESK["d"])
    tr = gaussianize.fit_transform(attrs)
    cfg = TrainConfig(corr_mode=corr_mode, **{**DESK_CFG, "seed": seed})
    model, history = training.train(pca.project(pm, latents).top,
                                    gaussianize.gaussianize_columns(tr, attrs),
                                    cfg)
    pipe = editor.EditPipeline(pca=pm, transform=tr, model=model)
    return dict(world=world, latents=latents, attrs=attrs, pipe=pipe,
                history=history, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def corr_c():
    return train_desk(correlated=True, corr_mode=training.CORR_IDENTITY)


@pytest.fixture(scope="session")
def corr_a():
    return train_desk(correlated=True, corr_mode=training.CORR_NONE)


@pytest.fixture(scope="session")
def corr_b():
    return train_desk(correlated=True, corr_mode=training.CORR_DATABASE)


def ae_search(pipe):
    return functools.partial(editor.search_positive, pipe)


def held_out_max_offdiag(run, seed=99):
    latents = oracle.sample_w(run["world"], 1024, seed)
    slots = editor.encode(run["pipe"], latents).attr_slots
    corr = training.batch_corr(slots)
    return float(np.abs(corr - np.eye(DESK["k"])).max())


def mean_abs_offdiag(mat):
    off = mat[~np.eye(mat.shape[0], dtype=bool)]
    off = off[np.isfinite(off)]
    return float(np.abs(off).mean())


def test_criterion_1_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    model = EncoderDecoder(encoder=init_params(0, [10, 16, 16, 10]),
                           decoder=init_params(1, [10, 16, 16, 10]),
                           n_attributes=3)
    x = rng.normal(size=(8, 10))
    attrs = rng.normal(size=(8, 3))
    # alpha/beta switches isolate each loss component by linearity
    configs = [
        (TrainConfig(alpha=0.0, beta=0.0, corr_mode=training.CORR_NONE), None),
        (TrainConfig(alpha=1.0, beta=0.0, corr_mode=training.CORR_NONE), None),
        (TrainConfig(alpha=0.0, beta=1.0, corr_mode=training.CORR_IDENTITY),
         np.eye(3)),
        (TrainConfig(alpha=0.7, beta=0.4, corr_mode=training.CORR_IDENTITY),
         np.eye(3)),
    ]

    def objective(cfg, gamma):
        return weighted_total(backward(model, x, attrs, cfg, gamma)[2], cfg)

    h = 1e-5
    worst = 0.0
    for cfg, gamma in configs:
        enc_grad, dec_grad, _ = backward(model, x, attrs, cfg, gamma)
        # every weight and bias: a gradient is laid out like its net's flat
        for flat, grad in ((model.encoder.flat, enc_grad),
                           (model.decoder.flat, dec_grad)):
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = objective(cfg, gamma)
                flat[idx] = orig - h
                down = objective(cfg, gamma)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                err = abs(grad[idx] - fd)
                scale = max(abs(grad[idx]), abs(fd), 1e-4)
                worst = max(worst, err / scale)
    elapsed = time.perf_counter() - t0
    announce(1, worst <= 1e-4 and elapsed < 10.0,
             f"max relative gradient error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_pca_suite():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(400, 12)) @ rng.normal(size=(12, 12))
    pm = pca.fit_pca(data, 7)
    ortho = np.abs(pm.basis.T @ pm.basis - np.eye(12)).max()
    split = pca.project(pm, data)
    recon = pca.reconstruct(pm, split)
    round_trip = np.abs(recon - data).max()
    trace = np.trace(np.cov(data, rowvar=False))
    trace_err = abs(pm.eigenvalues.sum() - trace) / trace
    planted = np.random.default_rng(2).normal(size=(1000, 2)) * [2.0, 1.0]
    lam = pca.fit_pca(planted, 1).eigenvalues
    ratio = lam[0] / lam[1]
    ok = (ortho <= 1e-8 and round_trip <= 1e-8 and trace_err <= 1e-6
          and abs(ratio - 4.0) <= 0.15 * 4.0)
    announce(2, ok, f"ortho {ortho:.1e}, round-trip {round_trip:.1e}, "
                    f"trace rel {trace_err:.1e}, ratio {ratio:.2f}")


def bisect_quantile(p):
    """Independent oracle: bisection on the quadrature-integrated density.

    Works on the lower tail only (mirroring for p > 0.5, where 1 - p is
    exact by Sterbenz) so the integral stays free of cancellation even at
    p = 1e-10.
    """
    if p > 0.5:
        return -bisect_quantile(1.0 - p)
    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    lo, hi = -41.0, 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cdf = scipy.integrate.quad(pdf, -41.0, mid, epsabs=0.0,
                                   epsrel=1e-13)[0]
        if cdf < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_3_inv_norm_cdf():
    tails = np.geomspace(1e-10, 0.4, 250)
    grid = np.unique(np.concatenate([
        tails, 1.0 - tails, np.linspace(1e-10, 1 - 1e-10, 504)]))
    assert grid.size >= 1000
    got = gaussianize.inv_norm_cdf(grid)
    worst = max(abs(g - bisect_quantile(p)) for p, g in zip(grid, got))
    # antisymmetry on exactly complementable pairs (dyadic p, exact 1-p)
    pairs = np.concatenate([np.arange(1, 512) / 1024.0,
                            2.0 ** -np.arange(2, 31)])
    anti = np.abs(gaussianize.inv_norm_cdf(pairs)
                  + gaussianize.inv_norm_cdf(1.0 - pairs)).max()
    announce(3, worst <= 1e-7 and anti <= 1e-9,
             f"max abs error {worst:.2e} over {grid.size} points, "
             f"antisymmetry {anti:.2e}")


def test_criterion_4_gaussianization():
    rng = np.random.default_rng(3)
    raw = 1.0 / (1.0 + np.exp(-rng.normal(size=(10000, 1))))
    tr = gaussianize.fit_transform(raw)
    g = gaussianize.gaussianize_columns(tr, raw)
    mean, std = abs(g.mean()), g.std()
    back = gaussianize.degaussianize_columns(tr, g)
    resolution = np.diff(np.sort(raw[:, 0])).max()
    round_trip = np.abs(back - raw).max()
    ok = mean < 0.05 and 0.9 <= std <= 1.1 and round_trip <= resolution
    announce(4, ok, f"mean {mean:.3f}, std {std:.3f}, "
                    f"round-trip {round_trip:.2e} <= resolution {resolution:.2e}")


def criterion_5_figures(run):
    """Criterion 5's figures for a trained desk run: (rate, held-out max
    off-diagonal, variation off-diagonal, the linear baseline's, identity).
    The identity is NaN if an attribute had no success."""
    world = run["world"]
    lin = baseline.fit_all_directions(run["latents"], run["attrs"])
    blocks = evaluation.score_methods(
        {"autoencoder": ae_search(run["pipe"]), "linear": lin.search_positive},
        lambda w: oracle.classify(world, w),
        lambda w: oracle.embed_identity(world, w),
        lambda n, s: oracle.sample_w(world, n, s), DESK["k"], n=1024,
        threshold=0.9, seed=100)
    ae = blocks["autoencoder"]
    return (float(np.mean(ae["well_edited_rates"])),
            held_out_max_offdiag(run),
            mean_abs_offdiag(ae["variation_matrix"]),
            mean_abs_offdiag(blocks["linear"]["variation_matrix"]),
            float("nan") if 0 in ae["n_success"] else ae["identity_similarity"])


def test_criterion_5_end_to_end(corr_c):
    t0 = time.perf_counter()
    rate, max_off, ae_off, lin_off, identity = criterion_5_figures(corr_c)
    elapsed = time.perf_counter() - t0 + corr_c["seconds"]
    ok = (rate >= 0.9 and max_off <= 0.25 and ae_off < lin_off
          and identity >= 0.9 and elapsed <= 600.0)
    announce(5, ok, f"rate {rate:.3f}, held-out max off-diag {max_off:.3f}, "
                    f"variation off-diag {ae_off:.4f} vs linear {lin_off:.4f}, "
                    f"identity {identity:.4f}, runtime {elapsed:.0f}s")


def criterion_6_match(run):
    """Criterion 6's variant-B correlation match for a trained desk run: the
    largest gap between its held-out slot correlation and the database's."""
    latents = oracle.sample_w(run["world"], 1024, 99)
    slots = editor.encode(run["pipe"], latents).attr_slots
    code_corr = training.batch_corr(slots)
    db_corr = training.batch_corr(
        gaussianize.gaussianize_columns(
            gaussianize.fit_transform(run["attrs"]), run["attrs"]))
    return float(np.abs(code_corr - db_corr).max())


def test_criterion_6_variant_ablations(corr_a, corr_b, corr_c):
    off_a = held_out_max_offdiag(corr_a)
    off_c = held_out_max_offdiag(corr_c)
    match = criterion_6_match(corr_b)
    ok = off_a > off_c and match <= 0.15
    announce(6, ok, f"variant A off-diag {off_a:.3f} > C {off_c:.3f}, "
                    f"variant B corr match {match:.3f} <= 0.15")


def test_criterion_7_frechet():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2000, 5))
    self_dist = evaluation.frechet_distance(x, x)
    a = rng.normal(0.0, 1.0, size=(50000, 1))
    b = rng.normal(2.0, 1.0, size=(50000, 1))
    closed = evaluation.frechet_distance(a, b)
    u = rng.normal(size=(600, 4)) @ np.diag([1, 2, 0.5, 1.5])
    v = rng.normal(size=(600, 4)) + 0.3
    sym = abs(evaluation.frechet_distance(u, v)
              - evaluation.frechet_distance(v, u))
    ok = self_dist <= 1e-6 and abs(closed - 4.0) <= 0.2 and sym <= 1e-9
    announce(7, ok, f"self {self_dist:.1e}, closed-form {closed:.3f}, "
                    f"symmetry {sym:.1e}")


def test_criterion_8_determinism(tmp_path):
    world = oracle.make_world(16, 3, 4, seed=5)
    latents, attrs = oracle.build_dataset(world, 2000, seed=6)
    pm = pca.fit_pca(latents, 8)
    tr = gaussianize.fit_transform(attrs)
    top = pca.project(pm, latents).top
    ag = gaussianize.gaussianize_columns(tr, attrs)
    cfg = TrainConfig(alpha=1.0, beta=0.3, epochs=15, batch_size=128,
                      learning_rate=2e-3, hidden_size=32, n_layers=4, seed=9)
    reports = []
    for rep in range(2):
        model, history = training.train(top, ag, cfg)
        pipe = editor.EditPipeline(pca=pm, transform=tr, model=model)
        methods = evaluation.score_methods(
            {"autoencoder": ae_search(pipe)},
            lambda w: oracle.classify(world, w),
            lambda w: oracle.embed_identity(world, w),
            lambda n, s: oracle.sample_w(world, n, s), 3, n=256,
            threshold=0.9, seed=50)
        report = evaluation.jsonable({
            "config": dict(cfg.__dict__), "seeds": {"world": 5, "data": 6},
            "amplitude_grid": editor.AMPLITUDE_QUANTILES, "threshold": 0.9,
            "methods": methods})
        reports.append((model, history, repr(report)))
    m1, h1, r1 = reports[0]
    m2, h2, r2 = reports[1]
    bit_equal = all(
        w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()
        for net1, net2 in ((m1.encoder, m2.encoder), (m1.decoder, m2.decoder))
        for w1, w2, b1, b2 in zip(net1.weights, net2.weights,
                                  net1.biases, net2.biases))
    ok = bit_equal and h1 == h2 and r1 == r2
    announce(8, ok, "bit-identical parameters, histories and reports "
                    "across two runs")


def test_criterion_9_structural_identity(corr_c):
    pipe = corr_c["pipe"]
    rng = np.random.default_rng(11)
    for w in corr_c["latents"][:32]:
        code = editor.encode(pipe, w)
        free0, res0 = code.free_slots.tobytes(), code.residual.tobytes()
        seq = code
        for _ in range(20):
            k = int(rng.integers(DESK["k"]))
            seq = editor.set_attribute(seq, k, float(rng.normal()))
        if seq.free_slots.tobytes() != free0 or seq.residual.tobytes() != res0:
            announce(9, False, "free slots or residual changed")
    announce(9, True, "free slots and PCA residual bit-unchanged under "
                      "640 random set_attribute calls")
