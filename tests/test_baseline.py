import warnings

import numpy as np
import pytest
from scipy.optimize import minimize, root
from scipy.special import expit

from latentaxes import baseline, oracle
from latentaxes.errors import (
    DimensionMismatch,
    NonFinite,
    NotConverged,
    SingleClass,
)


def fit_one(x, labels):
    """(unit, bias) of one attribute with 0/1 labels, which the 0.5
    threshold passes unchanged."""
    editor = baseline.fit_all_directions(x, labels[:, None])
    return editor.units[0], editor.biases[0]


def reference_optimum(x, y):
    """The fit's objective on standardized x, minimized by L-BFGS-B
    independently of baseline's Newton solve; returns the direction w / sigma
    at unit norm and the standardized bias."""
    sigma = x.std(axis=0)
    sigma[sigma == 0] = 1.0
    xs = (x - x.mean(axis=0)) / sigma
    n, m = xs.shape

    def fun(theta):
        z = xs @ theta[:m] + theta[m]
        r = expit(z) - y
        f = (np.logaddexp(0.0, z).mean() - y @ z / n
             + baseline.FIT_L2 * theta[:m] @ theta[:m])
        grad = np.append(xs.T @ r / n + 2 * baseline.FIT_L2 * theta[:m], r.mean())
        return f, grad

    res = minimize(fun, np.zeros(m + 1), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10000})
    # L-BFGS-B's line search stalls near 1e-9 on the rounding of f; a root
    # solve of the gradient, which never reads f, takes it the rest of the way
    res = root(lambda theta: fun(theta)[1], res.x, options={"xtol": 1e-15})
    assert np.abs(fun(res.x)[1]).max() <= 1e-12
    unit = res.x[:m] / sigma
    return unit / np.linalg.norm(unit), res.x[m]


def test_expit_matches_scipy():
    z = np.linspace(-800.0, 800.0, 400_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = baseline.expit(z)
        assert baseline.expit(np.array([-1e308, 1e308])).tolist() == [0.0, 1.0]
    ref = expit(z)
    # scipy's 1 / (1 + exp(-z)) is 0 once exp(-z) overflows, below
    # z = -709.8; there the logistic is exp(z), subnormal or 0
    nonzero = ref > 0.0
    assert (np.abs(got - ref)[nonzero] <= 4 * np.spacing(ref[nonzero])).all()
    assert (got[~nonzero] < np.finfo(np.float64).tiny).all()


def test_separable_toy_direction():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 2))
    labels = (x[:, 0] > 0).astype(float)
    unit, _ = fit_one(x, labels)
    assert abs(abs(unit[0]) - 1.0) <= 0.05
    assert abs(unit[1]) <= 0.05


def test_label_flip_negates_direction():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 4))
    labels = (x @ np.array([1.0, -0.5, 0, 0]) > 0).astype(float)
    u1, _ = fit_one(x, labels)
    u2, _ = fit_one(x, 1 - labels)
    np.testing.assert_allclose(u1, -u2, atol=1e-9)


def test_duplicated_dataset_same_direction():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 3))
    labels = (x[:, 1] > 0.2).astype(float)
    u1, _ = fit_one(x, labels)
    u2, _ = fit_one(np.vstack([x, x]), np.concatenate([labels, labels]))
    np.testing.assert_allclose(u1, u2, atol=1e-9)
    assert np.linalg.norm(u1) == pytest.approx(1.0)


def test_single_class_rejected():
    with pytest.raises(SingleClass):
        fit_one(np.ones((10, 2)), np.ones(10))


def test_recovers_planted_direction():
    world = oracle.make_world(16, 3, 4, seed=5)
    latents, attrs = oracle.build_dataset(world, 5000, seed=6)
    units = baseline.fit_all_directions(latents, attrs).units
    for k in range(3):
        cosine = abs(units[k] @ world.attr_directions[k])
        assert cosine >= 0.95


def test_linear_edit_properties():
    d = np.array([0.6, 0.8])
    w = np.array([1.0, 2.0])
    np.testing.assert_array_equal(baseline.linear_edit(w, d, 0.0), w)
    a = baseline.linear_edit(baseline.linear_edit(w, d, 1.0), d, 2.0)
    b = baseline.linear_edit(w, d, 3.0)
    np.testing.assert_allclose(a, b, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        baseline.linear_edit(np.ones(3), d, 1.0)


def test_search_positive_succeeds_on_oracle():
    world = oracle.make_world(16, 3, 4, seed=7)
    latents, attrs = oracle.build_dataset(world, 3000, seed=8)
    editor = baseline.fit_all_directions(latents, attrs)
    classify = lambda w: oracle.classify(world, w)
    samples = oracle.sample_w(world, 256, 9)
    neg = samples[classify(samples)[:, 0] < 0.5]
    edited, success = editor.search_positive(neg, 0, classify)
    assert success.mean() >= 0.95
    assert (classify(edited[success])[:, 0] >= 0.9).all()
    assert edited[~success].tobytes() == neg[~success].tobytes()


def test_save_load_round_trip(tmp_path):
    world = oracle.make_world(12, 2, 3, seed=10)
    latents, attrs = oracle.build_dataset(world, 1000, seed=11)
    editor = baseline.fit_all_directions(latents, attrs)
    baseline.save_directions(editor, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["directions.npy"]
    loaded = baseline.load_directions(tmp_path)
    np.testing.assert_array_equal(loaded.units, editor.units)
    np.testing.assert_array_equal(loaded.biases, editor.biases)


@pytest.mark.parametrize("case", ["noisy", "near-separable", "overlong-steps",
                                  "large-offset"])
def test_newton_fit_is_the_optimum(case, monkeypatch):
    rng = np.random.default_rng(20)
    if case == "near-separable":
        x = rng.normal(size=(2000, 4))
        y = (x[:, 0] > 0).astype(float)
    elif case == "large-offset":
        # a Hessian block in raw coordinates loses this optimum to cancellation
        x = rng.normal(size=(600, 4)) + [0.0, 1e5, 0.0, 0.0]
        logits = 1.5 * (x[:, 0] - 0.8 * (x[:, 1] - 1e5) + 0.5 * x[:, 2])
        y = (rng.random(600) < expit(logits)).astype(float)
    else:
        x = rng.normal(size=(600, 5)) * [1.0, 3.0, 0.2, 1.0, 5.0] + [0, 4, -2, 1, 10]
        logits = 1.5 * (x[:, 0] - 0.3 * x[:, 1] + 2.0 * x[:, 2])
        y = (rng.random(600) < expit(logits - logits.mean())).astype(float)
    unit, bias = reference_optimum(x, y)
    if case == "overlong-steps":
        # every Newton step ten times too long: only the halving converges
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 10.0 * solve(a, b))
    fit_unit, fit_bias = fit_one(x, y)
    assert np.isfinite(fit_unit).all() and np.isfinite(fit_bias)
    assert fit_unit @ unit >= 1 - 1e-10
    assert fit_bias == pytest.approx(bias, abs=1e-8)


def test_constant_column_gets_zero_weight():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(400, 3))
    x[:, 1] = 4.0
    y = (x[:, 0] + 0.5 * x[:, 2] > 0).astype(float)
    unit, bias = fit_one(x, y)
    assert np.isfinite(unit).all() and np.isfinite(bias)
    assert abs(unit[1]) <= 1e-12


@pytest.mark.parametrize("which", ["latents", "labels"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected_naming_row(which, bad):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(50, 3))
    y = (x[:, 0] > 0).astype(float)
    if which == "latents":
        x[17, 2] = bad
    else:
        y[17] = bad
    with pytest.raises(NonFinite, match=f"{which} row 17 "):
        fit_one(x, y)


def test_fit_all_names_the_failing_attribute(monkeypatch):
    rng = np.random.default_rng(25)
    x = rng.normal(size=(200, 4))
    attrs = rng.random(size=(200, 3))
    attrs[:, 1] = 0.2  # every label 0
    with pytest.raises(SingleClass,
                       match="^attribute 1: both classes must be present$"):
        baseline.fit_all_directions(x, attrs)
    attrs[:, 1] = rng.random(200)
    attrs[33, 2] = np.nan
    with pytest.raises(NonFinite, match="^attribute 2: labels row 33 "):
        baseline.fit_all_directions(x, attrs)
    monkeypatch.setattr(baseline, "FIT_MAX_ITER", 1)
    with pytest.raises(NotConverged, match="^attribute 0: no convergence"):
        baseline.fit_all_directions(x, attrs)


def test_fit_all_refuses_mismatched_shapes_before_fitting():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(200, 4))
    attrs = rng.random(size=(200, 3))
    with pytest.raises(DimensionMismatch,
                       match=r"^latents \(200, 4\) and raw_attrs \(200,\) "):
        baseline.fit_all_directions(x, attrs[:, 0])
    with pytest.raises(DimensionMismatch,
                       match=r"^latents \(200, 4\) and raw_attrs \(199, 3\) "):
        baseline.fit_all_directions(x, attrs[:199])


def test_fit_all_refuses_non_finite_latents_for_no_one_attribute():
    rng = np.random.default_rng(27)
    x = rng.normal(size=(200, 4))
    x[17, 2] = np.nan
    with pytest.raises(NonFinite, match="^latents row 17 "):
        baseline.fit_all_directions(x, rng.random(size=(200, 3)))


def test_fit_all_equals_fitting_each_alone_bit_for_bit():
    rng = np.random.default_rng(28)
    x = rng.normal(size=(5000, 6)) * [1.0, 2.0, 0.5, 1.0, 3.0, 1.0] + 7.0
    attrs = expit(x[:, :3] - 7.0 + rng.normal(size=(5000, 3)))
    editor = baseline.fit_all_directions(x, attrs)
    for k in range(3):
        alone = baseline.fit_all_directions(x, attrs[:, [k]])
        np.testing.assert_array_equal(editor.units[k], alone.units[0])
        assert editor.biases[k] == alone.biases[0]


def test_desk_fit_takes_newton_steps(monkeypatch):
    # the desk scale of the acceptance suite. Exact Newton takes 9 steps on
    # the first WARM_ROWS rows and, from there, 5 on all 20000 rows on every
    # attribute; more means the step has lost its quadratic convergence or
    # the warm start no longer starts near the optimum
    world = oracle.make_world(32, 5, 8, correlated=True, seed=7)
    latents, attrs = oracle.build_dataset(world, 20000, seed=8)
    rows, steps = [], []  # rows of each expit call; rows of each step's solve
    expit, solve = baseline.expit, np.linalg.solve
    monkeypatch.setattr(baseline, "expit",
                        lambda z: rows.append(len(z)) or expit(z))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: steps.append(rows[-1]) or solve(a, b))
    for k in range(5):
        steps.clear()
        baseline.fit_all_directions(latents, attrs[:, [k]])
        block, full = steps.count(baseline.WARM_ROWS), steps.count(20000)
        assert block + full == len(steps)
        assert 1 <= block <= 10, f"attribute {k}: {block} block steps"
        assert full <= 5, f"attribute {k}: {full} full-data steps"


def test_desk_fit_peak_memory(traced_peak):
    # the shared float32 design is 2.4 MiB; an n-by-m float64 temporary
    # (5 MiB), or an n-by-m float32 u per Newton step, would exceed the bound
    world = oracle.make_world(32, 5, 8, correlated=True, seed=7)
    latents, attrs = oracle.build_dataset(world, 20000, seed=8)
    _, peak = traced_peak(baseline.fit_all_directions, latents, attrs)
    assert peak <= 5.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def warm_start_case(one_class_block=False):
    """6000 near-separable rows: more than 2 * WARM_ROWS, so warm-started."""
    rng = np.random.default_rng(29)
    x = rng.normal(size=(6000, 4)) * [1.0, 2.0, 0.5, 1.0] + [0, 3, -1, 0]
    y = (x[:, 0] - 0.2 * x[:, 1] > -0.6).astype(float)
    if one_class_block:  # every negative first: the first 2048 labels are 0
        order = np.argsort(y, kind="stable")
        x, y = x[order], y[order]
        assert y[:baseline.WARM_ROWS].max() == 0.0
    return x, y


@pytest.mark.parametrize("case", ["warm", "warm-overlong-steps",
                                  "one-class-block"])
def test_warm_started_fit_is_the_optimum(case, monkeypatch):
    x, y = warm_start_case(one_class_block=case == "one-class-block")
    unit, bias = reference_optimum(x, y)
    rows, expit = [], baseline.expit
    monkeypatch.setattr(baseline, "expit",
                        lambda z: rows.append(len(z)) or expit(z))
    if case == "warm-overlong-steps":
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 10.0 * solve(a, b))
    fit_unit, fit_bias = fit_one(x, y)
    # the one-class block is skipped: all rows from the zero start
    assert (baseline.WARM_ROWS in rows) == (case != "one-class-block")
    assert fit_unit @ unit >= 1 - 1e-10
    assert fit_bias == pytest.approx(bias, abs=1e-8)


def test_failed_warm_start_hides_no_full_fit_result(monkeypatch):
    x, y = warm_start_case()
    unit, bias = reference_optimum(x, y)
    fit = baseline._fit

    def block_never_converges(xb, *args):
        if len(xb) == baseline.WARM_ROWS:
            raise NotConverged("block")
        return fit(xb, *args)

    monkeypatch.setattr(baseline, "_fit", block_never_converges)
    fit_unit, fit_bias = fit_one(x, y)
    assert fit_unit @ unit >= 1 - 1e-10
    assert fit_bias == pytest.approx(bias, abs=1e-8)
    monkeypatch.setattr(baseline, "_fit", fit)
    bad = y.copy()
    bad[3000] = np.nan  # past the warm-start rows
    with pytest.raises(NonFinite, match="^attribute 0: labels row 3000 "):
        fit_one(x, bad)
    monkeypatch.setattr(baseline, "FIT_MAX_ITER", 1)
    with pytest.raises(NotConverged, match="^attribute 0: no convergence in 1 "):
        fit_one(x, y)
