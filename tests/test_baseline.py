import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit

from latentaxes import baseline, oracle
from latentaxes.errors import (DimensionMismatch, NonFinite, SingleClass,
                               TooFewSamples)


def fit_one(x, labels):
    """The unit direction of one attribute whose raw scores are labels."""
    return baseline.fit_all_directions(x, labels[:, None]).units[0]


def reference_unit(x, y):
    """The standardized ridge system solved independently of baseline, as
    the least-squares problem [xs; sqrt(n * FIT_L2) I] w ~ [y - mean(y); 0]
    on the whole standardized design; returns w / sigma at unit norm."""
    sigma = x.std(axis=0)
    sigma[sigma == 0] = 1.0
    xs = (x - x.mean(axis=0)) / sigma
    n, m = xs.shape
    design = np.vstack([xs, np.sqrt(n * baseline.FIT_L2) * np.eye(m)])
    target = np.concatenate([y - y.mean(), np.zeros(m)])
    unit = scipy.linalg.lstsq(design, target)[0] / sigma
    return unit / np.linalg.norm(unit)


def test_separable_toy_direction():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 2))
    labels = (x[:, 0] > 0).astype(float)
    unit = fit_one(x, labels)
    assert abs(abs(unit[0]) - 1.0) <= 0.05
    assert abs(unit[1]) <= 0.05


def test_label_flip_negates_direction():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 4))
    labels = (x @ np.array([1.0, -0.5, 0, 0]) > 0).astype(float)
    u1 = fit_one(x, labels)
    u2 = fit_one(x, 1 - labels)
    np.testing.assert_allclose(u1, -u2, atol=1e-9)


def test_duplicated_dataset_same_direction():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 3))
    labels = (x[:, 1] > 0.2).astype(float)
    u1 = fit_one(x, labels)
    u2 = fit_one(np.vstack([x, x]), np.concatenate([labels, labels]))
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


@pytest.mark.parametrize("case", ["noisy", "near-separable", "large-offset",
                                  "raw-scores"])
def test_fit_is_the_ridge_least_squares_solution(case):
    rng = np.random.default_rng(20)
    if case == "near-separable":
        x = rng.normal(size=(2000, 4))
        y = (x[:, 0] > 0).astype(float)
    elif case == "noisy":
        x = rng.normal(size=(600, 5)) * [1.0, 3.0, 0.2, 1.0, 5.0] + [0, 4, -2, 1, 10]
        logits = 1.5 * (x[:, 0] - 0.3 * x[:, 1] + 2.0 * x[:, 2])
        y = (rng.random(600) < expit(logits - logits.mean())).astype(float)
    else:
        # raw coordinates lose this solution to cancellation in the covariance
        x = rng.normal(size=(600, 4)) + [0.0, 1e5, 0.0, 0.0]
        logits = 1.5 * (x[:, 0] - 0.8 * (x[:, 1] - 1e5) + 0.5 * x[:, 2])
        y = expit(logits)
        if case == "large-offset":
            y = (rng.random(600) < y).astype(float)
    np.testing.assert_allclose(fit_one(x, y), reference_unit(x, y), rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("seed", [7, 11, 13])
def test_desk_units_lie_along_the_mixed_attribute_directions(seed):
    # attribute k's score is a sigmoid of row k of mix @ attr_directions
    # applied to the latent, so that row is the direction to recover
    world = oracle.make_world(32, 5, 8, correlated=True, seed=seed)
    latents, attrs = oracle.build_dataset(world, 20000, seed=8)
    units = baseline.fit_all_directions(latents, attrs).units
    planted = world.mix @ world.attr_directions
    planted /= np.linalg.norm(planted, axis=1, keepdims=True)
    angles = np.degrees(np.arccos(np.clip((units * planted).sum(axis=1), -1, 1)))
    assert angles.max() <= 1.5, f"angles {np.round(angles, 2)} degrees"


def test_constant_column_gets_zero_weight():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(400, 3))
    y = (x[:, 0] + 0.5 * x[:, 2] > 0).astype(float)
    x[:, 1] = 4.0
    exact = fit_one(x, y)
    assert np.isfinite(exact).all()
    assert abs(exact[1]) <= 1e-12
    # constants whose column mean is a few ulps off, so that their centred
    # values are not exactly 0
    for value in (0.1, 0.3):
        x[:, 1] = value
        unit = fit_one(x, y)
        np.testing.assert_allclose(unit, exact, rtol=0, atol=1e-12)
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


def test_fit_all_names_the_failing_attribute():
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


@pytest.mark.parametrize("n", [0, 1])
def test_fit_all_refuses_fewer_than_two_rows_before_any_reduction(n):
    rng = np.random.default_rng(29)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a reduction over no rows warns
        with pytest.raises(TooFewSamples, match="^the linear baseline needs "
                           f"at least 2 rows, got {n}$"):
            baseline.fit_all_directions(rng.normal(size=(n, 4)),
                                        rng.random(size=(n, 3)))


def test_fit_all_solves_once_for_every_attribute(monkeypatch):
    # one m-by-m solve takes every attribute's right-hand side, and each
    # direction still agrees with the fit of its attribute alone
    rng = np.random.default_rng(28)
    x = rng.normal(size=(5000, 6)) * [1.0, 2.0, 0.5, 1.0, 3.0, 1.0] + 7.0
    attrs = expit(x[:, :3] - 7.0 + rng.normal(size=(5000, 3)))
    solve, shapes = np.linalg.solve, []

    def counting_solve(a, b):
        shapes.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    editor = baseline.fit_all_directions(x, attrs)
    assert shapes == [(6, 3)]
    for k in range(3):
        np.testing.assert_allclose(editor.units[k], fit_one(x, attrs[:, k]),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(editor.units[k],
                                   reference_unit(x, attrs[:, k]),
                                   rtol=0, atol=1e-9)


def test_desk_fit_peak_memory(traced_peak):
    # the fit holds a centred BLOCK_ROWS-row block of latents and one of
    # scores, and peaks at about 0.6 MiB; an n-by-m float64 temporary
    # (5 MiB) beside them would exceed the bound
    world = oracle.make_world(32, 5, 8, correlated=True, seed=7)
    latents, attrs = oracle.build_dataset(world, 20000, seed=8)
    _, peak = traced_peak(baseline.fit_all_directions, latents, attrs)
    assert peak <= 5.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"
