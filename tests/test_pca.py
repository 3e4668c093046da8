import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentaxes import pca
from latentaxes.errors import ConfigInvalid, DimensionMismatch, TooFewSamples


@pytest.fixture(scope="module")
def gaussian_model():
    rng = np.random.default_rng(42)
    data = rng.normal(size=(500, 12)) * np.linspace(3, 0.5, 12)
    return pca.fit_pca(data, split=4), data


def test_orthonormal_basis(gaussian_model):
    model, _ = gaussian_model
    gram = model.basis.T @ model.basis
    assert np.abs(gram - np.eye(model.dim)).max() <= 1e-8


def test_eigenvalues_descending_and_trace(gaussian_model):
    model, data = gaussian_model
    assert (np.diff(model.eigenvalues) <= 1e-12).all()
    centered = data - data.mean(axis=0)
    trace = np.trace(centered.T @ centered / (data.shape[0] - 1))
    assert abs(model.eigenvalues.sum() - trace) <= 1e-6 * trace


def test_planted_covariance_recovered():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(1000, 2)) * np.array([2.0, 1.0])  # cov diag(4,1)
    model = pca.fit_pca(data, split=1)
    assert abs(model.eigenvalues[0] - 4.0) <= 0.6
    assert abs(model.eigenvalues[1] - 1.0) <= 0.15
    assert abs(abs(model.basis[0, 0]) - 1.0) <= 0.1  # axis-aligned
    frac = pca.explained_variance_fraction(model)
    assert abs(frac - 0.8) <= 0.05


def test_determinism(gaussian_model):
    _, data = gaussian_model
    m1 = pca.fit_pca(data, 4)
    m2 = pca.fit_pca(data, 4)
    np.testing.assert_array_equal(m1.basis, m2.basis)
    np.testing.assert_array_equal(m1.eigenvalues, m2.eigenvalues)


def test_project_reconstruct_round_trip(gaussian_model):
    model, data = gaussian_model
    w = data[17]
    split = pca.project(model, w)
    assert split.top.shape == (4,)
    assert split.residual.shape == (8,)
    back = pca.reconstruct(model, split)
    assert np.abs(back - w).max() <= 1e-8


def test_mean_maps_to_origin(gaussian_model):
    model, _ = gaussian_model
    split = pca.project(model, model.mean)
    assert np.abs(split.top).max() <= 1e-10
    assert np.abs(split.residual).max() <= 1e-10


def test_basis_vector_projects_to_unit_coordinate(gaussian_model):
    model, _ = gaussian_model
    split = pca.project(model, model.mean + model.basis[:, 0])
    expected = np.zeros(4)
    expected[0] = 1.0
    np.testing.assert_allclose(split.top, expected, atol=1e-10)
    np.testing.assert_allclose(split.residual, 0.0, atol=1e-10)


def test_reconstruct_zeros_gives_mean(gaussian_model):
    model, _ = gaussian_model
    back = pca.reconstruct(model, pca.PcaSplit(np.zeros(4), np.zeros(8)))
    np.testing.assert_allclose(back, model.mean, atol=1e-12)


def test_scaling_linearity(gaussian_model):
    model, data = gaussian_model
    split = pca.project(model, data[3])
    one = pca.reconstruct(model, pca.PcaSplit(split.top, np.zeros(8)))
    two = pca.reconstruct(model, pca.PcaSplit(2 * split.top, np.zeros(8)))
    np.testing.assert_allclose(two - model.mean, 2 * (one - model.mean), atol=1e-9)


def test_explained_variance_full(gaussian_model):
    _, data = gaussian_model
    model = pca.fit_pca(data, split=data.shape[1])
    assert pca.explained_variance_fraction(model) == pytest.approx(1.0)


def test_zero_variance_fallback():
    data = np.tile([1.0, 2.0, 3.0], (5, 1))
    model = pca.fit_pca(data, 2)
    np.testing.assert_array_equal(model.eigenvalues, 0.0)
    np.testing.assert_array_equal(model.basis, np.eye(3))
    np.testing.assert_array_equal(model.mean, [1.0, 2.0, 3.0])
    # no variance at all: the split explains all of it
    assert pca.explained_variance_fraction(model) == 1.0


@pytest.mark.parametrize("shape, split, message", [
    ((5, 3, 2), 1, "data must be 2-D (samples x features)"),
    ((5, 3), 0, "split 0 out of range for dim 3"),
    ((5, 3), 4, "split 4 out of range for dim 3")])
def test_fit_refuses_data_not_2d_or_a_split_outside_1_to_m(shape, split,
                                                           message):
    data = np.random.default_rng(5).normal(size=shape)
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        pca.fit_pca(data, split)


def test_single_sample_rejected():
    with pytest.raises(TooFewSamples, match="^PCA needs at least 2 samples$"):
        pca.fit_pca(np.ones((1, 3)), 1)


def test_dimension_mismatch(gaussian_model):
    model, _ = gaussian_model
    with pytest.raises(DimensionMismatch):
        pca.project(model, np.zeros(5))


@pytest.mark.parametrize("w, top, residual", [
    ((), (), ()), ((2, 5, 12), (2, 5, 4), (2, 5, 8))])
def test_project_and_reconstruct_refuse_inputs_not_1d_or_2d(gaussian_model,
                                                            w, top, residual):
    model, _ = gaussian_model  # m = 12, split 4
    with pytest.raises(DimensionMismatch, match=re.escape(f"shape {w}")):
        pca.project(model, np.ones(w))
    with pytest.raises(DimensionMismatch, match=re.escape(f"shape {top}")):
        pca.reconstruct(model, pca.PcaSplit(np.ones(top), np.ones(residual)))


@pytest.mark.parametrize("top, residual", [
    ((4,), (2, 8)), ((2, 4), (8,)), ((3, 4), (2, 8))])
def test_reconstruct_refuses_top_and_residual_that_do_not_pair(
        gaussian_model, top, residual):
    model, _ = gaussian_model  # m = 12, split 4
    with pytest.raises(DimensionMismatch, match=re.escape(
            f"top of shape {top} and residual of shape {residual} ")):
        pca.reconstruct(model, pca.PcaSplit(np.ones(top), np.ones(residual)))


def test_one_vector_keeps_the_bits_of_the_matmul(gaussian_model):
    model, data = gaussian_model
    for w in data[:5]:
        split = pca.project(model, w)
        t = (w - model.mean) @ model.basis
        assert np.concatenate([split.top, split.residual]).tobytes() == t.tobytes()
        back = pca.reconstruct(model, split)
        assert back.tobytes() == (model.mean + t @ model.basis.T).tobytes()


def test_batch_project(gaussian_model):
    model, data = gaussian_model
    split = pca.project(model, data[:10])
    assert split.top.shape == (10, 4)
    back = pca.reconstruct(model, split)
    np.testing.assert_allclose(back, data[:10], atol=1e-8)


@pytest.fixture(scope="module")
def desk_model():
    # the desk shape: m = 32, d = 16, 20000 rows and one more
    rng = np.random.default_rng(8)
    data = rng.normal(size=(20001, 32)) * np.linspace(4, 0.5, 32) + 1.5
    return pca.fit_pca(data[:20000], split=16), data


BLOCK = pca.BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 7, 99, BLOCK, 2 * BLOCK, 2 * BLOCK + 1, 20000,
                               20001])
def test_blocked_project_has_the_bits_of_the_one_shot_product(desk_model, n):
    # training reads these bits: a block of a few rows would change them
    model, data = desk_model
    w = data[:n]
    split = pca.project(model, w)
    t = (w - model.mean) @ model.basis
    assert np.array_equal(split.top, t[:, :16])
    assert np.array_equal(split.residual, t[:, 16:])
    for part in (split.top, split.residual):  # neither keeps the other alive
        assert part.flags.c_contiguous and part.base is None


def test_desk_project_peak_memory(desk_model, traced_peak):
    # the two outputs are 4.9 MiB; one more n-by-m temporary (4.9 MiB) would
    # exceed the bound, a block's two temporaries (at most 1 MiB) do not
    model, data = desk_model
    w = data[:20000]
    split, peak = traced_peak(pca.project, model, w)
    assert split.top.nbytes + split.residual.nbytes == w.nbytes
    assert peak <= 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_save_load_round_trip(gaussian_model, tmp_path):
    model, data = gaussian_model
    pca.save_pca(model, tmp_path)
    loaded = pca.load_pca(tmp_path)
    np.testing.assert_array_equal(loaded.basis, model.basis)
    np.testing.assert_array_equal(loaded.mean, model.mean)
    assert loaded.split == model.split


@pytest.mark.parametrize("text", ["{", "[4]", "{}", '{"d": 4.0}', '{"d": "4"}',
                                  '{"d": 0}', '{"d": -3}', '{"d": 99}',
                                  '{"d": 4, "split": 4}'])
def test_load_refuses_malformed_meta(gaussian_model, tmp_path, text):
    pca.save_pca(gaussian_model[0], tmp_path)
    (tmp_path / "pca_meta.json").write_text(text)
    with pytest.raises(ConfigInvalid, match="pca_meta.json"):
        pca.load_pca(tmp_path)


# Invariance of the fit under an orthogonal rotation Q and a scaling c of
# the data (rows x -> c Q x), on data whose covariance has distinct
# eigenvalues, so that each eigenvector is defined up to its sign.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def data_with_distinct_eigenvalues(draw):
    """(data, Q, c, split): the covariance of data is exactly V diag(s**2) V'
    with s[i] / s[i + 1] >= 1.5, and Q is a random orthogonal matrix."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(m + 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratio = draw(st.floats(1.5, 2.0))
    s = draw(st.floats(0.1, 10.0)) * ratio ** -np.arange(m)
    z = rng.normal(size=(n, m))
    white, _ = np.linalg.qr(z - z.mean(axis=0))  # centred orthonormal columns
    v, _ = np.linalg.qr(rng.normal(size=(m, m)))
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    data = np.sqrt(n - 1) * (white * s) @ v.T + rng.normal(scale=3.0, size=m)
    c = draw(st.floats(1e-2, 1e2)) * draw(st.sampled_from([-1.0, 1.0]))
    return data, q, c, draw(st.integers(1, m))


@PROPERTY
@given(case=data_with_distinct_eigenvalues())
def test_eigenvalues_scale_by_c_squared(case):
    data, q, c, split = case
    base = pca.fit_pca(data, split)
    moved = pca.fit_pca(c * data @ q.T, split)
    np.testing.assert_allclose(moved.eigenvalues, c**2 * base.eigenvalues,
                               rtol=1e-9)


@PROPERTY
@given(case=data_with_distinct_eigenvalues())
def test_basis_is_equivariant_up_to_column_sign(case):
    data, q, c, split = case
    base = pca.fit_pca(data, split)
    moved = pca.fit_pca(c * data @ q.T, split)
    rotated = q @ base.basis
    signs = np.sign(np.sum(rotated * moved.basis, axis=0))
    assert (signs != 0).all()
    np.testing.assert_allclose(moved.basis, rotated * signs, atol=1e-9)
    np.testing.assert_allclose(moved.mean, c * q @ base.mean,
                               atol=1e-12 * np.abs(c * data).max())


@PROPERTY
@given(case=data_with_distinct_eigenvalues())
def test_reconstruct_inverts_project(case):
    data, q, c, split = case
    w = c * data @ q.T
    model = pca.fit_pca(w, split)
    back = pca.reconstruct(model, pca.project(model, w))
    assert np.abs(back - w).max() <= 1e-9 * np.abs(w).max()
