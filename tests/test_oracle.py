import json

import numpy as np
import pytest

from latentaxes import oracle
from latentaxes.errors import ConfigInvalid


@pytest.fixture(scope="module")
def world():
    return oracle.make_world(32, 5, 8, correlated=False, seed=3)


def test_orthogonality_invariants(world):
    a = world.attr_directions
    np.testing.assert_allclose(a @ a.T, np.eye(5), atol=1e-8)
    q = world.identity_basis
    np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-8)
    assert np.abs(a @ q).max() <= 1e-8


def test_same_seed_same_world(world):
    other = oracle.make_world(32, 5, 8, correlated=False, seed=3)
    np.testing.assert_array_equal(other.attr_directions, world.attr_directions)


def test_dimension_guard():
    with pytest.raises(ConfigInvalid, match="need m > K \\+ q"):
        oracle.make_world(10, 5, 8)


@pytest.mark.parametrize("k, q", [(0, 8), (-1, 8), (5, -1), (5, 0)])
def test_make_world_refuses_no_attributes_or_negative_q(k, q):
    with pytest.raises(ConfigInvalid, match=f"got K={k}, q={q}"):
        oracle.make_world(32, k, q)


def test_correlated_world_plants_correlations():
    world = oracle.make_world(32, 5, 8, correlated=True, seed=4)
    attrs = oracle.classify(world, oracle.sample_w(world, 10000, 5))
    corr = np.corrcoef(attrs, rowvar=False)
    adjacent = np.diag(corr, k=1)
    assert (adjacent > 0.3).all() and (adjacent < 0.6).all()


def test_sample_mean_near_zero(world):
    w = oracle.sample_w(world, 20000, 6)
    assert np.abs(w.mean(axis=0)).max() < 5 / np.sqrt(20000)


def test_sample_deterministic(world):
    np.testing.assert_array_equal(oracle.sample_w(world, 10, 7),
                                  oracle.sample_w(world, 10, 7))


def test_tanh_mixed_differs_from_linear():
    w1 = oracle.make_world(16, 3, 4, seed=8, mapping_kind="linear")
    w2 = oracle.make_world(16, 3, 4, seed=8, mapping_kind="tanh-mixed")
    a = oracle.sample_w(w1, 5, 9)
    b = oracle.sample_w(w2, 5, 9)
    assert np.linalg.norm(a - b) > 0


def test_unknown_mapping_kind_rejected():
    with pytest.raises(ConfigInvalid, match="bogus"):
        oracle.make_world(16, 3, 4, mapping_kind="bogus")


def test_classify_at_origin(world):
    np.testing.assert_allclose(oracle.classify(world, np.zeros(32)), 0.5)


def test_classify_along_planted_direction(world):
    for c in (1.0, 3.0, 10.0):
        a = oracle.classify(world, c * world.attr_directions[2])
        assert a[2] > oracle.classify(world, (c - 0.5) * world.attr_directions[2])[2]
        others = np.delete(a, 2)
        np.testing.assert_allclose(others, 0.5, atol=1e-12)
    assert oracle.classify(world, 10.0 * world.attr_directions[2])[2] > 0.999


def test_identity_unmoved_by_attribute_steps(world):
    rng = np.random.default_rng(10)
    w = rng.normal(size=32)
    moved = w + 2.5 * world.attr_directions[1]
    np.testing.assert_allclose(oracle.embed_identity(world, moved),
                               oracle.embed_identity(world, w), atol=1e-8)


def test_identity_basis_column_coordinates(world):
    e = oracle.embed_identity(world, world.identity_basis[:, 3])
    expected = np.zeros(8)
    expected[3] = 1.0
    np.testing.assert_allclose(e, expected, atol=1e-10)


def test_build_dataset_shapes(world):
    latents, attrs = oracle.build_dataset(world, 100, seed=11)
    assert latents.shape == (100, 32)
    assert attrs.shape == (100, 5)
    assert (attrs > 0).all() and (attrs < 1).all()


def test_save_load_round_trip(world, tmp_path):
    oracle.save_world(world, tmp_path)
    loaded = oracle.load_world(tmp_path)
    np.testing.assert_array_equal(loaded.attr_directions, world.attr_directions)
    np.testing.assert_array_equal(loaded.identity_basis, world.identity_basis)
    assert loaded.mapping_kind == world.mapping_kind


@pytest.mark.parametrize("meta", [{"mapping_kind": "bogus"},
                                  {"seed": "3"}, {"mapping_kind": None},
                                  {"n_attributes": 5}])
def test_load_world_refuses_unknown_or_ill_typed_meta(world, tmp_path, meta):
    oracle.save_world(world, tmp_path)
    meta_path = tmp_path / "world_meta.json"
    saved = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**saved, **meta}))
    with pytest.raises(ConfigInvalid, match="world_meta.json"):
        oracle.load_world(tmp_path)
