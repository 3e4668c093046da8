import json
import re
import warnings

import numpy as np
import pytest

from latentaxes import evaluation
from latentaxes.errors import (AllZeroEmbeddings, DimensionMismatch, NonPSD,
                               TooFewSamples)
from latentaxes.evaluation import (
    EditPairs,
    build_edit_pairs,
    frechet_distance,
    identity_similarity,
    jsonable,
    off_diagonal_sum,
    score_methods,
    variation_matrix,
)


def make_pairs(neg, pos):
    return EditPairs(negatives=neg, positives=pos, n_negatives=len(neg))


class TestFrechet:
    def test_identical_sets(self):
        x = np.random.default_rng(0).normal(size=(200, 4))
        assert frechet_distance(x, x) <= 1e-6

    def test_one_dimensional_closed_form(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=(50000, 1))
        b = rng.normal(2.0, 1.0, size=(50000, 1))
        # (mu diff)^2 + (sigma diff)^2 = 4
        assert frechet_distance(a, b) == pytest.approx(4.0, rel=0.05)

    def test_mean_shift_identity_covariances(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20000, 3))
        b = rng.normal(size=(20000, 3))
        b[:, 0] += 1.0
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=0.05)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(500, 4)) @ np.diag([1, 2, 0.5, 1.5])
        b = rng.normal(size=(500, 4)) + 0.3
        assert abs(frechet_distance(a, b) - frechet_distance(b, a)) <= 1e-9

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            frechet_distance(np.ones((3, 4)), np.ones((100, 4)))

    @pytest.mark.parametrize("shape_a, shape_b", [((100, 3), (100, 4)),
                                                  ((100,), (100,))],
                             ids=["widths-3-and-4", "1-d"])
    def test_sets_not_rows_of_one_width_are_a_dimension_mismatch(
            self, shape_a, shape_b):
        rng = np.random.default_rng(5)
        with pytest.raises(DimensionMismatch, match=re.escape(
                f"sets of shapes {shape_a} and {shape_b} are not rows of one "
                "width")):
            frechet_distance(rng.normal(size=shape_a), rng.normal(size=shape_b))

    def test_significantly_negative_eigenvalue_is_non_psd(self):
        # roundoff below the tolerance is clamped later, not refused
        evaluation._check_psd(np.array([-1e-7, 0.5, 1.0]))
        with pytest.raises(NonPSD, match="significantly negative eigenvalues"):
            evaluation._check_psd(np.array([-1e-3, 0.5, 1.0]))


class TestVariationMatrix:
    def test_zero_for_identical_pairs(self):
        w = np.random.default_rng(4).normal(size=(10, 6))
        classify = lambda x: np.abs(np.tanh(x[:, :2]))
        mat = variation_matrix([make_pairs(w, w), make_pairs(w, w)], classify)
        np.testing.assert_allclose(mat, 0.0)

    def test_empty_row_is_nan(self):
        w = np.random.default_rng(5).normal(size=(8, 4))
        empty = EditPairs(np.empty((0, 4)), np.empty((0, 4)), 5)
        classify = lambda x: np.abs(np.tanh(x[:, :2]))
        mat = variation_matrix([make_pairs(w, w), empty], classify)
        assert np.isnan(mat[1]).all()
        assert np.isfinite(mat[0]).all()

    def test_diagonal_reflects_edit(self):
        neg = np.full((6, 2), -1.0)
        pos = np.full((6, 2), 1.0)
        classify = lambda x: 1 / (1 + np.exp(-3 * x))
        pairs = [make_pairs(neg, pos),
                 make_pairs(neg[:, ::-1], pos[:, ::-1])]
        mat = variation_matrix(pairs, classify)
        assert (np.diag(mat) >= 0.4).all()


class TestOffDiagonalSum:
    def test_diagonal_matrix(self):
        assert off_diagonal_sum(np.eye(4)) == 0.0

    def test_hand_value(self):
        mat = np.array([[1.0, 0.2], [-0.3, 1.0]])
        assert off_diagonal_sum(mat) == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_matches_loop_reference(self, k):
        mat = np.random.default_rng(k).normal(size=(k, k))
        expected = sum(abs(mat[i, j]) for i in range(k) for j in range(k) if i != j)
        # numpy sums in another order: k*k rounding steps of at most eps each
        assert off_diagonal_sum(mat) == pytest.approx(expected, rel=k * k * 2.2e-16)


class TestIdentity:
    def test_identical_pairs(self):
        w = np.random.default_rng(6).normal(size=(10, 5))
        assert identity_similarity(make_pairs(w, w), lambda x: x) == pytest.approx(1.0)

    def test_antipodal(self):
        w = np.random.default_rng(7).normal(size=(10, 5))
        assert identity_similarity(make_pairs(w, -w), lambda x: x) == pytest.approx(-1.0)

    def test_zero_embeddings_skipped(self):
        w = np.vstack([np.zeros((1, 3)), np.ones((3, 3))])
        sim = identity_similarity(make_pairs(w, w), lambda x: x)
        assert sim == pytest.approx(1.0)

    def test_all_zero_raises(self):
        w = np.zeros((4, 3))
        with pytest.raises(AllZeroEmbeddings):
            identity_similarity(make_pairs(w, w), lambda x: x)


def always_succeeds(latents, k, classify_fn, threshold):
    return latents + 10.0, np.ones(latents.shape[0], bool)


def score_one(search, classify, sample, n, seed, embed=lambda w: w):
    """The report block of one method scored on one attribute."""
    return score_methods({"stub": search}, classify, embed, sample, 1, n=n,
                         threshold=0.9, seed=seed)["stub"]


class TestBuildEditPairs:
    def test_collects_negative_pairs(self):
        classify = lambda w: 1 / (1 + np.exp(-w[:, :1]))
        sample = lambda n, s: np.random.default_rng(s).normal(size=(n, 4))
        block = score_one(always_succeeds, classify, sample, n=200, seed=1)
        n_neg = np.count_nonzero(classify(sample(200, 1))[:, 0] < 0.5)
        assert block["n_success"] == block["n_negatives"] == [n_neg]
        assert n_neg > 0
        assert block["well_edited_rates"] == [1.0]

    def test_no_negatives_warns(self):
        classify = lambda w: np.full((w.shape[0], 1), 0.99)
        sample = lambda n, s: np.random.default_rng(s).normal(size=(n, 4))
        searched = []

        def search(latents, k, classify_fn, threshold):
            searched.append(latents.shape)
            return always_succeeds(latents, k, classify_fn, threshold)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = score_one(search, classify, sample, n=50, seed=2)
            pairs = build_edit_pairs(search, classify, np.empty((0, 4)), k=0)
        # the empty batch goes through the search
        assert searched == [(0, 4), (0, 4)]
        assert pairs.negatives.shape == pairs.positives.shape == (0, 4)
        assert pairs.n_negatives == pairs.n_success == 0
        assert np.isnan(pairs.success_rate)
        assert block["n_negatives"] == block["n_success"] == [0]
        assert np.isnan(block["well_edited_rates"][0])

    def test_seeded_reproducible(self):
        classify = lambda w: 1 / (1 + np.exp(-w[:, :1]))
        sample = lambda n, s: np.random.default_rng(s).normal(size=(n, 3))
        runs = []
        for _ in range(2):
            searched = []

            def search(latents, k, classify_fn, threshold):
                searched.append(latents)
                return always_succeeds(latents, k, classify_fn, threshold)

            block = score_one(search, classify, sample, n=100, seed=3)
            runs.append((searched[0], repr(block)))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


REPORT_KEYS = {"well_edited_rates", "n_negatives", "n_success",
               "variation_matrix", "off_diagonal_sum", "identity_similarity",
               "frechet_distances"}


class TestScoreMethods:
    # attribute 0 succeeds on every negative, attribute 1 on exactly m of
    # them, attribute 2 never
    M, K = 4, 3

    def classify(self, w):
        return 1 / (1 + np.exp(-w[:, :self.K]))

    def sample(self, n, seed):
        return np.random.default_rng(seed).normal(size=(n, self.M))

    def search(self, latents, k, classify_fn, threshold):
        success = np.zeros(latents.shape[0], bool)
        success[:{0: latents.shape[0], 1: self.M, 2: 0}[k]] = True
        edited = latents.copy()
        edited[success, k] = 3.0
        return edited, success

    def negatives(self, k, n, seed):
        latents = self.sample(n, seed + k)
        return latents[self.classify(latents)[:, k] < 0.5]

    def test_unknown_figures(self):
        embed = lambda w: w
        block = score_methods({"stub": self.search}, self.classify, embed,
                              self.sample, self.K, n=200, threshold=0.9,
                              seed=10)["stub"]
        assert set(block) == REPORT_KEYS
        assert block["n_success"] == [block["n_negatives"][0], self.M, 0]
        mat = block["variation_matrix"]
        assert np.isnan(mat[2]).all() and np.isfinite(mat[:2]).all()
        # the NaN row counts as 0
        off = sum(abs(mat[i, j]) for i in range(2) for j in range(self.K)
                  if i != j)
        assert block["off_diagonal_sum"] == pytest.approx(off, rel=1e-12)
        pairs = [build_edit_pairs(self.search, self.classify,
                                  self.negatives(k, 200, 10), k)
                 for k in range(2)]
        assert block["identity_similarity"] == pytest.approx(
            np.mean([identity_similarity(p, embed) for p in pairs]))
        # n_success <= m: no Fréchet distance
        frechet = block["frechet_distances"]
        assert frechet[0] == frechet_distance(pairs[0].negatives,
                                              pairs[0].positives)
        assert np.isnan(frechet[1]) and np.isnan(frechet[2])
        assert set(jsonable(block)) == REPORT_KEYS

    def test_one_draw_per_attribute_shared_by_every_method(self):
        # each attribute's latents are drawn and classified once, not once
        # per method, and every method searches the same negatives
        drawn, classified, searched = [], [], {"a": [], "b": []}

        def sample(n, seed):
            drawn.append(seed)
            return self.sample(n, seed)

        def classify(w):
            classified.append(w)
            return self.classify(w)

        def recording(name):
            def search(latents, k, classify_fn, threshold):
                searched[name].append(latents)
                return self.search(latents, k, classify_fn, threshold)
            return search

        blocks = score_methods({"a": recording("a"), "b": recording("b")},
                               classify, lambda w: w, sample, self.K, n=200,
                               threshold=0.9, seed=10)
        assert list(blocks) == ["a", "b"]
        assert drawn == [10, 11, 12]
        on_samples = [w for w in classified if w.shape[0] == 200]
        assert len(on_samples) == self.K
        for k in range(self.K):
            assert searched["a"][k] is searched["b"][k]
            np.testing.assert_array_equal(searched["a"][k],
                                          self.negatives(k, 200, 10))
        assert blocks["a"]["n_negatives"] == blocks["b"]["n_negatives"]
        assert repr(blocks["a"]) == repr(blocks["b"])


class TestReport:
    def test_empty_metrics_valid_json(self):
        # None, bools, ints, strings and an empty dict pass through
        value = {"config": None, "csv": True, "n": 10, "workspace": "ws",
                 "methods": {}}
        report = jsonable(value)
        assert report == value
        assert json.loads(json.dumps(report)) == value

    def test_round_trips_and_audit_fields(self):
        mat = np.array([[0.5, np.nan], [0.1, 0.4]])
        report = jsonable({"seeds": {"eval": 1}, "amplitude_grid": (0.55, 0.9),
                           "threshold": 0.9, "methods": {"ae": {
                               "well_edited_rates": [0.9, float("nan")],
                               "variation_matrix": mat}}})
        # a tuple becomes a list, and a NaN in a list, an ndarray and a
        # nested dict becomes null
        expected = {"seeds": {"eval": 1}, "amplitude_grid": [0.55, 0.9],
                    "threshold": 0.9, "methods": {"ae": {
                        "well_edited_rates": [0.9, None],
                        "variation_matrix": [[0.5, None], [0.1, 0.4]]}}}
        assert report == expected
        assert json.loads(json.dumps(report)) == expected
