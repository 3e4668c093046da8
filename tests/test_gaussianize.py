import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from latentaxes import gaussianize as gz
from latentaxes import oracle
from latentaxes.errors import (DimensionMismatch, NonFinite, OutOfDomain,
                               TooFewSamples)


def normal_quantile_oracle(p, lo=-40.0, hi=40.0):
    """Independent oracle: bisection on the numerically integrated density."""
    def cdf(x):
        if x >= 0:
            return 0.5 + quad(lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), 0, x)[0]
        return 0.5 - quad(lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), x, 0)[0]

    for _ in range(80):
        mid = (lo + hi) / 2
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestInvNormCdf:
    def test_half_is_zero(self):
        assert gz.inv_norm_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_known_quantile(self):
        oracle = normal_quantile_oracle(0.975)
        assert oracle == pytest.approx(1.95996398, abs=1e-7)
        assert gz.inv_norm_cdf(0.975) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("p", [1e-10, 1e-6, 0.01, 0.3, 0.7, 0.99, 1 - 1e-6])
    def test_against_oracle(self, p):
        assert gz.inv_norm_cdf(p) == pytest.approx(normal_quantile_oracle(p), abs=1e-7)

    def test_antisymmetry(self):
        # 2**-30 is dyadic, so 1 - p is exactly representable even deep in
        # the tail; the other points are moderate enough for 1e-9.
        for p in (2.0**-30, 1e-4, 0.2, 0.49):
            assert abs(gz.inv_norm_cdf(1 - p) + gz.inv_norm_cdf(p)) <= 1e-9

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(OutOfDomain):
                gz.inv_norm_cdf(p)

    def test_vectorized(self):
        p = np.array([0.1, 0.5, 0.9])
        out = gz.inv_norm_cdf(p)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.0, abs=1e-12)


def reference_points():
    """Over 10^6 probabilities: uniform on (0, 1), log-uniform in both tails
    (down to 1e-300 below, to the spacing of 1 above), dense around the
    branch points exp(-2), 1 - exp(-2) and exp(-32), and the midrank
    probabilities of the acceptance suite's desk attributes."""
    rng = np.random.default_rng(0)
    tails = 10.0 ** -rng.uniform(0.0, 300.0, 300_000)
    branches = np.exp(-np.array([2.0, 2.0, 32.0]))[:, None] * (
        1.0 + rng.uniform(-1e-3, 1e-3, (3, 50_000)))
    branches[1] = 1.0 - branches[1]
    world = oracle.make_world(32, 5, 8, correlated=True, seed=7)
    _, attrs = oracle.build_dataset(world, 20000, seed=8)
    t = gz.fit_transform(attrs)
    desk = [gz._midrank_probs(t.tables[k], attrs[:, k]) for k in range(5)]
    p = np.concatenate([rng.random(400_000), tails,
                        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 300_000),
                        branches.ravel(), *desk])
    return p[(p > 0.0) & (p < 1.0)]


def test_inv_norm_cdf_matches_scipy_ndtri():
    p = reference_points()
    assert p.size >= 10**6
    ref = ndtri(p)
    # the tails take np.log where Cephes takes libm's log; the two differ by
    # an ulp on a few inputs in a thousand, and near the branch point one
    # ulp of r = sqrt(-2 log y), in [2, 4), is two ulps of the quantile, in
    # [1, 2): up to 4 ulps after the rounding of the final sums
    assert (np.abs(gz.inv_norm_cdf(p) - ref) <= 4 * np.spacing(np.abs(ref))).all()


def test_norm_cdf_matches_scipy_ndtr():
    x = np.linspace(-8.0, 8.0, 200_001)
    # erfc's argument -x / sqrt(2) is rounded: 1.3e-14 relative at x = -8
    np.testing.assert_allclose(gz.norm_cdf(x), ndtr(x), rtol=2e-14, atol=0.0)


def test_midrank_probs_equal_unsorted_searches():
    # the reference: both searches on the values in their own order
    rng = np.random.default_rng(4)
    table = np.sort(rng.integers(0, 50, 400) / 50.0)  # ties
    values = np.concatenate([rng.permutation(table), rng.uniform(-0.5, 1.5, 300),
                             [np.nan, 0.5, 0.5]])
    below = np.searchsorted(table, values, side="left")
    upto = np.searchsorted(table, values, side="right")
    n = table.size
    ref = np.clip((below + (upto - below + 1) / 2.0) / (n + 1),
                  1.0 / (2.0 * n), 1.0 - 1.0 / (2.0 * n))
    np.testing.assert_array_equal(gz._midrank_probs(table, values), ref)


class TestTransform:
    def test_fit_sorts_columns(self):
        t = gz.fit_transform(np.array([[0.1], [0.9], [0.5]]))
        np.testing.assert_array_equal(t.tables, [[0.1, 0.5, 0.9]])

    def test_fit_rejects_tiny(self):
        with pytest.raises(TooFewSamples):
            gz.fit_transform(np.array([[0.5]]))

    def test_identical_fits_identical_tables(self):
        rng = np.random.default_rng(3)
        attrs = rng.uniform(size=(100, 4))
        t1, t2 = gz.fit_transform(attrs), gz.fit_transform(attrs)
        np.testing.assert_array_equal(t1.tables, t2.tables)

    def test_median_maps_to_zero(self):
        vals = np.linspace(0.1, 0.9, 101)[:, None]
        t = gz.fit_transform(vals)
        g = gz.gaussianize_columns(t, np.array([vals[50, 0]]))
        assert g[0] == pytest.approx(0.0, abs=1e-6)

    def test_uniform_quantile(self):
        rng = np.random.default_rng(11)
        t = gz.fit_transform(rng.uniform(size=(10000, 1)))
        g = gz.gaussianize_columns(t, np.array([0.975]))
        assert g[0] == pytest.approx(1.96, abs=0.05)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        t = gz.fit_transform(rng.uniform(size=(500, 1)))
        xs = np.sort(rng.uniform(size=50))
        gs = [gz.gaussianize_columns(t, np.array([x]))[0] for x in xs]
        assert (np.diff(gs) >= 0).all()

    def test_constant_column_midrank(self):
        t = gz.fit_transform(np.full((50, 1), 0.3))
        g = gz.gaussianize_columns(t, np.array([0.3]))
        assert g[0] == pytest.approx(0.0, abs=1e-9)

    def test_tie_handling_order_independent(self):
        vals = np.array([0.2, 0.2, 0.2, 0.7, 0.7, 0.9])
        t1 = gz.fit_transform(vals[:, None])
        t2 = gz.fit_transform(vals[::-1].copy()[:, None])
        x = np.array([0.7])
        assert gz.gaussianize_columns(t1, x)[0] == gz.gaussianize_columns(t2, x)[0]

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        raw = 1 / (1 + np.exp(-2 * rng.normal(size=(5000, 2))))
        t = gz.fit_transform(raw)
        g = gz.gaussianize_columns(t, raw)
        back = gz.degaussianize_columns(t, g)
        # inverse up to quantile resolution at interior points
        interior = (raw > 0.05) & (raw < 0.95)
        assert np.abs(back - raw)[interior].max() <= 0.01

    @pytest.mark.parametrize("columns", [
        gz.gaussianize_columns, gz.degaussianize_columns])
    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2,), (4,)])
    def test_columns_refuse_another_width_than_k(self, columns, shape):
        t = gz.fit_transform(np.random.default_rng(4).uniform(size=(50, 3)))
        with pytest.raises(DimensionMismatch, match=f"^{shape[-1]} attribute "
                           "columns, but the transform has 3$"):
            columns(t, np.full(shape, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_refuses_a_non_finite_value_naming_the_row(self, bad):
        attrs = np.random.default_rng(7).uniform(size=(100, 2))
        attrs[4, 1] = bad
        with pytest.raises(NonFinite, match="^attrs row 4 is not finite$"):
            gz.fit_transform(attrs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_columns_refuse_a_non_finite_value_naming_the_row(self, bad):
        t = gz.fit_transform(np.random.default_rng(7).uniform(size=(100, 2)))
        raw = np.full((3, 2), 0.5)
        raw[2, 0] = bad
        with pytest.raises(NonFinite, match="^raw row 2 is not finite$"):
            gz.gaussianize_columns(t, raw)
        with pytest.raises(NonFinite, match="^raw row 0 is not finite$"):
            gz.gaussianize_columns(t, raw[2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_value_refuses_a_non_finite_value_naming_the_attribute(self, bad):
        t = gz.fit_transform(np.random.default_rng(7).uniform(size=(100, 2)))
        with pytest.raises(NonFinite, match=f"^attribute 1: value {bad} is not "
                           "finite$"):
            gz.gaussianize_value(t, 1, bad)

    def test_extreme_gaussian_clamps_to_table_range(self):
        rng = np.random.default_rng(1)
        t = gz.fit_transform(rng.uniform(0.2, 0.8, size=(100, 1)))
        hi = gz.degaussianize_columns(t, np.array([8.0]))
        lo = gz.degaussianize_columns(t, np.array([-8.0]))
        assert hi[0] == t.tables[0, -1]
        assert lo[0] == t.tables[0, 0]

    def test_zero_maps_near_median(self):
        rng = np.random.default_rng(2)
        t = gz.fit_transform(rng.uniform(size=(999, 1)))
        back = gz.degaussianize_columns(t, np.array([0.0]))
        assert abs(back[0] - np.median(t.tables[0])) <= 0.01

    def test_standard_normality_of_transformed_samples(self):
        rng = np.random.default_rng(13)
        raw = 1 / (1 + np.exp(-2 * rng.normal(size=(10000, 3))))
        t = gz.fit_transform(raw)
        g = gz.gaussianize_columns(t, raw)
        assert np.abs(g.mean(axis=0)).max() < 0.05
        assert ((g.std(axis=0) > 0.9) & (g.std(axis=0) < 1.1)).all()

    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(6)
        t = gz.fit_transform(rng.uniform(size=(64, 3)))
        gz.save_transform(t, tmp_path)
        loaded = gz.load_transform(tmp_path)
        np.testing.assert_array_equal(loaded.tables, t.tables)


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@PROPERTY
@given(x=st.floats(-8.0, 8.0))
def test_inv_norm_cdf_inverts_norm_cdf(x):
    p = gz.norm_cdf(x)
    # p is rounded to spacing(p), which the quantile scales by 1 / density:
    # in the upper tail that, not the quantile, limits the round trip
    density = np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
    tol = 1e-14 * max(1.0, abs(x)) + 4 * np.spacing(p) / density
    assert abs(gz.inv_norm_cdf(p) - x) <= tol


@PROPERTY
@given(ps=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   min_size=2, max_size=50))
def test_inv_norm_cdf_non_decreasing(ps):
    x = gz.inv_norm_cdf(np.sort(ps))
    assert (np.diff(x) >= 0).all()


@st.composite
def tables_and_raw(draw):
    """Attribute samples in [0, 1] and raw values: the samples themselves
    (ties included) and values inside and outside their range."""
    n, k = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    attrs = draw(arrays(np.float64, (n, k), elements=st.floats(0.0, 1.0)))
    extra = draw(arrays(np.float64, (draw(st.integers(1, 20)), k),
                        elements=st.floats(-0.5, 1.5)))
    return attrs, np.vstack([attrs, extra])


@PROPERTY
@given(case=tables_and_raw())
def test_gaussianize_columns_monotone(case):
    attrs, raw = case
    t = gz.fit_transform(attrs)
    g = gz.gaussianize_columns(t, np.sort(raw, axis=0))
    assert (np.diff(g, axis=0) >= 0).all()


@PROPERTY
@given(case=tables_and_raw())
def test_round_trip_within_table_resolution(case):
    attrs, raw = case
    t = gz.fit_transform(attrs)
    back = gz.degaussianize_columns(t, gz.gaussianize_columns(t, raw))
    for k, table in enumerate(t.tables):
        # the table entries on either side of each raw value, clamped to the
        # table's range
        below = np.searchsorted(table, raw[:, k], side="left") - 1
        above = np.searchsorted(table, raw[:, k], side="right")
        lo = table[np.maximum(below, 0)]
        hi = table[np.minimum(above, t.n - 1)]
        assert ((lo <= back[:, k]) & (back[:, k] <= hi)).all()
