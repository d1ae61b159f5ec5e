"""Elementary draw layer: determinism, clamps, and moment checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpslice.randkit import (
    NoValidCategoryError,
    RngStream,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    clamp_weights,
    sample_beta,
    sample_categorical_logweights,
    sample_dirichlet,
    sample_gamma,
    sample_normal,
    sample_uniform,
)

M = 100_000


def draws(fn, rng, m=M):
    return np.array([fn(rng) for _ in range(m)])


class _FixedUniform:
    """Stub stream whose generator returns one fixed uniform."""

    def __init__(self, value: float):
        self.gen = self
        self.value = value

    def random(self) -> float:
        return self.value


class TestRngStream:
    def test_same_seed_same_stream_bitwise_identical(self):
        a = RngStream(seed=42, stream=3)
        b = RngStream(seed=42, stream=3)
        assert [a.gen.random() for _ in range(100)] == \
               [b.gen.random() for _ in range(100)]

    def test_distinct_streams_differ(self):
        a = RngStream(seed=42, stream=0)
        b = RngStream(seed=42, stream=1)
        assert [a.gen.random() for _ in range(10)] != \
               [b.gen.random() for _ in range(10)]

    def test_distinct_seeds_differ(self):
        a = RngStream(seed=1, stream=0)
        b = RngStream(seed=2, stream=0)
        assert a.gen.random() != b.gen.random()

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           stream=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_determinism_property(self, seed, stream):
        a = RngStream(seed=seed, stream=stream)
        b = RngStream(seed=seed, stream=stream)
        assert sample_uniform(a) == sample_uniform(b)
        assert sample_beta(a, 1.0, 2.0) == sample_beta(b, 1.0, 2.0)
        assert sample_gamma(a, 3.0, 1.5) == sample_gamma(b, 3.0, 1.5)
        assert sample_normal(a, 0.0, 2.0) == sample_normal(b, 0.0, 2.0)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -2),
                                             (1.5, 0), (0, 0.5)])
    def test_bad_identifiers_rejected(self, seed, stream):
        with pytest.raises(ValueError):
            RngStream(seed=seed, stream=stream)


class TestUniform:
    def test_unit_interval_mean(self):
        rng = RngStream(seed=10)
        x = draws(lambda r: sample_uniform(r), rng)
        assert np.all((x > 0.0) & (x < 1.0))
        assert abs(x.mean() - 0.5) < 0.01

    def test_quarter_interval_support(self):
        rng = RngStream(seed=11)
        x = draws(lambda r: sample_uniform(r, 0.0, 0.25), rng, 10_000)
        assert np.all((x > 0.0) & (x < 0.25))

    def test_cdf_at_half(self):
        rng = RngStream(seed=12)
        x = draws(lambda r: sample_uniform(r), rng)
        assert abs(np.mean(x <= 0.5) - 0.5) < 0.01

    @pytest.mark.parametrize("lo,hi", [(1.0, 0.0), (0.0, 0.0),
                                       (math.inf, 1.0), (0.0, math.nan)])
    def test_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            sample_uniform(RngStream(seed=0), lo, hi)


class TestBeta:
    def test_uniform_case_mean(self):
        rng = RngStream(seed=20)
        x = draws(lambda r: sample_beta(r, 1.0, 1.0), rng)
        assert abs(x.mean() - 0.5) < 0.01

    def test_stick_prior_mean(self):
        rng = RngStream(seed=21)
        x = draws(lambda r: sample_beta(r, 1.0, 2.0), rng)
        assert abs(x.mean() - 1.0 / 3.0) < 0.01

    def test_symmetric_variance(self):
        rng = RngStream(seed=22)
        x = draws(lambda r: sample_beta(r, 5.0, 5.0), rng)
        assert abs(x.var() - 0.25 / 11.0) < 0.002

    def test_open_interval_clamp(self):
        rng = RngStream(seed=23)
        # extreme shapes push raw draws onto the endpoints; clamp keeps them off
        x = draws(lambda r: sample_beta(r, 1e-3, 1e3), rng, 20_000)
        assert np.all((x >= WEIGHT_FLOOR) & (x <= WEIGHT_CEIL))
        y = draws(lambda r: sample_beta(r, 1e3, 1e-3), rng, 20_000)
        assert np.all(y <= WEIGHT_CEIL) and np.all(y > 0.0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                     (math.inf, 1.0)])
    def test_bad_shapes(self, a, b):
        with pytest.raises(ValueError):
            sample_beta(RngStream(seed=0), a, b)


class TestGamma:
    def test_prior_mean_at_n150(self):
        rng = RngStream(seed=30)
        rate = 3.0 * math.log(150.0)
        x = draws(lambda r: sample_gamma(r, 3.0, rate), rng)
        target = 1.0 / math.log(150.0)
        assert abs(x.mean() - target) < 0.02 * target

    def test_exponential_case(self):
        rng = RngStream(seed=31)
        x = draws(lambda r: sample_gamma(r, 1.0, 1.0), rng)
        assert abs(x.mean() - 1.0) < 0.01

    def test_small_shape_mean(self):
        rng = RngStream(seed=32)
        x = draws(lambda r: sample_gamma(r, 0.5, 2.0), rng)
        assert abs(x.mean() - 0.25) < 0.005
        assert np.all(x > 0.0)

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (1.0, 0.0),
                                            (-2.0, 1.0), (1.0, math.nan)])
    def test_bad_parameters(self, shape, rate):
        with pytest.raises(ValueError):
            sample_gamma(RngStream(seed=0), shape, rate)


class TestDirichlet:
    def test_symmetric_two_component_mean(self):
        rng = RngStream(seed=40)
        x = np.array([sample_dirichlet(rng, [1.0, 1.0])[0] for _ in range(M)])
        assert abs(x.mean() - 0.5) < 0.01

    def test_occupied_plus_alpha_marginal(self):
        rng = RngStream(seed=41)
        x = np.array([sample_dirichlet(rng, [5.0, 1.0])[0] for _ in range(M)])
        assert abs(x.mean() - 5.0 / 6.0) < 0.01

    def test_simplex_sum(self):
        rng = RngStream(seed=42)
        for _ in range(1000):
            w = sample_dirichlet(rng, [0.3, 2.0, 11.0, 0.7])
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0.0)

    def test_aggregation_matches_beta_moments(self):
        # summing two coordinates of Dirichlet(a1,a2,a3) gives Beta(a1+a2, a3)
        rng = RngStream(seed=43)
        a1, a2, a3 = 2.0, 3.0, 4.0
        w = np.array([sample_dirichlet(rng, [a1, a2, a3]) for _ in range(M)])
        s = w[:, 0] + w[:, 1]
        ab = a1 + a2
        mean = ab / (ab + a3)
        var = ab * a3 / ((ab + a3) ** 2 * (ab + a3 + 1.0))
        assert abs(s.mean() - mean) < 3.0 * math.sqrt(var / M) + 1e-4
        assert abs(s.var() - var) < 0.002

    @pytest.mark.parametrize("conc", [[], [1.0], [1.0, 0.0], [1.0, -2.0],
                                      [[1.0, 2.0]], [1.0, math.inf]])
    def test_bad_concentration(self, conc):
        with pytest.raises(ValueError):
            sample_dirichlet(RngStream(seed=0), conc)

    def test_renormalized_entries_stay_in_clamp_window(self):
        # with a tiny alpha the occupied weight often rounds to 1.0 and the
        # renormalization after the first clamp pushes it back out
        w = sample_dirichlet(RngStream(seed=46), [1.0, 0.0625], batch=20_000)
        assert np.all((w >= WEIGHT_FLOOR) & (w <= WEIGHT_CEIL))
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
        assert np.any(w[:, 0] == WEIGHT_CEIL)

    def test_batch_rows_match_unbatched_draws(self):
        conc = [0.3, 2.0, 11.0, 0.7]
        batched = sample_dirichlet(RngStream(seed=44), conc, batch=5)
        rng = RngStream(seed=44)
        one_by_one = np.array([sample_dirichlet(rng, conc) for _ in range(5)])
        assert batched.shape == (5, 4)
        assert np.array_equal(batched, one_by_one)
        assert np.array_equal(sample_dirichlet(RngStream(seed=45), conc, batch=1)[0],
                              sample_dirichlet(RngStream(seed=45), conc))

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_dirichlet(RngStream(seed=0), [1.0, 1.0], batch=0)


class TestClampWeights:
    def test_matches_clip_in_place(self):
        w = np.array([0.0, 1e-320, 0.25, 1.0 - 1e-17, 1.0])
        expected = np.clip(w, WEIGHT_FLOOR, WEIGHT_CEIL)
        out = clamp_weights(w)
        assert out is w
        assert np.array_equal(w, expected)


class TestCategorical:
    def test_degenerate_support(self):
        rng = RngStream(seed=50)
        for _ in range(100):
            assert sample_categorical_logweights(rng, [0.0, -math.inf]) == 0

    def test_symmetric_pair(self):
        rng = RngStream(seed=51)
        hits = sum(sample_categorical_logweights(rng, [0.0, 0.0]) == 0
                   for _ in range(M))
        assert abs(hits / M - 0.5) < 0.01

    def test_one_three_ratio(self):
        rng = RngStream(seed=52)
        logw = [math.log(1.0), math.log(3.0)]
        hits = sum(sample_categorical_logweights(rng, logw) == 1
                   for _ in range(M))
        assert abs(hits / M - 0.75) < 0.01

    def test_shift_invariance(self):
        # same (seed, stream) and shifted weights give the identical index path
        a = RngStream(seed=53)
        b = RngStream(seed=53)
        logw = [-1.0, 0.3, -0.5]
        shifted = [w + 1234.5 for w in logw]
        for _ in range(2000):
            assert sample_categorical_logweights(a, logw) == \
                   sample_categorical_logweights(b, shifted)

    def test_huge_spread_never_picks_underflowed(self):
        rng = RngStream(seed=54)
        logw = [0.0, -800.0]
        for _ in range(5000):
            assert sample_categorical_logweights(rng, logw) == 0

    def test_all_minus_inf_raises(self):
        with pytest.raises(NoValidCategoryError):
            sample_categorical_logweights(RngStream(seed=0),
                                          [-math.inf, -math.inf])

    def test_empty_raises(self):
        with pytest.raises(NoValidCategoryError):
            sample_categorical_logweights(RngStream(seed=0), [])

    def test_zero_uniform_skips_zero_mass_first_category(self):
        # r = 0 must not select a leading category whose mass underflowed
        rng = _FixedUniform(0.0)
        assert sample_categorical_logweights(rng, [-800.0, 0.0]) == 1
        assert sample_categorical_logweights(rng, [-math.inf, -math.inf, 0.0]) == 2
        assert sample_categorical_logweights(rng, [0.0, 0.0]) == 0

    def test_rounded_up_uniform_returns_last_category_with_mass(self):
        # r equal to the total mass falls through the scan; the fallback
        # must skip trailing zero-mass categories
        rng = _FixedUniform(1.0)
        assert sample_categorical_logweights(rng, [0.0, -math.inf]) == 0
        assert sample_categorical_logweights(rng, [0.0, 0.0, -800.0, -math.inf]) == 1
        assert sample_categorical_logweights(rng, [0.0, 0.0]) == 1

    @given(logw=st.lists(st.floats(min_value=-50.0, max_value=50.0),
                         min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_returns_valid_index(self, logw, seed):
        idx = sample_categorical_logweights(RngStream(seed=seed), logw)
        assert 0 <= idx < len(logw)


class TestNormal:
    def test_standard_moments(self):
        rng = RngStream(seed=60)
        x = draws(lambda r: sample_normal(r, 0.0, 1.0), rng)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_shifted_mean(self):
        rng = RngStream(seed=61)
        x = draws(lambda r: sample_normal(r, 3.0, 1.0), rng)
        assert abs(x.mean() - 3.0) < 0.01

    def test_variance_parameterization(self):
        rng = RngStream(seed=62)
        x = draws(lambda r: sample_normal(r, 0.0, 2.0), rng)
        assert abs(x.var() - 2.0) < 0.04

    @pytest.mark.parametrize("mean,var", [(0.0, 0.0), (0.0, -1.0),
                                          (math.nan, 1.0), (0.0, math.inf)])
    def test_bad_parameters(self, mean, var):
        with pytest.raises(ValueError):
            sample_normal(RngStream(seed=0), mean, var)
