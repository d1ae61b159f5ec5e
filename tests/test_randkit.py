"""Elementary draw layer: determinism, clamps, and moment checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpslice.randkit import (
    DIRICHLET_ARRAY_MIN_K,
    DIRICHLET_RUN_MIN_LEN,
    LOG_UNDERFLOW,
    NoValidCategoryError,
    RngStream,
    SHORT_ROW_K,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    categorical_index,
    clamp_weights,
    sample_beta,
    sample_categorical_logweights,
    sample_dirichlet,
    sample_gamma,
    sample_normal,
)

M = 100_000


def draws(fn, rng, m=M):
    return np.array([fn(rng) for _ in range(m)])


class _FixedUniform:
    """Stub stream that returns one fixed uniform."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


class _ListedUniforms:
    """Stub stream that hands out the given uniforms in order,
    one per scalar call and m per ``random(m)`` call."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def _scalar_columns(rng, logw):
    """The reference for a batch draw: one scalar call per column."""
    return [sample_categorical_logweights(rng, col) for col in logw.T.tolist()]


def _log_weight_columns(gen, k, m):
    """A (k, m) array mixing finite entries, -inf, and entries 745 or more
    below their column's maximum (zero mass), plus entries just above the
    cut, whose mass is subnormal but positive. Every column keeps at least
    one finite entry at its maximum."""
    logw = gen.uniform(-30.0, 30.0, size=(k, m))
    top = gen.integers(k, size=m)
    logw[top, np.arange(m)] = 40.0
    kind = gen.integers(4, size=(k, m))
    kind[top, np.arange(m)] = 0
    logw[kind == 1] = -math.inf
    deep = kind == 2
    logw[deep] = 40.0 - 745.0 - gen.choice([0.0, 0.05, 1.0, 300.0], deep.sum())
    shallow = kind == 3
    logw[shallow] = 40.0 - gen.uniform(700.0, 744.9, shallow.sum())
    return logw


class TestRngStream:
    def test_same_seed_same_stream_bitwise_identical(self):
        a = RngStream(seed=42, stream=3)
        b = RngStream(seed=42, stream=3)
        assert [a.random() for _ in range(100)] == \
               [b.random() for _ in range(100)]

    def test_distinct_streams_differ(self):
        a = RngStream(seed=42, stream=0)
        b = RngStream(seed=42, stream=1)
        assert [a.random() for _ in range(10)] != \
               [b.random() for _ in range(10)]

    def test_distinct_seeds_differ(self):
        a = RngStream(seed=1, stream=0)
        b = RngStream(seed=2, stream=0)
        assert a.random() != b.random()

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           stream=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_determinism_property(self, seed, stream):
        a = RngStream(seed=seed, stream=stream)
        b = RngStream(seed=seed, stream=stream)
        assert sample_beta(a, 1.0, 2.0) == sample_beta(b, 1.0, 2.0)
        assert sample_gamma(a, 3.0, 1.5) == sample_gamma(b, 3.0, 1.5)
        assert sample_normal(a, 0.0, 2.0) == sample_normal(b, 0.0, 2.0)

    @pytest.mark.parametrize("seed,stream", [(0, 0), (42, 3), (2**64 - 1, 7),
                                             (12345, 60_000)])
    def test_is_generator_keyed_by_spawn_key(self, seed, stream):
        # every recorded digest depends on this keying
        rng = RngStream(seed=seed, stream=stream)
        ref = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))
        assert isinstance(rng, np.random.Generator)
        assert rng.random(5).tolist() == ref.random(5).tolist()
        assert rng.beta(1.0, 2.0, 3).tolist() == ref.beta(1.0, 2.0, 3).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -2),
                                             (1.5, 0), (0, 0.5), (True, 0)])
    def test_bad_identifiers_rejected(self, seed, stream):
        with pytest.raises(ValueError):
            RngStream(seed=seed, stream=stream)


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

    @pytest.mark.parametrize("conc", [[1.0, math.nan], [1.0, -math.inf],
                                      [math.nan] * 9, [1.0] * 8 + [-math.inf]])
    def test_nan_and_minus_inf_concentration_rejected(self, conc):
        # numpy's Gamma draw returns NaN for a NaN shape and has its own
        # error for a negative one; the Dirichlet's check comes first
        with pytest.raises(ValueError, match="must be positive and finite"):
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

    @pytest.mark.parametrize("k", [2, DIRICHLET_ARRAY_MIN_K - 1,
                                   DIRICHLET_ARRAY_MIN_K, 40])
    @pytest.mark.parametrize("seed", [0, 47, 2**40 + 3])
    def test_unbatched_draw_matches_one_array_gamma_call(self, k, seed):
        # below DIRICHLET_ARRAY_MIN_K entries the Gamma variates come from
        # one scalar call each; either way the draw is the one a single
        # array call and the clamp-and-normalize steps give
        conc = np.random.default_rng(seed).uniform(0.05, 12.0, k)
        a, b = RngStream(seed=seed), RngStream(seed=seed)
        g = a.standard_gamma(conc)
        np.maximum(g, WEIGHT_FLOOR, out=g)
        g /= g.sum()
        g = np.clip(g, WEIGHT_FLOOR, WEIGHT_CEIL)
        g /= g.sum()
        g = np.clip(g, WEIGHT_FLOOR, WEIGHT_CEIL)
        w = sample_dirichlet(b, conc)
        assert w.tobytes() == g.tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_dirichlet(RngStream(seed=0), [1.0, 1.0], batch=0)


# concentration layouts for the batched draw: every way it draws its Gamma
# variates (one fill of all units, rows run by run, one broadcast call) and
# every way it sums its rows (column by column below SHORT_ROW_K, by numpy's
# reduction from it)
LONG = 2 * DIRICHLET_RUN_MIN_LEN + 1
BATCH_LAYOUTS = {
    "all-ones": [1.0] * LONG,
    "ones-plus-alpha": [1.0] * (LONG - 1) + [0.5],
    "mixed-runs": ([2.0] + [1.0] * 800 + [3.0, 0.25, 7.0] + [1.0] * 700
                   + [4.0] + [1.0] * 500 + [1.5]),
    "short-ones-plus-alpha": [1.0] * (SHORT_ROW_K - 2) + [2.5],
    "short-mixed": [1.0, 3.0, 1.0, 1.0, 0.5, 2.0, 1.0],
    "short-ones": [1.0] * (SHORT_ROW_K - 1),
    "k-8": [1.0] * (SHORT_ROW_K - 1) + [0.5],
    "k-8-ones": [1.0] * SHORT_ROW_K,
    "k-64": [1.0] * 30 + [2.0] + [1.0] * 32 + [0.7],
    "no-units": list(np.linspace(0.2, 9.0, 70)),
}


def _broadcast_dirichlet(rng, conc, m):
    """The reference for a batched draw: one broadcast Gamma call over the
    batch, normalised with numpy's row sums and clipped."""
    g = rng.standard_gamma(conc, size=(m, len(conc)))
    np.maximum(g, WEIGHT_FLOOR, out=g)
    g /= g.sum(axis=-1, keepdims=True)
    g = np.clip(g, WEIGHT_FLOOR, WEIGHT_CEIL)
    g /= g.sum(axis=-1, keepdims=True)
    return np.clip(g, WEIGHT_FLOOR, WEIGHT_CEIL)


class TestBatchedDirichlet:
    @pytest.mark.parametrize("layout", list(BATCH_LAYOUTS))
    @pytest.mark.parametrize("m", [1, 5])
    def test_matches_broadcast_reference(self, layout, m):
        conc = np.array(BATCH_LAYOUTS[layout])
        a, b = RngStream(seed=48, stream=m), RngStream(seed=48, stream=m)
        w = sample_dirichlet(a, conc, batch=m)
        assert w.tobytes() == _broadcast_dirichlet(b, conc, m).tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("layout", list(BATCH_LAYOUTS))
    def test_one_row_batch_is_the_unbatched_draw(self, layout):
        conc = BATCH_LAYOUTS[layout]
        a, b = RngStream(seed=49), RngStream(seed=49)
        assert (sample_dirichlet(a, conc, batch=1)[0].tobytes()
                == sample_dirichlet(b, conc).tobytes())
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("k", range(2, SHORT_ROW_K + 2))
    def test_row_sums_match_numpy_at_every_short_length(self, k):
        # the alpha entry is tiny and the units are not, so the rows' sums
        # round differently in different orders
        conc = [1.0] * (k - 1) + [1e-3]
        a, b = RngStream(seed=50, stream=k), RngStream(seed=50, stream=k)
        w = sample_dirichlet(a, conc, batch=2_000)
        assert w.tobytes() == _broadcast_dirichlet(b, np.array(conc), 2_000).tobytes()


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
        # a +inf maximum is rejected alike by the scalar and the column form
        for logw in ([0.0, math.inf], np.array([[0.0], [math.inf]])):
            with pytest.raises(NoValidCategoryError,
                               match="no category with positive weight"):
                sample_categorical_logweights(RngStream(seed=0), logw)

    def test_empty_raises(self):
        with pytest.raises(NoValidCategoryError):
            sample_categorical_logweights(RngStream(seed=0), [])

    def test_nan_entries_never_drawn(self):
        rng = RngStream(seed=55)
        nan = math.nan
        for logw in ([nan, 0.0], [0.0, nan], [nan, 0.0, nan, 1.0, nan]):
            for _ in range(2000):
                assert not math.isnan(logw[sample_categorical_logweights(rng, logw)])
        for u in (0.0, 1.0):
            assert sample_categorical_logweights(_FixedUniform(u), [nan, 0.0, nan]) == 1
        with pytest.raises(NoValidCategoryError):
            sample_categorical_logweights(rng, [nan, nan])

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

    @pytest.mark.parametrize("logw", [
        [math.nan, 0.0, math.nan], [math.nan, 0.0, math.nan, 1.0, math.nan],
        [0.0, -math.inf], [-math.inf, -math.inf, 0.0], [-800.0, 0.0],
        [0.0, 0.0, -800.0, -math.inf], [0.0, -745.0, -744.9], [0.0, 0.0],
        [math.log(1.0), math.log(3.0)]])
    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 1.0 - 2**-53, 1.0])
    def test_pure_rule_matches_wrapper(self, logw, u):
        # the rule handed u picks what the wrapper picks when its stream
        # yields u; u = 1 makes u * total round to the total
        assert categorical_index(logw, u) == \
            sample_categorical_logweights(_FixedUniform(u), logw)

    @pytest.mark.parametrize("logw", [[], [math.nan, math.nan],
                                      [-math.inf, -math.inf], [0.0, math.inf]])
    def test_pure_rule_rejects_no_valid_category(self, logw):
        with pytest.raises(NoValidCategoryError):
            categorical_index(logw, 0.5)

    @given(logw=st.lists(st.floats(min_value=-50.0, max_value=50.0),
                         min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_returns_valid_index(self, logw, seed):
        idx = sample_categorical_logweights(RngStream(seed=seed), logw)
        assert 0 <= idx < len(logw)


class TestCategoricalColumns:
    """The (K, m) form: one draw per column, the same picks and stream use
    as m scalar calls."""

    @given(k=st.integers(min_value=1, max_value=40),
           m=st.integers(min_value=1, max_value=50),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_calls_and_stream(self, k, m, seed):
        logw = _log_weight_columns(np.random.default_rng(seed), k, m)
        a = RngStream(seed=seed, stream=1)
        b = RngStream(seed=seed, stream=1)
        idx = sample_categorical_logweights(a, logw)
        assert idx.shape == (m,)
        assert idx.tolist() == _scalar_columns(b, logw)
        assert a.bit_generator.state == b.bit_generator.state
        # never an entry without mass
        shift = logw[idx, np.arange(m)] - logw.max(axis=0)
        assert np.all(shift > LOG_UNDERFLOW)

    @given(k=st.integers(min_value=1, max_value=40),
           m=st.integers(min_value=1, max_value=50),
           seed=st.integers(min_value=0, max_value=2**32),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_boundary_uniforms_match_scalar_calls(self, k, m, seed, data):
        # u = 0 meets r = 0 (a leading zero-mass entry must be skipped);
        # u = 1 makes u * total round to the total, so the scan finds no
        # entry above it and the fallback picks the last entry with mass
        logw = _log_weight_columns(np.random.default_rng(seed), k, m)
        us = data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, 1.0 - 2**-53]),
                                min_size=m, max_size=m))
        idx = sample_categorical_logweights(_ListedUniforms(us), logw)
        assert idx.tolist() == _scalar_columns(_ListedUniforms(us), logw)
        shift = logw[idx, np.arange(m)] - logw.max(axis=0)
        assert np.all(shift > LOG_UNDERFLOW)

    def test_fallback_skips_trailing_zero_mass(self):
        logw = np.array([[0.0, 0.0, 0.0],
                         [0.0, -800.0, 0.0],
                         [-800.0, -math.inf, -745.0],
                         [-math.inf, -math.inf, -math.inf]])
        idx = sample_categorical_logweights(_ListedUniforms([1.0] * 3), logw)
        assert idx.tolist() == [1, 0, 1]

    def test_zero_uniform_skips_leading_zero_mass(self):
        logw = np.array([[-745.0, -math.inf, 0.0],
                         [0.0, -800.0, 0.0]])
        idx = sample_categorical_logweights(_ListedUniforms([0.0] * 3), logw)
        assert idx.tolist() == [1, 1, 0]

    def test_all_minus_inf_column_raises(self):
        logw = np.array([[0.0, -math.inf], [-1.0, -math.inf]])
        with pytest.raises(NoValidCategoryError):
            sample_categorical_logweights(RngStream(seed=0), logw)

    def test_no_candidates_raises(self):
        with pytest.raises(NoValidCategoryError):
            sample_categorical_logweights(RngStream(seed=0), np.empty((0, 3)))

    def test_one_dimensional_array_is_one_draw(self):
        idx = sample_categorical_logweights(RngStream(seed=5), np.zeros(3))
        assert isinstance(idx, int)


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
