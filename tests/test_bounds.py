"""Overhead-bound constants against frozen hand evaluations, the overhead
and slice-level simulators against each other, and the statistical checks
(high-probability bound, exponential tails, merge monotonicity, Poisson
stick law) on reduced replicate counts."""
import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

from dpslice.bounds import (
    BoundConstants,
    _chi2_sf,
    check_exponential_tail,
    check_merge_chain,
    check_merge_monotonicity,
    check_overhead_bound,
    check_poisson_stick_law,
    overhead_bound_constants,
    resolve_partition_sizes,
    simulate_overhead,
    simulate_umin,
    umin_tail_bound,
    umin_threshold,
)
from dpslice.randkit import RngStream

# Frozen hand evaluations of the closed forms at alpha=1, delta=0.1:
#   b2 = 7/log 2, b1 = 12 + (1 + 3 log(32 e) + log 2)/log 2,
#   c_delta = b1 + b2 log 10, d_alpha = b1/log 2 + b2.
B1_ALPHA1 = 33.770780163555855
B2_ALPHA1 = 10.098865286222745
C_DELTA_1_01 = 57.024276827767395
D_ALPHA_1 = 58.819802355136154


class TestBoundConstants:
    def test_frozen_values_at_alpha_one(self):
        c = overhead_bound_constants(1.0, 0.1)
        assert c.b2 == pytest.approx(B2_ALPHA1, rel=1e-13)
        assert c.b2 == pytest.approx(7.0 / math.log(2.0), rel=1e-13)
        assert c.b1 == pytest.approx(B1_ALPHA1, rel=1e-13)
        assert c.c_delta == pytest.approx(C_DELTA_1_01, rel=1e-13)
        assert c.d_alpha == pytest.approx(D_ALPHA_1, rel=1e-13)

    def test_defining_identities(self):
        for alpha in (0.5, 1.0, 5.0):
            for delta in (0.01, 0.1, 0.4):
                c = overhead_bound_constants(alpha, delta)
                assert c.c_delta == pytest.approx(
                    c.b1 + c.b2 * math.log(1.0 / delta), rel=1e-14)
                assert c.d_alpha == pytest.approx(
                    c.b1 / math.log(2.0) + c.b2, rel=1e-14)
                assert min(c.b1, c.b2, c.c_delta, c.d_alpha) > 0.0

    def test_constants_scale_linearly_in_alpha(self):
        ratio = overhead_bound_constants(10.0, 0.1).b1 / B1_ALPHA1
        assert 5.0 < ratio < 15.0

    def test_c_delta_decreasing_in_delta(self):
        vals = [overhead_bound_constants(1.0, d).c_delta
                for d in (0.01, 0.05, 0.1, 0.3, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_to_dict_round_trip(self):
        c = overhead_bound_constants(2.0, 0.2)
        d = c.to_dict()
        assert d["alpha"] == 2.0 and d["delta"] == 0.2
        assert d["b1"] == c.b1 and d["c_delta"] == c.c_delta
        # an integer alpha serializes as a float, as the other constants do
        d = overhead_bound_constants(2, 0.2).to_dict()
        assert json.dumps(d["alpha"]) == "2.0"

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            overhead_bound_constants(0.0, 0.1)
        with pytest.raises(ValueError):
            overhead_bound_constants(1.0, 0.0)
        with pytest.raises(ValueError):
            overhead_bound_constants(1.0, 1.0)


class TestUminTailBound:
    def test_frozen_hand_value(self):
        val = umin_tail_bound(2, 1.0, 0.01)
        assert val == pytest.approx(0.22420680743952368, rel=1e-14)
        assert val == pytest.approx(4.0 * 0.01 * (1.0 + math.log(100.0)), rel=1e-14)

    def test_vanishes_as_x_to_zero(self):
        assert umin_tail_bound(2, 1.0, 1e-15) < 1e-12

    def test_increasing_in_x(self):
        xs = np.logspace(-8, -0.1, 30)
        vals = [umin_tail_bound(10, 1.0, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_may_exceed_one(self):
        assert umin_tail_bound(100, 1.0, 0.5) > 1.0

    def test_bounds_monte_carlo_singleton_probability(self):
        m = 200_000
        u = simulate_umin(RngStream(seed=61, stream=0), [1] * 5, 1.0, m)
        for x in (1e-3, 1e-2):
            p_hat = float(np.mean(u <= x))
            se = math.sqrt(p_hat * (1.0 - p_hat) / m)
            assert p_hat <= umin_tail_bound(5, 1.0, x) + 3.0 * se

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            umin_tail_bound(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            umin_tail_bound(2, -1.0, 0.1)
        with pytest.raises(ValueError):
            umin_tail_bound(2, 1.0, 1.5)


class TestUminThreshold:
    def test_frozen_value(self):
        assert umin_threshold(100, 1.0, 0.1) == pytest.approx(
            1.8930684898558154e-07, rel=1e-14)

    def test_in_unit_interval_on_grid(self):
        for n in (2, 10, 100, 10**6):
            for alpha in (0.5, 5.0):
                for delta in (1e-3, 0.1, 0.5):
                    assert 0.0 < umin_threshold(n, alpha, delta) < 1.0

    def test_tail_bound_at_threshold_below_half_delta(self):
        for n in (2, 10, 100, 10**4, 10**6):
            for alpha in (0.5, 1.0, 5.0):
                for delta in (1e-3, 0.1, 0.5):
                    x = umin_threshold(n, alpha, delta)
                    assert umin_tail_bound(n, alpha, x) <= delta / 2.0 + 1e-12

    def test_decreasing_in_n(self):
        vals = [umin_threshold(n, 1.0, 0.1) for n in (2, 5, 20, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            umin_threshold(1, 1.0, 0.1)
        with pytest.raises(ValueError):
            umin_threshold(10, 1.0, 0.0)


class TestResolvePartitionSizes:
    def test_named_specs(self):
        assert np.array_equal(resolve_partition_sizes("singleton", 4), [1, 1, 1, 1])
        assert np.array_equal(resolve_partition_sizes("one-block", 4), [4])
        assert np.array_equal(resolve_partition_sizes("balanced:4", 10), [3, 3, 2, 2])
        assert np.array_equal(resolve_partition_sizes("balanced:1", 7), [7])

    def test_explicit_sizes(self):
        assert np.array_equal(resolve_partition_sizes([2, 3, 1], 6), [2, 3, 1])
        for spec in ((2, np.int64(4)), np.array([3, 3])):
            assert resolve_partition_sizes(spec, 6).tolist() == list(spec)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            resolve_partition_sizes("spiral", 4)
        with pytest.raises(ValueError):
            resolve_partition_sizes("balanced:5", 4)
        with pytest.raises(ValueError, match="needs an integer H"):
            resolve_partition_sizes("balanced:x", 4)
        with pytest.raises(ValueError):
            resolve_partition_sizes([2, 3], 6)
        with pytest.raises(ValueError):
            resolve_partition_sizes([2, 0, 4], 6)
        # never truncated or cast: only a list of integers is a size list
        for spec in ([2.7, 3.9], [True, 4], 5, np.array([2.0, 3.0])):
            with pytest.raises(ValueError, match="sizes must be a list of integers"):
                resolve_partition_sizes(spec, 5)
        with pytest.raises(ValueError, match="sizes sum to 0"):
            resolve_partition_sizes([], 5)
        with pytest.raises(ValueError):
            resolve_partition_sizes("singleton", 0)


class TestSimulateOverhead:
    def test_samples_nonnegative_with_valid_umin(self):
        s = simulate_overhead(RngStream(seed=70, stream=0), 30, "singleton", 1.0, 500)
        assert len(s) == 500
        assert np.all(s.k_minus_h >= 0)
        assert np.all((s.umin > 0.0) & (s.umin < 1.0))

    def test_spec_echo_for_custom_sizes(self):
        s = simulate_overhead(RngStream(seed=71, stream=0), 6, [3, 3], 1.0, 10)
        assert s.spec == "custom"

    def test_one_block_has_smallest_mean_overhead(self):
        means = {}
        for spec in ("singleton", "balanced:3", "one-block"):
            s = simulate_overhead(RngStream(seed=72, stream=0), 60, spec, 1.0, 4000)
            means[spec] = float(s.k_minus_h.mean())
        assert means["one-block"] < means["balanced:3"] < means["singleton"]

    def test_deterministic_given_stream(self):
        a = simulate_overhead(RngStream(seed=73, stream=2), 20, "singleton", 1.0, 200)
        b = simulate_overhead(RngStream(seed=73, stream=2), 20, "singleton", 1.0, 200)
        assert np.array_equal(a.k_minus_h, b.k_minus_h)
        assert np.array_equal(a.umin, b.umin)

    def test_bad_inputs_rejected(self):
        rng = RngStream(seed=1, stream=0)
        with pytest.raises(ValueError):
            simulate_overhead(rng, 10, "singleton", 1.0, 0)
        with pytest.raises(ValueError):
            simulate_overhead(rng, 10, "singleton", -1.0, 5)


class TestCheckOverheadBound:
    def test_singleton_n100_passes(self):
        s = simulate_overhead(RngStream(seed=80, stream=0), 100, "singleton", 1.0, 10_000)
        c = overhead_bound_constants(1.0, 0.1)
        rep = check_overhead_bound(s, c)
        assert rep.passed
        assert rep.threshold == pytest.approx(c.c_delta * math.log(100.0))
        assert rep.exceedance == float(np.mean(s.k_minus_h > rep.threshold))
        assert rep.replicates == 10_000
        d = rep.to_dict()
        assert d["pass"] if "pass" in d else d["passed"]

    def test_looser_delta_also_passes_with_lower_exceedance(self):
        s = simulate_overhead(RngStream(seed=81, stream=0), 100, "singleton", 1.0, 5_000)
        tight = check_overhead_bound(s, overhead_bound_constants(1.0, 0.01))
        loose = check_overhead_bound(s, overhead_bound_constants(1.0, 0.5))
        # larger delta lowers the threshold, so exceedance cannot drop
        assert loose.exceedance >= tight.exceedance
        assert loose.passed

    def test_ninetieth_percentile_grows_sublinearly(self):
        q = {}
        for n, m in ((100, 4000), (10_000, 1500)):
            s = simulate_overhead(RngStream(seed=82, stream=0), n, "singleton", 1.0, m)
            q[n] = float(np.quantile(s.k_minus_h, 0.9))
        assert q[10_000] / q[100] <= 1.5 * (math.log(10_000) / math.log(100))


class TestCheckExponentialTail:
    def test_singleton_n1000_passes(self):
        s = simulate_overhead(RngStream(seed=85, stream=0), 1000, "singleton", 1.0, 20_000)
        c = overhead_bound_constants(1.0, 0.1)
        rep = check_exponential_tail(s, c)
        assert rep.passed
        assert rep.t_grid == (0.5, 1.0, 2.0, 3.0)
        assert len(rep.tails) == len(rep.limits) == 4
        assert all(t <= lim for t, lim in zip(rep.tails, rep.limits))
        assert rep.mean_ratio <= rep.mean_limit
        assert rep.mean_limit == pytest.approx(B1_ALPHA1 + B2_ALPHA1, rel=1e-13)

    def test_t_zero_is_trivially_satisfied(self, monkeypatch):
        import dpslice.bounds as bounds
        monkeypatch.setattr(bounds, "TAIL_T_GRID", (0.0,))
        s = simulate_overhead(RngStream(seed=86, stream=0), 50, "singleton", 1.0, 1000)
        rep = check_exponential_tail(s, overhead_bound_constants(1.0, 0.1))
        assert rep.tails[0] <= rep.limits[0] == 1.0


def _reference_umin(gen, sizes, alpha, m):
    """u_min given a fixed partition, built directly: Dirichlet weights as
    normalized Gammas, each observation's slice uniform on (0, own-block
    weight), and the row minimum."""
    sizes = np.asarray(sizes)
    g = gen.standard_gamma(np.append(sizes.astype(float), alpha), size=(m, sizes.size + 1))
    np.maximum(g, 1e-300, out=g)
    w = g / g.sum(axis=1, keepdims=True)
    owner = np.repeat(np.arange(sizes.size), sizes)
    return (w[:, owner] * gen.random((m, int(sizes.sum())))).min(axis=1)


class TestSimulateUmin:
    def test_support_and_determinism(self):
        a = simulate_umin(RngStream(seed=90, stream=0), [2, 2, 2], 1.0, 5000)
        b = simulate_umin(RngStream(seed=90, stream=0), [2, 2, 2], 1.0, 5000)
        assert np.all((a > 0.0) & (a < 1.0))
        assert np.array_equal(a, b)

    def test_agrees_with_operation_composition(self):
        # Same law three ways, on independent streams: the merge check's u_min
        # draws, the overhead simulation, and an independent normalized-Gamma
        # construction that shares no code with either.
        m = 40_000
        sizes = [1] * 6
        ref = _reference_umin(RngStream(seed=91, stream=2), sizes, 1.0, m)
        fast = simulate_umin(RngStream(seed=91, stream=0), sizes, 1.0, m)
        ops = simulate_overhead(RngStream(seed=91, stream=1), 6, "singleton", 1.0, m).umin
        for draws in (fast, ops):
            for x in (0.003, 0.01, 0.03):
                p1 = float(np.mean(draws <= x))
                p2 = float(np.mean(ref <= x))
                se = math.sqrt(p1 * (1 - p1) / m + p2 * (1 - p2) / m)
                assert abs(p1 - p2) <= 3.0 * se + 1e-9

    def test_bad_inputs_rejected(self):
        rng = RngStream(seed=1, stream=0)
        with pytest.raises(ValueError):
            simulate_umin(rng, [], 1.0, 10)
        with pytest.raises(ValueError):
            simulate_umin(rng, [1, 0], 1.0, 10)
        with pytest.raises(ValueError):
            simulate_umin(rng, [1, 1], 1.0, 0)
        # never truncated: the size rule of resolve_partition_sizes
        for sizes in ([2.7, 3.9], [True, 4], np.array([2.0, 3.0])):
            with pytest.raises(ValueError, match="sizes must be a list of integers"):
                simulate_umin(rng, sizes, 1.0, 10)


class TestMergeMonotonicity:
    def test_two_singletons_merge(self):
        rep = check_merge_monotonicity(RngStream(seed=95, stream=0), [1, 1],
                                       x_grid=(0.001, 0.01, 0.05), replicates=50_000)
        assert rep.passed
        assert rep.sizes == (1, 1)
        assert rep.merged_sizes == (2,)
        assert len(rep.steps) == 3
        for step in rep.steps:
            assert step.p_merged <= step.p_unmerged + 3.0 * step.pooled_se

    def test_merged_sizes_bookkeeping(self):
        # the first two blocks merge into one block placed last
        rep = check_merge_monotonicity(RngStream(seed=96, stream=0), [2, 3, 4],
                                       x_grid=(0.01,), replicates=1000)
        assert rep.sizes == (2, 3, 4)
        assert rep.merged_sizes == (4, 5)

    def test_merge_chain_from_singletons_to_one_block(self):
        # Merging the two largest blocks grows one block from singleton(6)
        # to one block; survival must not drop at any step.
        chain = check_merge_chain(RngStream(seed=97, stream=0), 6, (0.01,),
                                  replicates=50_000)
        assert [rep.sizes for rep in chain] == [
            (1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (3, 1, 1, 1), (4, 1, 1), (5, 1)]
        assert chain[-1].merged_sizes == (6,)
        for rep in chain:
            assert rep.passed, f"merge step from sizes {rep.sizes}"
        with pytest.raises(ValueError):
            check_merge_chain(RngStream(seed=97, stream=0), 1, (0.01,), 10)

    def test_one_block_has_no_merge(self):
        with pytest.raises(ValueError, match="a merge needs two blocks"):
            check_merge_monotonicity(RngStream(seed=1, stream=0), [2],
                                     x_grid=(0.01,), replicates=10)

    @pytest.mark.parametrize("sizes", [[2.7, 3.9, 1.2], [True, 4]])
    def test_sizes_are_never_rounded(self, sizes):
        with pytest.raises(ValueError, match="sizes must be a list of integers"):
            check_merge_monotonicity(RngStream(seed=1, stream=0), sizes,
                                     x_grid=(0.01,), replicates=10)


class TestPoissonStickLaw:
    def test_mean_and_gof_at_reference_point(self):
        m = 30_000
        rep = check_poisson_stick_law(RngStream(seed=99, stream=0),
                                      x=math.exp(-1.0), alpha=2.0, replicates=m)
        assert rep.rate == pytest.approx(2.0)
        assert abs(rep.sample_mean - 2.0) <= 3.0 * math.sqrt(2.0 / m)
        assert rep.passed
        assert rep.p_value >= rep.significance == 0.01
        assert rep.dof >= 1
        # the package's closed-form tail, pinned to scipy.stats below
        assert rep.p_value == _chi2_sf(rep.chi2_stat, rep.dof)

    def test_near_one_threshold_rarely_extends(self):
        rep = check_poisson_stick_law(RngStream(seed=100, stream=0),
                                      x=0.999, alpha=2.0, replicates=2000)
        assert rep.sample_mean < 0.02

    def test_mean_linear_in_log_inverse_x(self):
        alpha = 1.5
        logs = np.arange(1.0, 6.0)
        means = []
        for k, li in enumerate(logs):
            rep = check_poisson_stick_law(RngStream(seed=101, stream=k),
                                          x=math.exp(-li), alpha=alpha,
                                          replicates=20_000)
            means.append(rep.sample_mean)
            assert rep.p_value == _chi2_sf(rep.chi2_stat, rep.dof)
        slope = np.polyfit(logs, means, 1)[0]
        assert slope == pytest.approx(alpha, rel=0.05)

    def test_chi2_tail_matches_scipy(self):
        # dof 1-40 from x = 1e-3 out to where the tail leaves the normal
        # doubles; past that point both must read below the smallest one
        tiny = np.finfo(float).tiny
        for dof in range(1, 41):
            for x in np.geomspace(1e-3, 3000.0, 400):
                ref = chi2.sf(x, dof)
                got = _chi2_sf(float(x), dof)
                if ref < tiny:
                    assert got < tiny, (dof, x)
                else:
                    assert abs(got - ref) <= 1e-12 * ref, (dof, x, got, ref)
        assert _chi2_sf(0.0, 3) == 1.0

    def test_bad_inputs_rejected(self):
        rng = RngStream(seed=1, stream=0)
        with pytest.raises(ValueError):
            check_poisson_stick_law(rng, x=0.0, alpha=1.0, replicates=100)
        with pytest.raises(ValueError):
            check_poisson_stick_law(rng, x=0.5, alpha=-1.0, replicates=100)
        with pytest.raises(ValueError):
            check_poisson_stick_law(rng, x=0.5, alpha=1.0, replicates=1)
