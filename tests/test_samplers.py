"""Sweep kernels: conditional draws, stationarity against the enumeration
oracle, the concentration update against numerical quadrature, and the chain
driver contract."""
import contextlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import chi2, poisson

from dpslice import cli, samplers
from dpslice.cli import _benchmark_cell
from dpslice.core import (
    LOG_2PI,
    InconsistentStateError,
    MixtureState,
    ModelConfig,
    Partition,
    RunawayExtensionError,
    relabel_compact,
)
from dpslice.datagen import kmeans_init, make_dataset
from dpslice.oracle import cluster_log_marginal, exact_posterior, tv_distance
from dpslice.randkit import (
    NoValidCategoryError,
    RngStream,
    sample_beta,
    sample_categorical_logweights,
    sample_normal,
)
from dpslice.samplers import (
    ChainResult,
    SamplerKind,
    _conjugate_prior,
    _extend_masked,
    _marginal_allocation_pass,
    _posterior,
    _predictive,
    bgs_sweep,
    crp_sweep_atoms,
    crp_sweep_collapsed,
    default_snapshot_thin,
    extend_components,
    make_sweep,
    run_chain,
    sample_allocated_weights,
    sample_atoms_conjugate,
    sample_slices,
    slice_allocation_update,
    slice_sweep,
    slice_sweep_marginal_atoms,
    truncation_error_bound,
    update_alpha_escobar_west,
)

CFG = ModelConfig()


@contextlib.contextmanager
def _slice_draw_spy():
    """Record what the slice and stick-extension draws of ``samplers`` give
    while active, one dict per sweep: the incoming labels, the occupied
    weights, the slices and their minimum, the tail weights and the leftover
    mass after the extension."""
    draws = []
    real_slices, real_extend = samplers.sample_slices, samplers.extend_components

    def slices(rng, part, allocated):
        u, umin = real_slices(rng, part, allocated)
        draws.append({"labels": part.labels, "allocated": allocated,
                      "u": u, "umin": umin})
        return u, umin

    def extend(*args, **kwargs):
        tail, atoms, leftover = real_extend(*args, **kwargs)
        draws[-1].update(tail=np.asarray(tail, dtype=float), leftover=leftover)
        return tail, atoms, leftover

    with mock.patch.object(samplers, "sample_slices", slices), \
            mock.patch.object(samplers, "extend_components", extend):
        yield draws


def _check_slice_draw(d) -> int:
    """Assert the invariants of one sweep's slice draws and return the
    number of components it instantiated, K = H + tail."""
    own = d["allocated"][d["labels"] - 1]
    assert np.all(d["u"] > 0.0) and np.all(d["u"] < own), \
        "need 0 < u_i < weight of own block"
    assert d["umin"] == d["u"].min()
    w = np.concatenate([d["allocated"], d["tail"]])
    assert np.all(w > 0.0)
    assert abs(w.sum() + d["leftover"] - 1.0) <= 1e-10, "weights off the simplex"
    assert d["leftover"] <= d["umin"]
    assert d["allocated"].size == d["labels"].max()
    return w.size


def _chain_states(sweep, data, cfg, rng, sweeps, burnin, **kw):
    state = MixtureState(partition=relabel_compact(np.arange(1, len(data) + 1)),
                         alpha=cfg.alpha_fixed or 1.0)
    out = []
    for _ in range(burnin):
        state, _ = sweep(state, data, cfg, rng, **kw)
    for _ in range(sweeps):
        state, _ = sweep(state, data, cfg, rng, **kw)
        out.append(state)
    return out


def _empirical_partition_law(states):
    freq = {}
    for s in states:
        key = tuple(int(v) for v in s.partition.labels)
        freq[key] = freq.get(key, 0) + 1
    total = len(states)
    return {k: v / total for k, v in freq.items()}


class TestAllocatedWeights:
    def test_single_block_beta_marginal(self):
        rng = RngStream(seed=100)
        n, alpha = 7.0, 2.0
        w = np.array([sample_allocated_weights(rng, [n], alpha)[0][0]
                      for _ in range(50_000)])
        mean = n / (n + alpha)
        assert abs(w.mean() - mean) < 3.5 * w.std() / math.sqrt(w.size)

    def test_two_singletons_unit_alpha(self):
        rng = RngStream(seed=101)
        draws = np.array([np.append(*sample_allocated_weights(rng, [1, 1], 1.0))
                          for _ in range(100_000)])
        assert np.allclose(draws.mean(axis=0), 1.0 / 3.0, atol=0.01)

    def test_simplex(self):
        rng = RngStream(seed=102)
        for _ in range(200):
            alloc, residual = sample_allocated_weights(rng, [3, 1, 5], 0.7)
            assert abs(alloc.sum() + residual - 1.0) < 1e-10
            assert residual > 0.0 and np.all(alloc > 0.0)

    @pytest.mark.parametrize("sizes,alpha", [([], 1.0), ([0, 2], 1.0),
                                             ([2], 0.0), ([2], -1.0)])
    def test_bad_input(self, sizes, alpha):
        with pytest.raises(ValueError):
            sample_allocated_weights(RngStream(seed=0), sizes, alpha)

    @pytest.mark.parametrize("sizes,alpha,message", [
        ([math.nan], 1.0, "sizes must be"), ([2, math.nan], 1.0, "sizes must be"),
        ([2], math.inf, "alpha must be"), ([2], math.nan, "alpha must be")])
    def test_nan_and_inf_rejected_by_their_own_check(self, sizes, alpha, message):
        # the Dirichlet would reject each of these too, with its own message
        with pytest.raises(ValueError, match=message):
            sample_allocated_weights(RngStream(seed=0), sizes, alpha)


class TestAtomsConjugate:
    def test_single_point_posterior(self):
        rng = RngStream(seed=110)
        part = relabel_compact([1])
        draws = np.array([sample_atoms_conjugate(rng, np.array([2.0]), part, CFG)[0]
                          for _ in range(10_000)])
        # precision 1/1 + 1/1 = 2: posterior N(1, 1/2)
        assert abs(draws.mean() - 1.0) < 0.03
        assert abs(draws.var() - 0.5) < 0.03

    def test_big_cluster_posterior_mean(self):
        rng = RngStream(seed=111)
        y = np.full(100, 3.0)  # n_h = 100, sum = 300
        part = relabel_compact(np.ones(100, dtype=int))
        draws = np.array([sample_atoms_conjugate(rng, y, part, CFG)[0]
                          for _ in range(10_000)])
        assert abs(draws.mean() - 300.0 / 101.0) < 0.02

    def test_one_atom_per_block(self):
        rng = RngStream(seed=112)
        part = relabel_compact([1, 2, 1, 3])
        atoms = sample_atoms_conjugate(rng, np.array([0.0, 5.0, 0.2, -5.0]),
                                       part, CFG)
        assert atoms.shape == (3,)
        # separated blocks pull their atoms toward their own means
        assert atoms[1] > 2.0 and atoms[2] < -2.0

    def test_components_past_the_blocks_draw_from_the_prior(self):
        # blocked Gibbs draws L atoms for H <= L blocks: the occupied ones
        # match the default draw, the empty ones come from the base measure
        y = np.array([0.0, 5.0, 0.2, -5.0])
        part = relabel_compact([1, 2, 1, 3])
        occupied = sample_atoms_conjugate(RngStream(seed=113), y, part, CFG)
        atoms = sample_atoms_conjugate(RngStream(seed=113), y, part, CFG, 5)
        assert atoms.shape == (5,)
        assert atoms[:3].tolist() == occupied.tolist()
        cfg = ModelConfig(base_mean=7.0, base_var=1e-12)
        assert np.allclose(sample_atoms_conjugate(RngStream(seed=114), y, part,
                                                  cfg, 6)[3:], 7.0, atol=1e-4)

    @pytest.mark.parametrize("seed", [0, 115, 2**33 + 1])
    @pytest.mark.parametrize("labels,components", [
        ([1, 2, 1, 3], None), ([1, 2, 1, 3], 3), ([1, 2, 1, 3], 7),
        ([1] * 9, None), ([1] * 9, 2), ([1, 2, 3, 4, 5, 6], 6)])
    @pytest.mark.parametrize("cfg", [CFG, ModelConfig(sigma2=0.3, base_mean=-2.0,
                                                      base_var=4.5)])
    def test_draw_equals_normal_with_posterior_parameters(self, seed, labels,
                                                          components, cfg):
        # the atoms are standard Normal draws scaled and shifted in place;
        # the reference is rng.normal over the posterior means and standard
        # deviations, with the components past the blocks at zero members
        y = np.random.default_rng(seed).normal(0.0, 3.0, len(labels))
        part = relabel_compact(labels)
        k = part.num_blocks if components is None else components
        counts = np.zeros(k)
        counts[:part.num_blocks] = part.sizes
        sums = np.bincount(part.labels, weights=y, minlength=k + 1)[1:]
        mean, var = _posterior(counts, sums, _conjugate_prior(cfg))
        a, b = RngStream(seed=seed), RngStream(seed=seed)
        expected = a.normal(mean, np.sqrt(var))
        got = sample_atoms_conjugate(b, y, part, cfg, components)
        assert got.shape == (k,)
        assert got.tobytes() == expected.tobytes()
        assert a.bit_generator.state == b.bit_generator.state


class TestSampleSlices:
    def test_support_below_own_weight(self):
        rng = RngStream(seed=120)
        part = relabel_compact([1, 1, 1, 1])
        for _ in range(200):
            u, umin = sample_slices(rng, part, np.array([0.5]))
            assert np.all((u > 0.0) & (u < 0.5))
            assert umin == u.min()

    def test_uniform_mean(self):
        rng = RngStream(seed=121)
        part = relabel_compact([1])
        u = np.array([sample_slices(rng, part, np.array([0.5]))[0][0]
                      for _ in range(50_000)])
        assert abs(u.mean() - 0.25) < 0.003

    def test_zero_weight_rejected(self):
        part = relabel_compact([1, 2])
        with pytest.raises(InconsistentStateError):
            sample_slices(RngStream(seed=0), part, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("weights", [[0.5, math.nan], [math.nan, 0.5],
                                         [[0.5, 0.2], [0.5, math.nan]]])
    def test_nan_own_block_weight_rejected(self, weights):
        part = relabel_compact([1, 2])
        with pytest.raises(InconsistentStateError):
            sample_slices(RngStream(seed=0), part, np.array(weights))


class TestExtendComponents:
    def test_no_extension_when_umin_covers_residual(self):
        tail_w, tail_atoms, residual = extend_components(
            RngStream(seed=130), 0.3, 0.5, 1.0, CFG)
        assert tail_w == [] and tail_atoms == [] and residual == 0.3

    def test_final_residual_below_umin(self):
        rng = RngStream(seed=131)
        for _ in range(300):
            tail_w, tail_atoms, residual = extend_components(
                rng, 1.0, 0.05, 1.5, CFG)
            assert residual < 0.05
            assert len(tail_atoms) == len(tail_w)
            assert all(w > 0.0 for w in tail_w)
            assert abs(sum(tail_w) + residual - 1.0) < 1e-12

    def test_poisson_tail_count_mean(self):
        # tail count - 1 at residual 1, threshold x follows Poisson(alpha log 1/x)
        rng = RngStream(seed=132)
        alpha, x, m = 2.0, math.exp(-1.0), 20_000
        counts = np.array([len(extend_components(rng, 1.0, x, alpha)[0])
                           for _ in range(m)])
        rate = alpha * math.log(1.0 / x)
        assert abs((counts - 1).mean() - rate) < 3.0 * math.sqrt(rate / m)

    def test_atoms_skippable(self):
        tail_w, tail_atoms, _ = extend_components(RngStream(seed=133), 1.0,
                                                  0.01, 1.0)
        assert tail_atoms == [] and len(tail_w) > 0

    def test_runaway_cap(self, monkeypatch):
        monkeypatch.setattr(samplers, "MAX_EXTENSION", 3)
        with pytest.raises(RunawayExtensionError) as err:
            extend_components(RngStream(seed=134), 1.0, 1e-12, 5.0, CFG)
        assert err.value.cap == 3 and err.value.umin == 1e-12

    @pytest.mark.parametrize("residual,umin,alpha", [
        (0.0, 0.5, 1.0), (1.5, 0.5, 1.0), (0.5, 0.0, 1.0),
        (0.5, 1.0, 1.0), (0.5, 0.2, 0.0)])
    def test_bad_input(self, residual, umin, alpha):
        with pytest.raises(ValueError):
            extend_components(RngStream(seed=0), residual, umin, alpha, CFG)

    @pytest.mark.parametrize("residual,umin,alpha", [
        (0.5, 0.2, math.inf), (0.5, 0.2, math.nan), (0.3, 0.5, math.inf),
        (np.array([0.5, 0.9]), np.array([0.2, 0.1]), math.inf)])
    def test_alpha_must_be_finite(self, monkeypatch, residual, umin, alpha):
        # Beta(1, inf) draws 0, which would clamp every stick to the floor
        # and run the extension to its cap
        monkeypatch.setattr(samplers, "MAX_EXTENSION", 100)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            extend_components(RngStream(seed=0), residual, umin, alpha)

    @pytest.mark.parametrize("base_mean,base_var", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, 0.0), (0.0, -1.0),
        (0.0, math.inf), (0.0, math.nan)])
    def test_bad_base_measure(self, base_mean, base_var):
        # ModelConfig rejects these; the extension checks the base measure
        # it draws atoms from itself, once per call
        cfg = SimpleNamespace(base_mean=base_mean, base_var=base_var)
        with pytest.raises(ValueError, match="base measure"):
            extend_components(RngStream(seed=0), 1.0, 0.01, 1.0, cfg)
        tail_w, _, _ = extend_components(RngStream(seed=0), 1.0, 0.01, 1.0)
        assert tail_w

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 6.0])
    @pytest.mark.parametrize("seed", [0, 136, 2**35 + 9])
    def test_steps_draw_as_sample_normal_and_sample_beta(self, alpha, seed):
        # each step draws its atom and its stick as sample_normal and
        # sample_beta would, in that order, with the same clamp
        cfg = ModelConfig(base_mean=1.5, base_var=2.0)
        a, b = RngStream(seed=seed), RngStream(seed=seed)
        tail_w, tail_atoms, residual = extend_components(a, 1.0, 1e-3, alpha, cfg)
        ref_w, ref_atoms, ref_residual = [], [], 1.0
        while ref_residual > 1e-3:
            ref_atoms.append(sample_normal(b, cfg.base_mean, cfg.base_var))
            w = sample_beta(b, 1.0, alpha) * ref_residual
            ref_w.append(w)
            ref_residual -= w
        assert tail_w == ref_w and tail_atoms == ref_atoms
        assert residual == ref_residual
        assert all(type(x) is float for x in tail_w + tail_atoms)
        assert a.bit_generator.state == b.bit_generator.state



def _labels_from_sizes(sizes):
    return relabel_compact(np.repeat(np.arange(1, len(sizes) + 1), sizes))


class TestReplicateAxis:
    """The weight, slice and extension draws with many replicates at once:
    the invariants hold row by row, and one replicate reproduces the scalar
    path bit for bit."""

    @given(sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                          max_size=8),
           alpha=st.floats(min_value=0.05, max_value=20.0),
           batch=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_weight_rows_on_clamped_simplex(self, sizes, alpha, batch, seed):
        alloc, residual = sample_allocated_weights(RngStream(seed=seed), sizes,
                                                   alpha, batch=batch)
        assert alloc.shape == (batch, len(sizes))
        assert residual.shape == (batch,)
        w = np.column_stack([alloc, residual])
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((w >= 1e-300) & (w <= 1.0 - 1e-16))

    @given(sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                          max_size=8),
           alpha=st.floats(min_value=0.05, max_value=20.0),
           batch=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_slices_inside_own_weight_and_umin_is_row_min(self, sizes, alpha,
                                                           batch, seed):
        rng = RngStream(seed=seed)
        part = _labels_from_sizes(sizes)
        alloc, _ = sample_allocated_weights(rng, part.sizes, alpha, batch=batch)
        u, umin = sample_slices(rng, part, alloc)
        own = alloc[:, part.labels - 1]
        assert u.shape == (batch, part.n)
        assert np.all((u > 0.0) & (u < own))
        assert np.array_equal(umin, u.min(axis=1))

    @given(residual=st.lists(st.floats(min_value=1e-6, max_value=1.0),
                             min_size=1, max_size=20),
           umin_level=st.floats(min_value=1e-9, max_value=0.99),
           alpha=st.floats(min_value=0.05, max_value=20.0),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_extension_ends_at_or_below_umin(self, residual, umin_level, alpha,
                                             seed):
        r = np.asarray(residual)
        u = np.full(r.size, umin_level)
        counts, final = extend_components(RngStream(seed=seed), r, u, alpha)
        assert np.all(final <= u)
        assert np.all(final > 0.0)
        assert np.all((counts == 0) == (r <= u))

    def test_one_replicate_matches_unbatched_draws(self):
        part = _labels_from_sizes([3, 1, 2])
        a, b = RngStream(seed=140), RngStream(seed=140)
        alloc_1, resid_1 = sample_allocated_weights(a, part.sizes, 0.8)
        alloc_b, resid_b = sample_allocated_weights(b, part.sizes, 0.8, batch=1)
        assert np.array_equal(alloc_b[0], alloc_1) and resid_b[0] == resid_1
        u_1, umin_1 = sample_slices(a, part, alloc_1)
        u_b, umin_b = sample_slices(b, part, alloc_b)
        assert np.array_equal(u_b[0], u_1) and umin_b[0] == umin_1
        assert a.bit_generator.state == b.bit_generator.state

    @given(residual=st.floats(min_value=1e-3, max_value=1.0),
           umin=st.floats(min_value=1e-12, max_value=0.5),
           alpha=st.floats(min_value=0.1, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_masked_loop_reproduces_scalar_loop(self, residual, umin, alpha,
                                                seed):
        a, b = RngStream(seed=seed), RngStream(seed=seed)
        tail_w, _, final = extend_components(a, residual, umin, alpha)
        counts, finals = _extend_masked(b, np.array([residual]),
                                        np.array([umin]), alpha)
        assert counts.tolist() == [len(tail_w)]
        assert finals.tolist() == [final]
        assert a.bit_generator.state == b.bit_generator.state

    def test_counts_follow_shifted_poisson_oracle(self):
        # Independent oracle: -log(1 - V) with V ~ Beta(1, alpha) is
        # Exp(alpha), so the number of sticks needed to push residual r
        # below u is 1 + Poisson(alpha log(r / u)).
        m, alpha = 40_000, 1.5
        r = np.where(np.arange(m) % 2 == 0, 0.6, 1.0)
        u = np.where(np.arange(m) % 2 == 0, 0.01, 0.2)
        counts, _ = extend_components(RngStream(seed=141), r, u, alpha)
        for pick in (r == 0.6, r == 1.0):
            rate = alpha * math.log(r[pick][0] / u[pick][0])
            shifted = counts[pick] - 1
            kmax = int(poisson.ppf(1.0 - 1e-4, rate))
            observed = np.bincount(np.minimum(shifted, kmax), minlength=kmax + 1)
            expected = poisson.pmf(np.arange(kmax + 1), rate) * pick.sum()
            expected[-1] += poisson.sf(kmax, rate) * pick.sum()
            keep = expected >= 5.0
            obs = np.append(observed[keep], observed[~keep].sum())
            exp = np.append(expected[keep], expected[~keep].sum())
            stat = float(((obs - exp) ** 2 / exp).sum())
            assert chi2.sf(stat, obs.size - 1) > 1e-3
            assert abs(shifted.mean() - rate) < 4.0 * math.sqrt(rate / pick.sum())

    def test_runaway_cap_applies_to_every_replicate(self, monkeypatch):
        monkeypatch.setattr(samplers, "MAX_EXTENSION", 3)
        with pytest.raises(RunawayExtensionError) as err:
            extend_components(RngStream(seed=142), np.array([0.5, 1.0]),
                              np.array([0.4, 1e-12]), 5.0)
        assert err.value.cap == 3 and err.value.umin == 1e-12

    @pytest.mark.parametrize("residual,umin,alpha", [
        ([0.5, 0.0], [0.1, 0.1], 1.0), ([0.5, 1.5], [0.1, 0.1], 1.0),
        ([0.5, 0.5], [0.1, 0.0], 1.0), ([0.5, 0.5], [0.1, 1.0], 1.0),
        ([0.5, 0.5], [0.1, 0.1], 0.0), ([0.5, 0.5], [0.1], 1.0),
        ([[0.5]], [[0.1]], 1.0)])
    def test_bad_vector_input(self, residual, umin, alpha):
        with pytest.raises(ValueError):
            extend_components(RngStream(seed=0), np.asarray(residual),
                              np.asarray(umin), alpha)

    def test_replicate_form_takes_no_base(self):
        # it draws no atoms, so a base measure would go unused
        with pytest.raises(ValueError, match="takes no base"):
            extend_components(RngStream(seed=0), np.array([0.5, 0.9]),
                              np.array([0.2, 0.1]), 1.0, CFG)

    def test_zero_slices_are_redrawn(self):
        class FirstDrawZero:
            """Stream whose first uniform array is all zeros."""

            def __init__(self):
                self.calls = 0

            def random(self, size):
                self.calls += 1
                return np.zeros(size) if self.calls == 1 else np.full(size, 0.5)

        part = _labels_from_sizes([2, 1])
        alloc = np.array([[0.5, 0.25], [0.2, 0.4]])
        u, umin = sample_slices(FirstDrawZero(), part, alloc)
        assert np.array_equal(u, 0.5 * alloc[:, part.labels - 1])
        assert np.array_equal(umin, [0.125, 0.1])

    @pytest.mark.parametrize("sizes", [[1] * 6, [2, 1, 1, 1, 1], [1] * 20,
                                       [3, 1, 4, 1, 5]])
    @pytest.mark.parametrize("batch", [None, 1, 7])
    def test_slices_match_gathered_reference(self, sizes, batch):
        # singletons skip the gather and rows under 8 entries take their
        # minimum column by column; both give the gathered draw's numbers
        part = _labels_from_sizes(sizes)
        a, b = RngStream(seed=143), RngStream(seed=143)
        alloc, _ = sample_allocated_weights(a, part.sizes, 1.5, batch=batch)
        u, umin = sample_slices(a, part, alloc)
        alloc_b, _ = sample_allocated_weights(b, part.sizes, 1.5, batch=batch)
        own = alloc_b.take(part.labels - 1, axis=-1)
        ref = b.random(own.shape) * own
        assert u.tobytes() == ref.tobytes()
        assert np.array_equal(umin, ref.min(-1))
        assert a.bit_generator.state == b.bit_generator.state

    def test_zero_weight_rejected_in_any_row(self):
        part = _labels_from_sizes([1, 1])
        with pytest.raises(InconsistentStateError):
            sample_slices(RngStream(seed=0), part,
                          np.array([[0.5, 0.2], [0.5, 0.0]]))


def _ew_quadrature_moments(a, b, n, num_clusters, upper=60.0, m=40_001):
    """Mean and variance of p(alpha | H, n) by log-space trapezoid."""
    g = np.linspace(1e-9, upper, m)
    logp = ((a + num_clusters - 1.0) * np.log(g) - b * g
            + gammaln(g) - gammaln(g + n))
    w = np.exp(logp - logp.max())
    z = np.trapezoid(w, g)
    mean = np.trapezoid(g * w, g) / z
    second = np.trapezoid(g * g * w, g) / z
    return mean, second - mean * mean


class TestAlphaUpdate:
    def test_long_run_mean_matches_quadrature(self):
        a, n, h = 3.0, 5, 2
        b = 3.0 * math.log(5.0)
        target, _ = _ew_quadrature_moments(a, b, n, h)
        cfg = ModelConfig(alpha_prior_shape=a, alpha_prior_rate=b)
        rng = RngStream(seed=140)
        m = 1_000_000
        alpha = target
        total = 0.0
        for _ in range(m):
            alpha = update_alpha_escobar_west(rng, alpha, n, h, cfg)
            total += alpha
        assert abs(total / m - target) < 0.01 * target

    def test_huge_rate_drives_alpha_to_zero(self):
        cfg = ModelConfig(alpha_prior_shape=3.0, alpha_prior_rate=1e6)
        rng = RngStream(seed=141)
        alpha = 1.0
        draws = []
        for _ in range(1000):
            alpha = update_alpha_escobar_west(rng, alpha, 50, 5, cfg)
            draws.append(alpha)
        assert np.mean(draws) < 0.01

    def test_invariance_first_two_moments(self):
        a, n, h = 3.0, 50, 6
        b = 3.0 * math.log(50.0)
        mean, var = _ew_quadrature_moments(a, b, n, h)
        cfg = ModelConfig(alpha_prior_shape=a, alpha_prior_rate=b)
        rng = RngStream(seed=142)
        m = 10_000
        alpha = mean
        trace = np.empty(m)
        for i in range(m):
            alpha = update_alpha_escobar_west(rng, alpha, n, h, cfg)
            trace[i] = alpha
        batches = trace.reshape(50, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(trace.mean() - mean) < 4.0 * se + 1e-4
        assert abs(trace.var() - var) < 0.1 * var

    def test_alpha_fixed_short_circuits(self):
        cfg = ModelConfig(alpha_fixed=2.5)
        assert update_alpha_escobar_west(RngStream(seed=0), 1.0, 10, 3,
                                         cfg) == 2.5

    def test_unresolved_rate_rejected(self):
        with pytest.raises(ValueError):
            update_alpha_escobar_west(RngStream(seed=0), 1.0, 10, 3,
                                      ModelConfig())

    def test_bad_counts_rejected(self):
        cfg = ModelConfig(alpha_prior_rate=2.0)
        with pytest.raises(ValueError):
            update_alpha_escobar_west(RngStream(seed=0), 1.0, 0, 1, cfg)
        with pytest.raises(ValueError):
            update_alpha_escobar_west(RngStream(seed=0), -1.0, 10, 1, cfg)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_nan_and_inf_alpha_rejected_by_its_own_check(self, alpha):
        cfg = ModelConfig(alpha_prior_rate=2.0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            update_alpha_escobar_west(RngStream(seed=0), alpha, 10, 1, cfg)


class TestTruncationErrorBound:
    def test_printed_value(self):
        assert truncation_error_bound(600, 10, 1.0) == pytest.approx(
            2400.0 * math.exp(-9.0), rel=1e-12)
        assert truncation_error_bound(600, 10, 1.0) == pytest.approx(
            0.29618, abs=5e-6)

    def test_l_equal_one(self):
        assert truncation_error_bound(37, 1, 0.8) == pytest.approx(148.0)

    def test_monotone_in_l(self):
        vals = [truncation_error_bound(100, L, 1.3) for L in range(1, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_bad_input(self):
        with pytest.raises(ValueError):
            truncation_error_bound(0, 1, 1.0)
        with pytest.raises(ValueError):
            truncation_error_bound(1, 0, 1.0)
        with pytest.raises(ValueError):
            truncation_error_bound(1, 1, 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_nan_and_inf_alpha_rejected(self, alpha):
        # an infinite alpha would give the bound 4n whatever L is
        with pytest.raises(ValueError, match="alpha must be a positive finite number"):
            truncation_error_bound(10, 5, alpha)


class TestSliceAllocationUpdate:
    def test_singleton_active_set_deterministic(self):
        rng = RngStream(seed=150)
        # only component 1 exceeds the slice, so the far atom wins regardless
        labels, scored = slice_allocation_update(
            rng, np.array([5.0]), np.array([0.6, 0.05]),
            np.array([-5.0, 5.0]), np.array([0.3]), CFG)
        assert labels.tolist() == [1] and scored == 1

    def test_equidistant_atoms_split_evenly(self):
        rng = RngStream(seed=151)
        m = 40_000
        y = np.zeros(m)
        picks, _ = slice_allocation_update(
            rng, y, np.array([0.5, 0.5]), np.array([-1.0, 1.0]),
            np.full(m, 0.25), CFG)
        assert abs(np.mean(picks == 1) - 0.5) < 0.01

    def test_likelihood_ratio(self):
        rng = RngStream(seed=152)
        m = 40_000
        picks, _ = slice_allocation_update(
            rng, np.zeros(m), np.array([0.5, 0.5]), np.array([0.0, 3.0]),
            np.full(m, 0.1), CFG)
        p0 = 1.0 / (1.0 + math.exp(-4.5))
        assert abs(np.mean(picks == 1) - p0) < 0.01

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_never_assigns_below_slice(self, seed):
        gen = np.random.default_rng(seed)
        k = int(gen.integers(2, 7))
        n = int(gen.integers(1, 12))
        w = gen.dirichlet(np.ones(k) * 2.0) * 0.9
        atoms = gen.normal(size=k)
        y = gen.normal(size=n)
        own = gen.integers(0, k, size=n)
        slices = w[own] * gen.random(n)
        slices = np.maximum(slices, 1e-12)
        labels, scored = slice_allocation_update(RngStream(seed=seed), y, w,
                                                 atoms, slices, CFG)
        assert np.all(w[labels - 1] > slices)
        assert scored == int((w[:, None] > slices).sum())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1e200, math.nan])
    def test_lone_candidate_with_nonfinite_log_weight_rejected(self, bad):
        # slices 0.1 and 0.5 under weights 0.3 and 0.7: the first observation
        # has both candidates, the second only the heavier one, whose log
        # weight overflows to -inf at 1e200 and is NaN at NaN; the rule
        # raises on such a one-entry list, and the pass must too
        args = (np.array([0.3, 0.7]), np.array([0.0, 1.0]),
                np.array([0.1, 0.5]), CFG)
        assert slice_allocation_update(RngStream(seed=0), np.array([0.2, 0.4]),
                                       *args)[0][1] == 2
        with pytest.raises(NoValidCategoryError):
            slice_allocation_update(RngStream(seed=0), np.array([0.2, bad]),
                                    *args)

    def test_slice_above_every_weight_rejected(self):
        with pytest.raises(InconsistentStateError):
            slice_allocation_update(RngStream(seed=0), np.array([0.0]),
                                    np.array([0.2, 0.1]), np.array([0.0, 1.0]),
                                    np.array([0.5]), CFG)

    # weights in increasing order, and a slice that leaves each observation
    # its candidates from that position on: 0.05 all three, 0.2 the last
    # two, 0.4 the heaviest alone
    W3 = np.array([0.1, 0.3, 0.6])
    SLICE_AT = {0: 0.05, 1: 0.2, 2: 0.4}

    @given(seed=st.integers(min_value=0, max_value=2**32),
           n=st.integers(min_value=1, max_value=60),
           k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_observation_reference(self, seed, n, k):
        # groups of every size up to n, on both sides of the block threshold
        gen = np.random.default_rng(seed)
        w = gen.dirichlet(np.full(k, 2.0)) * 0.9
        atoms = gen.normal(0.0, 2.0, k)
        y = gen.normal(0.0, 2.0, n)
        slices = np.maximum(w[gen.integers(0, k, n)] * gen.random(n), 1e-12)
        a, b = RngStream(seed=seed), RngStream(seed=seed)
        got, scored = slice_allocation_update(a, y, w, atoms, slices, CFG)
        want, want_scored = _reference_slice_allocation(b, y, w, atoms,
                                                        slices, CFG)
        assert got.tolist() == want.tolist()
        assert scored == want_scored
        assert a.random() == b.random()

    def test_groups_either_side_of_the_block_threshold(self):
        # SLICE_BLOCK_MIN_M observations whose first candidate is position 1
        # are scored as one (2, m) block; the m - 1 at position 0 loop, one
        # three-candidate call each. The two groups interleave in data order.
        m = samplers.SLICE_BLOCK_MIN_M
        slices = np.resize([self.SLICE_AT[1], self.SLICE_AT[0]], 2 * m - 1)
        y = np.random.default_rng(3).normal(0.0, 1.0, slices.size)
        atoms = np.array([-1.0, 0.0, 1.0])
        blocks, loops = [], []
        columns, index = samplers._categorical_columns, samplers.categorical_index

        def block(logw, u):
            blocks.append(logw.shape)
            return columns(logw, u)

        def loop(logw, u):
            loops.append(len(logw))
            return index(logw, u)
        a, b = RngStream(seed=4), RngStream(seed=4)
        with mock.patch.object(samplers, "_categorical_columns", block), \
                mock.patch.object(samplers, "categorical_index", loop):
            got, scored = slice_allocation_update(a, y, self.W3, atoms,
                                                  slices, CFG)
        assert blocks == [(2, m)] and loops == [3] * (m - 1)
        want, want_scored = _reference_slice_allocation(b, y, self.W3, atoms,
                                                        slices, CFG)
        assert got.tolist() == want.tolist()
        assert scored == want_scored == 2 * m + 3 * (m - 1)
        assert a.random() == b.random()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1e200, math.inf, math.nan])
    @pytest.mark.parametrize("first", [1, 2])
    def test_block_with_nonfinite_log_weight_rejected(self, bad, first):
        # a block group whose first candidate is the heaviest alone (2) or
        # the last two (1); one member's log weights overflow to -inf or are
        # NaN, and the block must raise as the rule does, without a warning
        m = samplers.SLICE_BLOCK_MIN_M
        args = (self.W3, np.array([-1.0, 0.0, 1.0]),
                np.full(m, self.SLICE_AT[first]), CFG)
        y = np.linspace(-1.0, 1.0, m)
        assert slice_allocation_update(RngStream(seed=0), y, *args)[1] == \
            m * (3 - first)
        y[m // 2] = bad
        with pytest.raises(NoValidCategoryError):
            slice_allocation_update(RngStream(seed=0), y, *args)

    def test_uniform_rounding_up_to_the_total_in_a_block(self):
        # u = 1 makes u * total equal the total, so no running sum exceeds
        # it; the pick is then the last candidate with mass, here the second
        # of the block's three, since the heaviest one's log weight
        # underflows (its atom lies 100 sd away)
        m = samplers.SLICE_BLOCK_MIN_M
        args = (np.zeros(m), self.W3, np.array([0.0, 0.0, 100.0]),
                np.full(m, self.SLICE_AT[0]), CFG)
        got, _ = slice_allocation_update(_Ones(), *args)
        want, _ = _reference_slice_allocation(_Ones(), *args)
        assert got.tolist() == want.tolist() == [2] * m


class _Ones:
    """Stub stream whose every uniform is 1.0, one per scalar call and m
    per ``random(m)`` call."""

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)


DATA6 = np.array([-3.2, -2.8, 0.1, -0.2, 3.0, 3.3])


def _oracle_tv(sweep, sweeps=10_000, burnin=500, seed=160, **kw):
    cfg = ModelConfig(alpha_fixed=1.0)
    exact = exact_posterior(DATA6, 1.0, cfg)
    states = _chain_states(sweep, DATA6, cfg, RngStream(seed=seed),
                           sweeps, burnin, **kw)
    return tv_distance(_empirical_partition_law(states), exact), exact


class TestSweepInvariants:
    @pytest.mark.parametrize("sweep,kw", [
        (slice_sweep, {}),
        (slice_sweep_marginal_atoms, {}),
        (bgs_sweep, {"L": 4}),
        (crp_sweep_atoms, {}),
        (crp_sweep_collapsed, {}),
    ])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_state_and_record_wellformed(self, sweep, kw, seed, n):
        # the slice samplers' weight, slice and extension draws are checked
        # on every sweep (_check_slice_draw)
        sliced = sweep in (slice_sweep, slice_sweep_marginal_atoms)
        gen = np.random.default_rng(seed)
        y = gen.normal(gen.choice([-3.0, 0.0, 3.0], n), 1.0)
        cfg = ModelConfig().resolved_for(n)
        rng = RngStream(seed=seed)
        init = np.arange(n) % kw["L"] + 1 if "L" in kw else np.arange(1, n + 1)
        state = MixtureState(partition=relabel_compact(init), alpha=1.0)
        for it in range(15):
            with _slice_draw_spy() as draws:
                state, rec = sweep(state, y, cfg, rng, iteration=it, **kw)
            assert len(draws) == sliced
            if sliced:
                assert rec.k_total == _check_slice_draw(draws[0])
            state.validate()
            assert rec.k_total >= rec.num_clusters >= 1
            assert rec.num_clusters == state.partition.num_blocks
            assert math.isfinite(rec.loglik) and rec.alpha > 0.0
            assert rec.elapsed_ns >= 0 and rec.iteration == it

    def test_slice_single_observation_single_cluster(self):
        cfg = ModelConfig(alpha_fixed=1.0)
        rng = RngStream(seed=162)
        state = MixtureState(partition=relabel_compact([1]), alpha=1.0)
        for _ in range(200):
            state, rec = slice_sweep(state, np.array([0.4]), cfg, rng)
            assert rec.num_clusters == 1

    def test_slice_tv_against_enumeration(self):
        tv, _ = _oracle_tv(slice_sweep)
        assert tv < 0.1

    def test_marginal_tv_against_enumeration(self):
        tv, _ = _oracle_tv(slice_sweep_marginal_atoms, seed=163)
        assert tv < 0.1

    def test_crp_atoms_tv_against_enumeration(self):
        tv, _ = _oracle_tv(crp_sweep_atoms, seed=164)
        assert tv < 0.1

    def test_crp_collapsed_tv_against_enumeration(self):
        tv, _ = _oracle_tv(crp_sweep_collapsed, seed=165)
        assert tv < 0.1

    def test_marginal_slower_than_slice_per_sweep(self):
        gen = np.random.default_rng(5)
        y = np.concatenate([gen.normal(-3.0, 1.0, 100),
                            gen.normal(0.0, 1.0, 100),
                            gen.normal(3.0, 1.0, 100)])
        cfg = ModelConfig().resolved_for(y.size)

        def median_sweep_ns(sweep):
            rng = RngStream(seed=166)
            state = MixtureState(
                partition=relabel_compact(np.arange(1, y.size + 1)), alpha=1.0)
            times = []
            for _ in range(100):
                state, rec = sweep(state, y, cfg, rng)
                times.append(rec.elapsed_ns)
            return np.median(times)

        assert median_sweep_ns(slice_sweep_marginal_atoms) >= \
            median_sweep_ns(slice_sweep)


def _reference_marginal_pass(rng, y_l, labels_l, all_w, slices, cfg):
    """The marginal allocation pass with every candidate's predictive worked
    out from scratch for each observation, and the number of terms scored."""
    order = np.argsort(all_w, kind="stable")
    pos = np.searchsorted(all_w[order], slices, side="right").tolist()
    counts = [0] * all_w.size
    sums = [0.0] * all_w.size
    for c, yi in zip(labels_l, y_l):
        counts[c - 1] += 1
        sums[c - 1] += yi
    s2, v0, m0 = cfg.sigma2, cfg.base_var, cfg.base_mean
    labels = list(labels_l)
    scored = 0
    for i, yi in enumerate(y_l):
        counts[labels[i] - 1] -= 1
        sums[labels[i] - 1] -= yi
        logw = []
        for k in order[pos[i]:].tolist():
            prec = 1.0 / v0 + counts[k] / s2
            mean = (m0 / v0 + sums[k] / s2) / prec
            var = 1.0 / prec + s2
            d = yi - mean
            logw.append(-0.5 * (LOG_2PI + math.log(var) + d * d / var))
        scored += len(logw)
        k = int(order[pos[i] + sample_categorical_logweights(rng, logw)])
        labels[i] = k + 1
        counts[k] += 1
        sums[k] += yi
    return labels, scored


def _reference_slice_allocation(rng, data, all_w, atoms, slices, cfg,
                                singles=None):
    """The slice allocation pass with one ``sample_categorical_logweights``
    call per observation, single-candidate ones included, and the number of
    log weights it scored; appends to ``singles`` whether each observation
    had one candidate."""
    order = np.argsort(all_w, kind="stable")
    pos = np.searchsorted(all_w[order], slices, side="right").tolist()
    atoms_l = np.asarray(atoms, dtype=float).tolist()
    inv2s = 0.5 / cfg.sigma2
    out = []
    scored = 0
    for yi, p in zip(np.asarray(data, dtype=float).tolist(), pos):
        logw = []
        for k in order[p:].tolist():
            d = yi - atoms_l[k]
            logw.append(-inv2s * d * d)
        if singles is not None:
            singles.append(len(logw) == 1)
        scored += len(logw)
        out.append(int(order[p + sample_categorical_logweights(rng, logw)]) + 1)
    return np.array(out), scored


def _reference_crp_collapsed(state, data, cfg, rng, iteration=0):
    """The collapsed urn sweep with every cluster's predictive worked out
    from scratch and one ``sample_categorical_logweights`` call per
    observation; it counts the log weights it scores."""
    def kernel(y, part, alpha):
        prior = _conjugate_prior(cfg)
        s2 = prior[2]
        m0, pvar, _ = _predictive(0, 0.0, prior)
        counts = part.sizes.tolist()
        sums = np.bincount(part.labels, weights=y)[1:].tolist()
        labels = part.labels.tolist()
        active = list(range(len(counts)))
        free = []
        scored = 0
        for i, yi in enumerate(y.tolist()):
            c = labels[i] - 1
            counts[c] -= 1
            sums[c] -= yi
            if counts[c] == 0:
                active.remove(c)
                free.append(c)
            logw = []
            for k in active:
                mean, var, _ = _predictive(counts[k], sums[k], prior)
                d = yi - mean
                logw.append(math.log(counts[k])
                            - 0.5 * (LOG_2PI + math.log(var) + d * d / var))
            d0 = yi - m0
            logw.append(math.log(alpha) - 0.5 * (LOG_2PI + math.log(pvar))
                        - 0.5 / pvar * d0 * d0)
            scored += len(logw)
            idx = sample_categorical_logweights(rng, logw)
            if idx == len(active):
                slot = free.pop() if free else len(counts)
                if slot == len(counts):
                    counts.append(0)
                    sums.append(0.0)
                active.append(slot)
            else:
                slot = active[idx]
            counts[slot] += 1
            sums[slot] += yi
            labels[i] = slot + 1
        return labels, len(active), None, scored
    return samplers._sweep(kernel, state, data, cfg, rng, iteration)


class TestAllocationPassesMatchPerObservationDraws:
    """The slice, marginal slice and collapsed urn passes draw their n
    uniforms with one ``rng.random(n)`` call and pick with the pure
    categorical rule; their chains must equal those of references that make
    one ``sample_categorical_logweights`` call per observation."""

    @staticmethod
    def _chain(kind, y, cfg, init):
        res = run_chain(y, cfg, RngStream(seed=210), kind, iters=30, burnin=0,
                        init_labels=init, time_budget_s=600.0)
        return ([(r.k_total, r.num_clusters, r.loglik, r.alpha, r.candidates)
                 for r in res.records], [s.tolist() for s in res.snapshots])

    @pytest.mark.parametrize("data", ["three-cluster", "one-block", "n=1",
                                      "zipf"])
    @pytest.mark.parametrize("kind", [SamplerKind.SLICE,
                                      SamplerKind.SLICE_MARGINAL,
                                      SamplerKind.CRP_COLLAPSED])
    def test_chain_matches_reference(self, monkeypatch, kind, data):
        gen = np.random.default_rng(11)
        cfg, init = ModelConfig(), None
        if data == "three-cluster":
            y = np.concatenate([gen.normal(-4.0, 1.0, 10),
                                gen.normal(0.0, 1.0, 10),
                                gen.normal(4.0, 1.0, 10)])
        elif data == "one-block":
            # one heavy block: almost every slice lies above every other
            # weight, so most observations have a single candidate
            y = gen.normal(0.0, 0.3, 60)
            cfg, init = ModelConfig(alpha_fixed=1.0), np.ones(60, dtype=int)
        elif data == "zipf":
            # the README's power-law data from a k-means start: 43% of slice
            # observations have one candidate, the heaviest component
            y = make_dataset("zipf", RngStream(seed=11), 100).y
            init = kmeans_init(y, RngStream(seed=11, stream=1)).labels
        else:
            y = np.array([0.7])
        got = self._chain(kind, y, cfg, init)
        singles = []
        if kind is SamplerKind.SLICE:
            def ref(*args):
                return _reference_slice_allocation(*args, singles=singles)
            monkeypatch.setattr(samplers, "slice_allocation_update", ref)
        elif kind is SamplerKind.SLICE_MARGINAL:
            monkeypatch.setattr(samplers, "_marginal_allocation_pass",
                                _reference_marginal_pass)
        else:
            monkeypatch.setattr(samplers, "crp_sweep_collapsed",
                                _reference_crp_collapsed)
        assert self._chain(kind, y, cfg, init) == got
        if data == "one-block" and kind is SamplerKind.SLICE:
            assert 0.5 < np.mean(singles) < 1.0
        if data == "zipf" and kind is SamplerKind.SLICE:
            assert 0.3 < np.mean(singles) < 0.7


def _criterion_7_candidates(sampler: str, n: int, index: int,
                            sweeps: int = 200) -> float:
    """The median of the trace's per-sweep candidate count over the first
    ``sweeps`` sweeps of criterion 7's (sampler, n) cell: its data, start,
    seed and grid index."""
    chains = []
    run_chain_ = cli.run_chain

    def kept(*args, **kwargs):
        chains.append(run_chain_(*args, **kwargs))
        return chains[-1]
    with mock.patch.object(cli, "run_chain", kept):
        row = _benchmark_cell({
            "sampler": sampler, "n": n, "dataset_kind": "three-cluster",
            "dataset_params": {}, "iters": sweeps, "burnin": 0,
            "time_budget_s": 600.0, "sigma2": 1.0, "alpha_fixed": None,
            "seed": 12345, "index": index})
    assert not row["infeasible"] and len(chains[0].records) == sweeps
    return float(np.median([r.candidates for r in chains[0].records]))


class TestSliceWorkScaling:
    """Count-based companions of criterion 7's slice and ratio clauses,
    which time sweeps on the wall clock. On criterion 7's own slice cells,
    the median number of likelihood terms a sweep scores, sum over i of
    (K - p_i), grows near-linearly in n. Components drawn below every slice
    are never candidates, so the count sees more components only where
    observations score them."""

    NS = (150, 300, 600, 1500, 3000)

    @pytest.fixture(scope="class")
    def slice_medians(self):
        return [_criterion_7_candidates("slice", n, idx)
                for idx, n in enumerate(self.NS)]

    def test_candidate_count_slope_on_criterion_7_cells(self, slice_medians):
        slope = float(np.polyfit(np.log(self.NS), np.log(slice_medians), 1)[0])
        assert 0.8 <= slope <= 1.3, (slope, slice_medians)

    def test_crp_atoms_scores_more_than_slice_at_n_3000(self, slice_medians):
        # criterion 7's crp-atoms cell is the grid's ninth (index 8); the urn
        # scores every cluster left and a new one for each observation
        crp = _criterion_7_candidates("crp-atoms", 3000, 8)
        assert crp > slice_medians[-1], (crp, slice_medians[-1])


class TestMarginalPredictive:
    def test_empty_component_prior_predictive(self):
        mean, var, norm = _predictive(0, 0.0, _conjugate_prior(CFG))
        assert (mean, var, norm) == (0.0, 2.0, LOG_2PI + math.log(2.0))
        density = math.exp(-0.5 * mean ** 2 / var) / math.sqrt(2.0 * math.pi * var)
        assert density == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-12)
        assert density == pytest.approx(0.2821, abs=5e-5)

    def test_single_member_predictive(self):
        mean, var, norm = _predictive(1, 2.0, _conjugate_prior(CFG))
        assert mean == pytest.approx(1.0) and var == pytest.approx(1.5)
        assert norm == LOG_2PI + math.log(var)
        density = math.exp(-0.5 * (2.0 - mean) ** 2 / var) \
            / math.sqrt(2.0 * math.pi * var)
        assert density == pytest.approx(0.2334, abs=5e-4)

    def test_predictive_matches_oracle_marginal_off_default(self):
        # distinct noise and prior variances and a nonzero prior mean, so a
        # swapped variance or a dropped prior mean changes the value
        cfg = ModelConfig(sigma2=0.7, base_mean=0.5, base_var=3.0)
        prior = _conjugate_prior(cfg)
        members = [1.2, -0.4, 2.0]
        for k in range(len(members) + 1):
            y = 0.9 - k
            mean, var, norm = _predictive(k, sum(members[:k]), prior)
            d = y - mean
            expected = cluster_log_marginal(members[:k] + [y], cfg)
            if k:
                expected -= cluster_log_marginal(members[:k], cfg)
            assert -0.5 * (norm + d * d / var) == pytest.approx(expected, rel=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32),
           n=st.integers(min_value=1, max_value=25),
           sigma2=st.sampled_from([1.0, 0.7, 2.5]),
           base_mean=st.sampled_from([0.0, 0.5, -3.0]),
           base_var=st.sampled_from([1.0, 3.0, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_kept_entries_reproduce_recomputed_predictives(
            self, seed, n, sigma2, base_mean, base_var):
        # the pass keeps each component's predictive and refreshes two per
        # observation; the reference works out every candidate's predictive
        # from scratch, and both must draw the same labels from the same
        # stream position
        cfg = ModelConfig(sigma2=sigma2, base_mean=base_mean,
                          base_var=base_var)
        gen = np.random.default_rng(seed)
        y_l = gen.normal(0.0, 3.0, n).tolist()
        part = relabel_compact(gen.integers(1, 5, n))
        rng = RngStream(seed=seed)
        allocated, residual = sample_allocated_weights(rng, part.sizes, 1.0)
        slices, umin = sample_slices(rng, part, allocated)
        tail, _, _ = extend_components(rng, residual, umin, 1.0)
        all_w = np.concatenate([allocated, tail])
        a, b = RngStream(seed=seed, stream=1), RngStream(seed=seed, stream=1)
        got = _marginal_allocation_pass(a, y_l, part.labels.tolist(), all_w,
                                        slices, cfg)
        assert got == _reference_marginal_pass(b, y_l, part.labels.tolist(),
                                               all_w, slices, cfg)
        assert a.random() == b.random()

    def test_array_posterior_equals_scalar_posterior(self):
        prior = _conjugate_prior(ModelConfig(sigma2=0.7, base_mean=0.5,
                                             base_var=3.0))
        counts = np.array([0, 1, 4, 17])
        sums = np.array([0.0, -1.3, 2.9, 40.1])
        means, variances = _posterior(counts, sums, prior)
        for h in range(counts.size):
            assert (means[h], variances[h]) == _posterior(
                int(counts[h]), float(sums[h]), prior)


class TestBlockedGibbs:
    def test_l1_always_one_block(self):
        cfg = ModelConfig(alpha_fixed=1.0)
        rng = RngStream(seed=170)
        state = MixtureState(partition=relabel_compact([1, 1, 1]), alpha=1.0)
        for _ in range(100):
            state, rec = bgs_sweep(state, np.array([-4.0, 0.0, 4.0]), cfg, rng,
                                   L=1)
            assert state.partition.labels.tolist() == [1, 1, 1]
            assert rec.k_total == 1

    def test_k_recorded_as_l(self):
        cfg = ModelConfig(alpha_fixed=1.0)
        state = MixtureState(partition=relabel_compact([1, 2, 1]), alpha=1.0)
        _, rec = bgs_sweep(state, np.array([0.0, 1.0, -1.0]), cfg,
                           RngStream(seed=171), L=7)
        assert rec.k_total == 7

    def test_never_exceeds_truncation(self):
        cfg = ModelConfig(alpha_fixed=5.0)  # high alpha pushes toward many blocks
        rng = RngStream(seed=172)
        gen = np.random.default_rng(3)
        y = gen.normal(size=12) * 4.0
        state = MixtureState(partition=relabel_compact((np.arange(12) % 2) + 1),
                             alpha=5.0)
        for _ in range(300):
            state, _ = bgs_sweep(state, y, cfg, rng, L=2)
            assert state.partition.num_blocks <= 2

    def test_initial_blocks_above_l_rejected(self):
        state = MixtureState(partition=relabel_compact([1, 2, 3]), alpha=1.0)
        with pytest.raises(InconsistentStateError):
            bgs_sweep(state, np.zeros(3), ModelConfig(alpha_fixed=1.0),
                      RngStream(seed=0), L=2)

    def test_bad_l(self):
        state = MixtureState(partition=relabel_compact([1]), alpha=1.0)
        with pytest.raises(ValueError):
            bgs_sweep(state, np.zeros(1), ModelConfig(alpha_fixed=1.0),
                      RngStream(seed=0), L=0)

    @pytest.mark.parametrize("L", ["5", True, 2.5, None])
    def test_non_integer_l(self, L):
        state = MixtureState(partition=relabel_compact([1]), alpha=1.0)
        with pytest.raises(ValueError):
            bgs_sweep(state, np.zeros(1), ModelConfig(alpha_fixed=1.0),
                      RngStream(seed=0), L=L)

    @pytest.mark.parametrize("L,block", [(3, 7), (5, 5), (4, 1 << 14), (40, 7)])
    def test_block_draws_match_per_observation_calls(self, monkeypatch, L,
                                                     block):
        # blocks of BGS_BLOCK_WEIGHTS // L observations (at least one), the
        # last one short; the chain must be the one that one scalar draw per
        # observation gives
        import dpslice.samplers as samplers

        y = np.random.default_rng(8).normal(size=23) * 3.0

        def chain():
            res = run_chain(y, ModelConfig(), RngStream(seed=173),
                            SamplerKind.BLOCKED_GIBBS, iters=40, burnin=0, L=L)
            return ([(r.k_total, r.num_clusters, r.loglik, r.alpha)
                     for r in res.records], res.snapshots)

        def per_observation(rng, logw):
            assert logw.shape[0] == L and logw.shape[1] <= max(1, block // L)
            return np.array([sample_categorical_logweights(rng, col)
                             for col in logw.T.tolist()])

        monkeypatch.setattr(samplers, "BGS_BLOCK_WEIGHTS", block)
        records, snapshots = chain()
        monkeypatch.setattr(samplers, "sample_categorical_logweights",
                            per_observation)
        ref_records, ref_snapshots = chain()
        assert records == ref_records
        assert all(np.array_equal(a, b) for a, b in zip(snapshots, ref_snapshots))

    def test_finite_dirichlet_partition_law(self):
        # with L=3 and n=5 the exact chain target is the symmetric
        # Dirichlet(alpha/L) mixture law; enumerate it directly
        alpha, L = 1.0, 3
        y = np.array([-2.0, -1.9, 0.0, 1.8, 2.1])
        cfg = ModelConfig(alpha_fixed=alpha)
        from dpslice.oracle import (cluster_log_marginal,
                                    enumerate_partitions)
        from scipy.special import logsumexp

        def log_finite_eppf(sizes):
            # L! / (L-H)! * prod Gamma(n_h + alpha/L) / Gamma(alpha/L),
            # normalized over all partitions with H <= L below
            h = len(sizes)
            if h > L:
                return -np.inf
            val = (gammaln(L + 1.0) - gammaln(L - h + 1.0))
            for nh in sizes:
                val += gammaln(nh + alpha / L) - gammaln(alpha / L)
            return val

        labels_all = list(enumerate_partitions(5))
        scores = []
        for lab in labels_all:
            sizes = np.bincount(lab)[1:]
            s = log_finite_eppf(sizes.tolist())
            if s > -np.inf:
                s += sum(cluster_log_marginal(y[lab == b + 1], cfg)
                         for b in range(int(lab.max())))
            scores.append(s)
        scores = np.array(scores)
        target = np.exp(scores - logsumexp(scores[np.isfinite(scores)]))
        target[~np.isfinite(scores)] = 0.0

        rng = RngStream(seed=173)
        state = MixtureState(partition=relabel_compact([1, 2, 3, 1, 2]),
                             alpha=alpha)
        freq = np.zeros(len(labels_all))
        index = {tuple(lab.tolist()): i for i, lab in enumerate(labels_all)}
        sweeps = 30_000
        for _ in range(500):
            state, _ = bgs_sweep(state, y, cfg, rng, L=L)
        for _ in range(sweeps):
            state, _ = bgs_sweep(state, y, cfg, rng, L=L)
            freq[index[tuple(state.partition.labels.tolist())]] += 1
        tv = 0.5 * np.abs(freq / sweeps - target).sum()
        assert tv < 0.05
        # and the truncated region carries exactly zero empirical mass
        over = [index[tuple(lab.tolist())] for lab in labels_all
                if lab.max() > L]
        assert freq[over].sum() == 0.0


class TestCrpSweeps:
    def test_single_observation_forces_new_cluster(self):
        cfg = ModelConfig(alpha_fixed=1.0)
        rng = RngStream(seed=180)
        state = MixtureState(partition=relabel_compact([1]), alpha=1.0)
        for _ in range(100):
            state, rec = crp_sweep_atoms(state, np.array([1.3]), cfg, rng)
            assert rec.num_clusters == 1
            assert math.isfinite(rec.loglik)

    def test_tiny_alpha_collapses(self):
        cfg = ModelConfig(alpha_fixed=1e-8)
        rng = RngStream(seed=181)
        gen = np.random.default_rng(0)
        y = gen.normal(size=8)
        state = MixtureState(partition=relabel_compact(np.arange(1, 9)),
                             alpha=1e-8)
        for _ in range(20):
            state, _ = crp_sweep_atoms(state, y, cfg, rng)
        hs = []
        for _ in range(500):
            state, rec = crp_sweep_atoms(state, y, cfg, rng)
            hs.append(rec.num_clusters)
        assert np.mean(np.asarray(hs) == 1) > 0.99

    def test_collapsed_coclustering_monotone_in_alpha(self):
        y = np.array([0.0, 0.0])

        def together_rate(alpha, seed):
            cfg = ModelConfig(alpha_fixed=alpha)
            states = _chain_states(crp_sweep_collapsed, y, cfg,
                                   RngStream(seed=seed), 4000, 200)
            return np.mean([s.partition.num_blocks == 1 for s in states])

        assert together_rate(0.1, 182) > together_rate(10.0, 183) + 0.2


URN_SWEEPS = pytest.mark.parametrize("sweep", [
    slice_sweep, slice_sweep_marginal_atoms, crp_sweep_atoms,
    crp_sweep_collapsed], ids=["slice", "slice-marginal", "crp-atoms",
                               "crp-collapsed"])


class TestUrnLawUnderFlatLikelihood:
    """With every observation at 0 and sigma2 = 1e12, every block's marginal
    likelihood is about 1e-11 whatever its members, so the posterior over
    partitions is the urn law with concentration alpha. A slice sweep whose
    occupied weights are fresh Beta(1, alpha) sticks, as in the printed
    generative recipe, fails both checks."""

    @staticmethod
    def _flat(alpha):
        return ModelConfig(alpha_fixed=alpha, sigma2=1e12)

    @URN_SWEEPS
    def test_mean_cluster_count(self, sweep):
        # stationary mean of H at n=20, alpha=1 is sum_{i=0}^{19} 1/(1+i)
        n, alpha = 20, 1.0
        target = sum(alpha / (alpha + i) for i in range(n))
        states = _chain_states(sweep, np.zeros(n), self._flat(alpha),
                               RngStream(seed=190), 8000, 500)
        hs = np.array([s.partition.num_blocks for s in states], dtype=float)
        batches = hs.reshape(40, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(hs.mean() - target) < 4.0 * se + 0.01

    @URN_SWEEPS
    def test_pair_coclustering(self, sweep):
        # P(two items together) under the urn law is 1/(1+alpha)
        states = _chain_states(sweep, np.zeros(2), self._flat(1.0),
                               RngStream(seed=191), 20_000, 0)
        together = np.mean([s.partition.num_blocks == 1 for s in states])
        assert abs(together - 0.5) < 0.015


class TestMakeSweep:
    def test_bgs_requires_l(self):
        with pytest.raises(ValueError):
            make_sweep(SamplerKind.BLOCKED_GIBBS)

    @pytest.mark.parametrize("L", ["5", True, 2.5, 0, -1])
    def test_bgs_l_must_be_a_positive_integer(self, L):
        with pytest.raises(ValueError, match="truncation level"):
            make_sweep(SamplerKind.BLOCKED_GIBBS, L)
        with pytest.raises(ValueError, match="truncation level"):
            run_chain(TestRunChain.Y, ModelConfig(), RngStream(seed=0),
                      SamplerKind.BLOCKED_GIBBS, iters=2, burnin=0, L=L)

    def test_bgs_accepts_numpy_integer_l(self):
        assert callable(make_sweep(SamplerKind.BLOCKED_GIBBS, np.int64(3)))

    def test_l_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            make_sweep(SamplerKind.SLICE, L=5)

    def test_prior_kind_has_no_data_sweep(self):
        with pytest.raises(ValueError):
            make_sweep("prior")

    def test_accepts_string_kinds(self):
        assert make_sweep("slice") is slice_sweep
        fn = make_sweep("bgs", L=3)
        state = MixtureState(partition=relabel_compact([1, 1]), alpha=1.0)
        new_state, rec = fn(state, np.array([0.0, 0.1]),
                            ModelConfig(alpha_fixed=1.0), RngStream(seed=0))
        assert rec.k_total == 3


class TestRunChain:
    Y = np.array([-3.1, -2.9, 0.0, 0.2, 2.9, 3.1, -3.0, 0.1])

    def test_record_and_snapshot_counts(self):
        res = run_chain(self.Y, ModelConfig(), RngStream(seed=200),
                        SamplerKind.SLICE, iters=40, burnin=10)
        assert len(res.records) == 50
        assert len(res.snapshots) == 40
        assert res.snapshot_iters[0] == 11 and res.snapshot_iters[-1] == 50
        assert not res.infeasible
        res.final_state.validate()

    def test_snapshot_thinning(self, monkeypatch):
        import dpslice.samplers as samplers
        monkeypatch.setattr(samplers, "default_snapshot_thin", lambda n: 3)
        res = run_chain(self.Y, ModelConfig(), RngStream(seed=201),
                        SamplerKind.SLICE, iters=30, burnin=5)
        assert len(res.snapshots) == 10
        assert res.snapshot_iters == [8, 11, 14, 17, 20, 23, 26, 29, 32, 35]

    def test_default_thin_switches_at_2000(self):
        assert default_snapshot_thin(2000) == 1
        assert default_snapshot_thin(2001) == 5

    def test_k_at_least_h_everywhere(self):
        for kind, L in ((SamplerKind.SLICE, None),
                        (SamplerKind.BLOCKED_GIBBS, 5),
                        (SamplerKind.CRP_COLLAPSED, None)):
            res = run_chain(self.Y, ModelConfig(), RngStream(seed=202),
                            kind, iters=30, burnin=0, L=L)
            assert all(r.k_total >= r.num_clusters for r in res.records)

    def test_deterministic_under_seed(self):
        a = run_chain(self.Y, ModelConfig(), RngStream(seed=203),
                      SamplerKind.SLICE, iters=25, burnin=5)
        b = run_chain(self.Y, ModelConfig(), RngStream(seed=203),
                      SamplerKind.SLICE, iters=25, burnin=5)
        assert [r.loglik for r in a.records] == [r.loglik for r in b.records]
        assert [r.alpha for r in a.records] == [r.alpha for r in b.records]
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.snapshots, b.snapshots))

    def test_bgs_default_init_respects_l(self):
        res = run_chain(self.Y, ModelConfig(), RngStream(seed=204),
                        SamplerKind.BLOCKED_GIBBS, iters=10, burnin=0, L=2)
        assert all(r.k_total == 2 for r in res.records)

    @pytest.mark.parametrize("kind,L", [(SamplerKind.SLICE, None),
                                        (SamplerKind.SLICE_MARGINAL, None),
                                        (SamplerKind.BLOCKED_GIBBS, 4),
                                        (SamplerKind.CRP_ATOMS, None),
                                        (SamplerKind.CRP_COLLAPSED, None)])
    def test_non_canonical_start_gives_the_canonical_chain(self, kind, L):
        # sweeps take the state's partition as canonical; run_chain makes
        # the start so
        raw = np.array([9, 9, 4, 70, 4, 9, 2, 70])
        a = run_chain(self.Y, ModelConfig(), RngStream(seed=208), kind,
                      iters=20, burnin=0, init_labels=raw, L=L)
        b = run_chain(self.Y, ModelConfig(), RngStream(seed=208), kind,
                      iters=20, burnin=0, init_labels=relabel_compact(raw).labels,
                      L=L)
        assert [(r.k_total, r.num_clusters, r.loglik, r.alpha) for r in a.records] \
            == [(r.k_total, r.num_clusters, r.loglik, r.alpha) for r in b.records]
        assert all(np.array_equal(x, y) for x, y in zip(a.snapshots, b.snapshots))

    def test_custom_init_labels(self):
        res = run_chain(self.Y, ModelConfig(), RngStream(seed=205),
                        SamplerKind.SLICE, iters=5, burnin=0,
                        init_labels=np.ones(8, dtype=int))
        assert len(res.records) == 5

    def test_infeasibility_flag(self):
        res = run_chain(self.Y, ModelConfig(), RngStream(seed=206),
                        SamplerKind.SLICE, iters=100, burnin=0,
                        time_budget_s=0.0)
        assert res.infeasible
        assert len(res.records) < 100

    def test_prior_kind_rejected(self):
        with pytest.raises(ValueError):
            run_chain(self.Y, ModelConfig(), RngStream(seed=0),
                      "prior", iters=5, burnin=0)

    @pytest.mark.parametrize("kwargs", [
        {"iters": 0, "burnin": 0}, {"iters": 5, "burnin": -1}])
    def test_bad_iteration_counts(self, kwargs):
        with pytest.raises(ValueError):
            run_chain(self.Y, ModelConfig(), RngStream(seed=0),
                      SamplerKind.SLICE, **kwargs)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            run_chain(np.array([]), ModelConfig(), RngStream(seed=0),
                      SamplerKind.SLICE, iters=5, burnin=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", list(SamplerKind))
    def test_nonfinite_data_rejected_before_any_sweep(self, kind, bad):
        rng = RngStream(seed=0)
        L = 2 if kind is SamplerKind.BLOCKED_GIBBS else None
        with pytest.raises(ValueError, match="data must be finite"):
            run_chain(np.array([0.1, bad, 0.3, 0.5]), ModelConfig(), rng,
                      kind, iters=5, burnin=0, L=L)
        assert rng.random() == RngStream(seed=0).random()  # nothing drawn
