"""Chain output measurement: ESS against closed-form AR(1) truth,
co-clustering accumulation, and exact agreement of the two Binder search
paths with each other and with a pair-by-pair Binder reference."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from dpslice.diagnostics import (
    BinderResult,
    EssResult,
    accumulate_coclustering,
    binder_point_estimate,
    binder_point_estimate_sparse,
    ess,
)
from dpslice.randkit import (
    RngStream,
    sample_categorical_logweights,
    sample_normal,
)


class TestEss:
    def test_iid_trace_ess_near_length(self):
        rng = RngStream(seed=11, stream=0)
        x = np.array([sample_normal(rng, 0.0, 1.0) for _ in range(10_000)])
        res = ess(x)
        assert not res.zero_variance
        assert 8_000 <= res.value <= 12_000

    def test_ar1_matches_integrated_autocorrelation(self):
        # AR(1) with coefficient 0.9 has ESS/length = (1-0.9)/(1+0.9).
        rng = np.random.Generator(np.random.PCG64(20240817))
        eps = rng.standard_normal(100_000)
        x = lfilter([1.0], [1.0, -0.9], eps)
        res = ess(x)
        truth = len(x) * (1.0 - 0.9) / (1.0 + 0.9)
        assert truth * 0.5 <= res.value <= truth * 1.5
        assert not res.zero_variance

    def test_constant_trace_returns_length_with_flag(self):
        res = ess(np.full(500, 3.25))
        assert res == EssResult(value=500.0, zero_variance=True)

    def test_result_clamped_to_length(self):
        # Perfect anticorrelation would give tau <= 0; the estimate clamps.
        x = np.tile([1.0, -1.0], 50)
        res = ess(x)
        assert res.value == 100.0
        assert not res.zero_variance

    def test_affine_invariance(self):
        rng = np.random.Generator(np.random.PCG64(7))
        x = lfilter([1.0], [1.0, -0.5], rng.standard_normal(5_000))
        base = ess(x).value
        shifted = ess(5.0 - 2.5 * x).value
        assert shifted == pytest.approx(base, rel=1e-8)

    def test_value_always_in_unit_interval_of_length(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for phi in (-0.8, -0.3, 0.0, 0.5, 0.95):
            x = lfilter([1.0], [1.0, -phi], rng.standard_normal(2_000))
            res = ess(x)
            assert 0.0 < res.value <= 2_000.0

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            ess(np.arange(9))

    def test_non_vector_rejected(self):
        with pytest.raises(ValueError):
            ess(np.zeros((20, 2)))


class TestCoClusteringMatrix:
    def test_single_singleton_sample_gives_identity(self):
        counts = accumulate_coclustering([np.array([1, 2, 3, 4])])
        assert np.array_equal(counts, np.eye(4))

    def test_single_one_block_sample_gives_all_ones(self):
        counts = accumulate_coclustering([np.array([1, 1, 1])])
        assert np.array_equal(counts, np.ones((3, 3)))

    def test_two_sample_hand_count(self):
        counts = accumulate_coclustering([np.array([1, 1, 2]), np.array([1, 2, 2])])
        expected = np.array([[2.0, 1.0, 0.0],
                             [1.0, 2.0, 1.0],
                             [0.0, 1.0, 2.0]])
        assert np.array_equal(counts, expected)

    def test_counts_match_pairwise_equalities_across_chunks(self):
        # about 20 blocks per sample, so the 60 samples span several
        # one-hot products
        rng = np.random.Generator(np.random.PCG64(8))
        samples = [rng.integers(1, 31, size=30) for _ in range(60)]
        expected = sum((s[:, None] == s[None, :]).astype(float) for s in samples)
        counts = accumulate_coclustering(samples)
        assert np.array_equal(counts, expected)
        assert np.array_equal(np.diag(counts), np.full(30, 60.0))

    def test_probabilities_unit_diagonal_and_range(self):
        rng = RngStream(seed=5, stream=0)
        samples = [np.array([sample_categorical_logweights(rng, np.zeros(3)) + 1
                             for _ in range(6)]) for _ in range(20)]
        p = accumulate_coclustering(samples) / len(samples)
        assert np.array_equal(np.diag(p), np.ones(6))
        assert np.all((0.0 <= p) & (p <= 1.0))
        assert np.array_equal(p, p.T)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate_coclustering([np.array([1, 2, 2]), np.array([1, 2])])

    def test_empty_accumulator_has_no_probabilities(self):
        with pytest.raises(ValueError):
            accumulate_coclustering([])


def binder_loss(labels, probabilities) -> float:
    """The Binder reference: the pairwise loss, the sum over i < j of
    |1{c_i = c_j} - p_ij|, of one partition against a co-clustering
    probability matrix, summed pair by pair."""
    lab = np.asarray(labels)
    p = np.asarray(probabilities, dtype=float)
    cell = np.where(lab[:, None] == lab[None, :], 1.0 - p, p)
    return float(cell[np.triu_indices(lab.size, k=1)].sum())


class TestBinderLoss:
    def test_hand_value_against_constant_matrix(self):
        # Empirical probability 0.1 per pair: singletons pay 0.1 per pair,
        # the one-block partition pays 0.9 per pair; n=3 has three pairs.
        p = np.full((3, 3), 0.1)
        np.fill_diagonal(p, 1.0)
        assert binder_loss(np.array([1, 2, 3]), p) == pytest.approx(0.3)
        assert binder_loss(np.array([1, 1, 1]), p) == pytest.approx(2.7)

    def test_zero_loss_against_own_coclustering(self):
        lab = np.array([1, 1, 2, 3, 3])
        p = accumulate_coclustering([lab])  # one sample: counts are probabilities
        assert binder_loss(lab, p) == 0.0


class TestBinderPointEstimate:
    def test_all_identical_samples_return_that_partition(self):
        samples = [np.array([1, 1, 2])] * 5
        res = binder_point_estimate(samples, accumulate_coclustering(samples))
        assert np.array_equal(res.labels, [1, 1, 2])
        assert res.sample_index == 0
        assert res.loss == 0.0

    def test_majority_singletons_beat_one_block(self):
        samples = [np.array([1, 2, 3])] * 9 + [np.array([1, 1, 1])]
        res = binder_point_estimate(samples, accumulate_coclustering(samples))
        assert np.array_equal(res.labels, [1, 2, 3])
        assert res.loss == pytest.approx(0.3)

    def test_label_permutation_within_samples_is_irrelevant(self):
        samples = [np.array([1, 1, 2]), np.array([2, 2, 1]), np.array([1, 2, 2])]
        res = binder_point_estimate(samples, accumulate_coclustering(samples))
        # The first two samples are the same partition under different names,
        # so it wins with the earliest index.
        assert res.sample_index == 0
        relabeled = [np.array([5, 5, 9]), np.array([4, 4, 7]), np.array([3, 8, 8])]
        res2 = binder_point_estimate(relabeled,
                                     accumulate_coclustering(relabeled))
        assert res2.sample_index == 0
        assert res2.loss == res.loss

    def test_exact_ties_break_to_earliest_sample(self):
        samples = [np.array([1, 2]), np.array([2, 1])]
        res = binder_point_estimate(samples, accumulate_coclustering(samples))
        assert res.sample_index == 0

    def test_estimate_is_member_of_input(self):
        rng = RngStream(seed=21, stream=0)
        samples = [np.array([sample_categorical_logweights(rng, np.zeros(4)) + 1
                             for _ in range(7)]) for _ in range(25)]
        res = binder_point_estimate(samples, accumulate_coclustering(samples))
        assert np.array_equal(res.labels, samples[res.sample_index])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            binder_point_estimate([], np.zeros((3, 3)))
        with pytest.raises(ValueError):
            binder_point_estimate([np.array([1, 2, 3])], np.zeros((3, 3)))

    def test_sample_length_mismatch_rejected(self):
        counts = accumulate_coclustering([np.array([1, 1, 2])])
        with pytest.raises(ValueError):
            binder_point_estimate([np.array([1, 2])], counts)


class TestBinderSparsePath:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_matrix_and_sparse_paths_agree_exactly(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(2, 9))
        n_samples = int(rng.integers(1, 13))
        samples = [rng.integers(1, 5, size=n) for _ in range(n_samples)]
        counts = accumulate_coclustering(samples)
        dense = binder_point_estimate(samples, counts)
        sparse = binder_point_estimate_sparse(samples)
        assert sparse.sample_index == dense.sample_index
        assert sparse.loss == dense.loss
        assert np.array_equal(sparse.labels, dense.labels)
        # brute force: the pairwise loss of every sample, minimised
        losses = [binder_loss(s, counts / n_samples) for s in samples]
        assert dense.loss == pytest.approx(min(losses), rel=1e-12, abs=1e-12)
        assert losses[dense.sample_index] == pytest.approx(min(losses),
                                                           rel=1e-12, abs=1e-12)

    def test_candidate_cap_still_returns_member_with_valid_loss(self, monkeypatch):
        import dpslice.diagnostics as diagnostics
        rng = np.random.Generator(np.random.PCG64(3))
        samples = [rng.integers(1, 4, size=6) for _ in range(30)]
        full = binder_point_estimate_sparse(samples)
        monkeypatch.setattr(diagnostics, "SPARSE_MAX_CANDIDATES", 5)
        capped = binder_point_estimate_sparse(samples)
        assert any(np.array_equal(capped.labels, s) for s in samples)
        assert capped.loss >= full.loss

    def test_cap_keeps_endpoints(self, monkeypatch):
        import dpslice.diagnostics as diagnostics
        # Index 0 is the clear winner; a tight cap must still consider it.
        samples = [np.array([1, 1, 2])] * 21
        samples[10] = np.array([1, 2, 3])
        monkeypatch.setattr(diagnostics, "SPARSE_MAX_CANDIDATES", 2)
        res = binder_point_estimate_sparse(samples)
        assert res.sample_index == 0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            binder_point_estimate_sparse([])
