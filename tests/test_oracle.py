"""Enumerated partition posterior: the ground truth the samplers are held to."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from dpslice import oracle
from dpslice.core import ModelConfig, relabel_compact
from dpslice.oracle import (
    MAX_ENUM_N,
    ExactPosterior,
    _logsumexp,
    bell_number,
    cluster_log_marginal,
    enumerate_partitions,
    exact_posterior,
    log_eppf_dp,
    partition_rank,
    tv_distance,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


class TestBellNumbers:
    def test_table(self):
        assert [bell_number(k) for k in range(13)] == BELL

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_count_is_bell(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]

    def test_n3_by_hand(self):
        got = [p.tolist() for p in enumerate_partitions(3)]
        assert got == [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 2], [1, 2, 3]]

    def test_all_canonical_and_distinct(self):
        seen = set()
        for labels in enumerate_partitions(6):
            relabel_compact(labels).validate()
            assert np.array_equal(relabel_compact(labels).labels, labels)
            seen.add(tuple(labels.tolist()))
        assert len(seen) == BELL[6]

    def test_lexicographic_order(self):
        prev = None
        for labels in enumerate_partitions(5):
            key = tuple(labels.tolist())
            if prev is not None:
                assert key > prev
            prev = key

    @pytest.mark.parametrize("n", [0, MAX_ENUM_N + 1])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            list(enumerate_partitions(n))


class TestPartitionRank:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_inverse_of_enumeration(self, n):
        for idx, labels in enumerate(enumerate_partitions(n)):
            assert partition_rank(labels) == idx

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            partition_rank([2, 1])
        with pytest.raises(ValueError):
            partition_rank([1, 3])


class TestLogEppf:
    def test_three_singletons_unit_alpha(self):
        assert log_eppf_dp([1, 1, 1], 1.0) == pytest.approx(math.log(1.0 / 6.0))

    def test_pair_together_unit_alpha(self):
        assert log_eppf_dp([2], 1.0) == pytest.approx(math.log(0.5))

    def test_pair_probabilities_sum_to_one(self):
        for alpha in (0.25, 1.0, 4.0):
            together = math.exp(log_eppf_dp([2], alpha))
            apart = math.exp(log_eppf_dp([1, 1], alpha))
            assert together == pytest.approx(1.0 / (1.0 + alpha))
            assert together + apart == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_normalizes_over_partitions_of_four(self, alpha):
        total = sum(
            math.exp(log_eppf_dp(np.bincount(labels)[1:], alpha))
            for labels in enumerate_partitions(4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_block_order_irrelevant(self):
        assert log_eppf_dp([3, 1, 2], 0.7) == pytest.approx(
            log_eppf_dp([1, 2, 3], 0.7), rel=1e-12)

    @pytest.mark.parametrize("sizes,alpha", [([], 1.0), ([0, 2], 1.0),
                                             ([2, 1], 0.0), ([2, 1], math.nan),
                                             ([2, 1], math.inf)])
    def test_bad_input(self, sizes, alpha):
        with pytest.raises(ValueError):
            log_eppf_dp(sizes, alpha)


class TestClusterLogMarginal:
    def test_single_point_prior_predictive(self):
        cfg = ModelConfig()
        val = cluster_log_marginal([0.0], cfg)
        assert val == pytest.approx(-math.log(math.sqrt(4.0 * math.pi)), abs=1e-12)
        assert val == pytest.approx(-1.2655, abs=5e-5)

    def test_two_zeros_sequential_product(self):
        cfg = ModelConfig()
        # N(0; 0, 2) then N(0; 0, 3/2)
        expected = (-0.5 * math.log(2.0 * math.pi * 2.0)
                    - 0.5 * math.log(2.0 * math.pi * 1.5))
        assert cluster_log_marginal([0.0, 0.0], cfg) == pytest.approx(expected)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_joint_gaussian_density(self, seed):
        # the block marginal is a joint Normal with covariance sigma2*I + v0*J
        gen = np.random.default_rng(seed)
        m = int(gen.integers(1, 7))
        y = gen.normal(size=m) * 2.0
        sigma2 = float(gen.uniform(0.4, 2.5))
        v0 = float(gen.uniform(0.4, 2.5))
        mu0 = float(gen.normal())
        cfg = ModelConfig(sigma2=sigma2, base_mean=mu0, base_var=v0)
        cov = sigma2 * np.eye(m) + v0 * np.ones((m, m))
        expected = multivariate_normal.logpdf(y, mean=np.full(m, mu0), cov=cov)
        assert cluster_log_marginal(y, cfg) == pytest.approx(expected, rel=1e-9)

    def test_order_invariant(self):
        cfg = ModelConfig()
        y = [0.3, -1.2, 2.0, 0.9]
        base = cluster_log_marginal(y, cfg)
        for perm in itertools.permutations(y):
            assert cluster_log_marginal(list(perm), cfg) == pytest.approx(
                base, abs=1e-10)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            cluster_log_marginal([], ModelConfig())


class TestExactPosterior:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_data_rejected_before_enumeration(self, monkeypatch, bad):
        def unreachable(*args):
            raise AssertionError("a subset was scored")
        monkeypatch.setattr(oracle, "cluster_log_marginal", unreachable)
        with pytest.raises(ValueError, match="data must be finite"):
            exact_posterior([0.1, bad, 0.3, 0.5], 1.0, ModelConfig())

    def test_single_point(self):
        post = exact_posterior([0.7], 1.0, ModelConfig())
        assert post.num_partitions == 1
        assert post.probabilities().tolist() == pytest.approx([1.0])

    def test_distant_pair_splits(self):
        post = exact_posterior([-5.0, 5.0], 1.0, ModelConfig())
        assert post.prob_of([1, 2]) > 0.99

    def test_identical_pair_closed_form(self):
        cfg = ModelConfig()
        post = exact_posterior([0.0, 0.0], 1.0, cfg)
        # two-partition ratio: 0.5*marg({0,0}) vs 0.5*marg({0})^2
        log_together = math.log(0.5) + cluster_log_marginal([0.0, 0.0], cfg)
        log_apart = math.log(0.5) + 2.0 * cluster_log_marginal([0.0], cfg)
        expected = 1.0 / (1.0 + math.exp(log_apart - log_together))
        assert post.prob_of([1, 1]) == pytest.approx(expected, rel=1e-12)
        # frozen regression value for the hand-checkable instance
        assert post.prob_of([1, 1]) == pytest.approx(0.5358983848622453, rel=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_probabilities_normalize(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 7))
        y = gen.normal(size=n) * 2.0
        alpha = float(gen.uniform(0.3, 4.0))
        post = exact_posterior(y, alpha, ModelConfig())
        probs = post.probabilities()
        assert probs.size == BELL[n]
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(probs >= 0.0)

    def test_location_scale_consistency(self):
        gen = np.random.default_rng(7)
        y = gen.normal(size=5)
        c = 3.7
        a = exact_posterior(y, 1.0, ModelConfig(sigma2=1.0, base_var=1.0))
        b = exact_posterior(c * y, 1.0,
                            ModelConfig(sigma2=c * c, base_var=c * c))
        assert np.allclose(a.probabilities(), b.probabilities(), atol=1e-10)

    def test_exchangeability(self):
        gen = np.random.default_rng(11)
        y = gen.normal(size=5)
        perm = np.array([3, 0, 4, 1, 2])
        a = exact_posterior(y, 1.0, ModelConfig())
        b = exact_posterior(y[perm], 1.0, ModelConfig())
        # observation j of the permuted data is original observation perm[j],
        # so the partition (labels o perm) of the permuted data is the same
        # clustering of the same points
        for labels in enumerate_partitions(5):
            assert b.prob_of(labels[perm]) == pytest.approx(
                a.prob_of(labels), rel=1e-9, abs=1e-12)

    def test_mass_where_complements(self):
        post = exact_posterior(np.array([-3.0, 0.0, 3.0, -2.9]), 1.0,
                               ModelConfig())
        big = post.mass_where(lambda lab: int(lab.max()) > 2)
        small = post.mass_where(lambda lab: int(lab.max()) <= 2)
        assert big + small == pytest.approx(1.0, abs=1e-10)
        assert big > 0.0

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            exact_posterior(np.zeros(MAX_ENUM_N + 1), 1.0, ModelConfig())

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        # a NaN or infinite alpha would score every partition NaN
        with pytest.raises(ValueError, match="alpha must be a positive finite number"):
            exact_posterior([0.1, 0.2], alpha, ModelConfig())

    def test_logsumexp_bit_equal_to_scipy(self):
        # the normalizer oracle_exact.csv is written with: bit for bit the
        # scipy value, on spreads from 1e-3 to 700 and with tied maxima
        gen = np.random.default_rng(5)
        for i in range(500):
            size = int(gen.integers(1, 2000))
            a = gen.normal(scale=float(gen.choice([1e-3, 1.0, 50.0, 700.0])),
                           size=size)
            if i % 2:
                ties = int(gen.integers(1, min(size, 20) + 1))
                a[gen.choice(size, ties, replace=False)] = a.max()
            if i % 3 == 0:
                a = np.round(a, 1)
            assert _logsumexp(a) == float(logsumexp(a)), i
        assert _logsumexp(np.zeros(4)) == math.log(4.0)
        post = exact_posterior(np.array([-3.0, 0.0, 3.0, -2.9, 0.1]), 1.3,
                               ModelConfig())
        assert post.log_norm == float(logsumexp(post.log_scores))

    def test_to_csv_round_trip(self, tmp_path):
        post = exact_posterior([-1.0, 0.0, 1.0], 1.0, ModelConfig())
        path = tmp_path / "exact.csv"
        post.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "labels,probability"
        assert len(lines) == 1 + BELL[3]
        probs = []
        for line in lines[1:]:
            labels, prob = line.rsplit(",", 1)
            probs.append(float(prob))
            assert post.prob_of([int(v) for v in labels.strip('"').split(",")]) \
                == pytest.approx(probs[-1], rel=1e-12)
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)


class TestTvDistance:
    def _post(self):
        return exact_posterior([-2.0, 0.0, 2.0], 1.0, ModelConfig())

    def test_zero_against_itself(self):
        post = self._post()
        emp = {tuple(lab.tolist()): p for lab, p in post.items()}
        assert tv_distance(emp, post) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_complement(self):
        post = self._post()
        emp = {(1, 2, 3): 1.0}
        expected = 1.0 - post.prob_of([1, 2, 3])
        assert tv_distance(emp, post) == pytest.approx(expected, abs=1e-12)

    def test_multinomial_sampling_error_small(self):
        gen = np.random.default_rng(99)
        y = gen.normal(size=6) * 2.0
        post = exact_posterior(y, 1.0, ModelConfig())
        probs = post.probabilities()
        draws = gen.multinomial(50_000, probs)
        emp = {}
        for idx, labels in enumerate(enumerate_partitions(6)):
            if draws[idx]:
                emp[tuple(labels.tolist())] = draws[idx] / 50_000
        assert tv_distance(emp, post) < 0.08

    def test_rejects_bad_mass(self):
        post = self._post()
        with pytest.raises(ValueError):
            tv_distance({(1, 2, 3): 0.5}, post)
        with pytest.raises(ValueError):
            tv_distance({}, post)
        with pytest.raises(ValueError):
            tv_distance({(1, 2): 1.0}, post)
        with pytest.raises(ValueError):
            tv_distance({(1, 2, 3): -0.1, (1, 1, 1): 1.1}, post)
