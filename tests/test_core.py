"""State types, canonical relabeling, likelihood, and the Rand index."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from dpslice import core
from dpslice.core import (
    FINITE,
    POSITIVE,
    InconsistentStateError,
    MixtureState,
    ModelConfig,
    Partition,
    TraceRecord,
    check,
    is_integer,
    is_number,
    log_likelihood,
    rand_index,
    relabel_compact,
    relabel_compact_with_map,
)

label_vectors = st.lists(st.integers(min_value=1, max_value=6),
                         min_size=1, max_size=12)


class TestRelabelCompact:
    @pytest.mark.parametrize("raw,labels,sizes", [
        ((7, 7, 2), (1, 1, 2), (2, 1)),
        ((1, 2, 3), (1, 2, 3), (1, 1, 1)),
        ((5, 5, 5, 5), (1, 1, 1, 1), (4,)),
        ((3, 1, 3, 2), (1, 2, 1, 3), (2, 1, 1)),
    ])
    def test_examples(self, raw, labels, sizes):
        part = relabel_compact(raw)
        assert part.labels.tolist() == list(labels)
        assert part.sizes.tolist() == list(sizes)
        part.validate()

    @given(raw=label_vectors)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, raw):
        once = relabel_compact(raw)
        twice = relabel_compact(once.labels)
        assert np.array_equal(once.labels, twice.labels)
        assert np.array_equal(once.sizes, twice.sizes)
        once.validate()

    @given(raw=label_vectors, seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_invariant_to_label_permutation(self, raw, seed):
        raw = np.asarray(raw)
        perm = np.random.default_rng(seed).permutation(int(raw.max())) + 1
        renamed = perm[raw - 1]
        assert np.array_equal(relabel_compact(raw).labels,
                              relabel_compact(renamed).labels)

    def test_with_map_reports_origin(self):
        part, origin = relabel_compact_with_map([9, 4, 9, 7])
        assert part.labels.tolist() == [1, 2, 1, 3]
        assert origin.tolist() == [9, 4, 7]

    @pytest.mark.parametrize("raw", [[], [0, 1], [-3], [[1, 2]]])
    def test_bad_input(self, raw):
        with pytest.raises(ValueError):
            relabel_compact(raw)


def _relabel_by_unique(raw_labels):
    """Reference canonicalization through ``np.unique``: the blocks in order
    of each label value's first position."""
    raw = np.asarray(raw_labels, dtype=np.int64)
    uniq, first, inv = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(1, uniq.size + 1)
    labels = rank[inv]
    return labels, np.bincount(labels, minlength=uniq.size + 1)[1:], uniq[order]


# label values with gaps: a few small ones, or large ones up to 2**62 that
# are far above 2n
gappy_label_vectors = st.lists(
    st.one_of(st.integers(min_value=1, max_value=9),
              st.integers(min_value=1, max_value=200),
              st.integers(min_value=1, max_value=2**62)),
    min_size=1, max_size=60)


class TestRelabelAgainstUnique:
    @given(raw=gappy_label_vectors)
    @settings(max_examples=300, deadline=None)
    def test_labels_sizes_and_origin(self, raw):
        part, origin = relabel_compact_with_map(raw)
        labels, sizes, expected_origin = _relabel_by_unique(raw)
        assert np.array_equal(part.labels, labels)
        assert np.array_equal(part.sizes, sizes)
        assert np.array_equal(origin, expected_origin)
        assert part.labels.dtype == origin.dtype == np.int64
        part.validate()

    @pytest.mark.parametrize("raw", [[3, 1, 3, 2, 1, 5], [13, 2, 13],
                                     [2**62, 1, 2**62]])
    def test_dense_and_sparse_values(self, raw):
        # values above 2n go through a dict; so do these short vectors,
        # which are under RELABEL_TABLE_MIN_N long (the table path is
        # pinned by test_each_side_of_the_table_cut)
        part, origin = relabel_compact_with_map(raw)
        labels, sizes, expected_origin = _relabel_by_unique(raw)
        assert part.labels.tolist() == labels.tolist()
        assert part.sizes.tolist() == sizes.tolist()
        assert origin.tolist() == expected_origin.tolist()

    @pytest.mark.parametrize("n", [core.RELABEL_TABLE_MIN_N - 1,
                                   core.RELABEL_TABLE_MIN_N, 150])
    @pytest.mark.parametrize("step,top", [(7, 13), (5, 40), (1, 3)])
    def test_each_side_of_the_table_cut(self, n, step, top):
        # fewer than RELABEL_TABLE_MIN_N labels go through the dict, more
        # through the table (labels here stay under 2n); both give the
        # reference's blocks
        raw = [(step * i) % top + 1 for i in range(n)]
        with mock.patch.object(core, "_relabel_by_dict",
                               wraps=core._relabel_by_dict) as by_dict:
            part, origin = relabel_compact_with_map(np.array(raw))
        assert by_dict.called == (n < core.RELABEL_TABLE_MIN_N)
        labels, sizes, expected_origin = _relabel_by_unique(raw)
        assert part.labels.tolist() == labels.tolist()
        assert part.sizes.tolist() == sizes.tolist()
        assert origin.tolist() == expected_origin.tolist()
        assert part.labels.dtype == part.sizes.dtype == origin.dtype == np.int64

    @pytest.mark.parametrize("n", [core.RELABEL_TABLE_MIN_N - 1,
                                   core.RELABEL_TABLE_MIN_N])
    def test_bad_labels_rejected_on_each_side_of_the_cut(self, n):
        for bad in (0, -2):
            raw = [1] * (n - 1) + [bad]
            with pytest.raises(ValueError, match="positive integers"):
                relabel_compact(raw)


class TestPartitionValidate:
    def test_accepts_canonical(self):
        Partition(labels=np.array([1, 1, 2]), sizes=np.array([2, 1])).validate()

    @pytest.mark.parametrize("labels,sizes", [
        ([2, 2, 1], [2, 1]),          # not order of appearance
        ([1, 1, 3], [2, 1]),          # gap in label range
        ([1, 1, 2], [1, 2]),          # sizes disagree
        ([], []),                     # empty
        ([2, 2, 1], [1, 2]),          # sizes agree, not order of appearance
        ([0, 1], [1, 1]),             # a label below 1
        ([-1, 1], [1, 1]),            # a negative label
    ])
    def test_rejects_invalid(self, labels, sizes):
        part = Partition(labels=np.asarray(labels, dtype=np.int64),
                         sizes=np.asarray(sizes, dtype=np.int64))
        with pytest.raises(InconsistentStateError):
            part.validate()


class TestMixtureState:
    def _state(self):
        return MixtureState(partition=relabel_compact([1, 1, 2]), alpha=1.0)

    def test_valid_state_passes(self):
        self._state().validate()

    def test_alpha_positive(self):
        st_ = self._state()
        st_.alpha = 0.0
        with pytest.raises(InconsistentStateError):
            st_.validate()


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.sigma2 == 1.0 and cfg.base_mean == 0.0 and cfg.base_var == 1.0
        assert cfg.alpha_prior_shape == 3.0 and cfg.alpha_prior_rate is None

    def test_resolved_for_fills_rate(self):
        cfg = ModelConfig().resolved_for(150)
        assert cfg.alpha_prior_rate == pytest.approx(3.0 * math.log(150))

    def test_resolved_for_keeps_explicit_rate(self):
        cfg = ModelConfig(alpha_prior_rate=2.5).resolved_for(150)
        assert cfg.alpha_prior_rate == 2.5

    def test_resolved_for_n1_fallback(self):
        cfg = ModelConfig().resolved_for(1)
        assert cfg.alpha_prior_rate is not None and cfg.alpha_prior_rate > 0.0

    def test_alpha_fixed_short_circuits_resolution(self):
        cfg = ModelConfig(alpha_fixed=2.0).resolved_for(100)
        assert cfg.alpha_prior_rate is None

    @pytest.mark.parametrize("kwargs", [
        {"sigma2": 0.0}, {"sigma2": -1.0}, {"base_var": 0.0},
        {"base_mean": math.inf}, {"alpha_prior_shape": 0.0},
        {"alpha_prior_rate": -1.0}, {"alpha_fixed": 0.0},
        {"sigma2": True}, {"base_mean": "0"}, {"alpha_fixed": np.True_},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_message_names_the_field_its_rule_and_the_value(self):
        with pytest.raises(ValueError, match=r"^sigma2 must be a positive "
                                             r"finite number, got True$"):
            ModelConfig(sigma2=True)
        with pytest.raises(ValueError, match=r"^base_mean must be a finite "
                                             r"number, got nan$"):
            ModelConfig(base_mean=math.nan)

    def test_numpy_values_and_unset_fields_accepted(self):
        cfg = ModelConfig(sigma2=np.float64(0.5), base_mean=np.int64(-1),
                          base_var=np.float32(2.0), alpha_prior_rate=None,
                          alpha_fixed=np.int64(3))
        assert (cfg.sigma2, cfg.base_mean, cfg.alpha_fixed) == (0.5, -1, 3)


class TestSettingRules:
    @pytest.mark.parametrize("value,integer,number", [
        (3, True, True), (np.int64(3), True, True), (np.uint8(0), True, True),
        (2.5, False, True), (np.float32(1.5), False, True), (math.inf, False, True),
        (True, False, False), (np.True_, False, False), ("1", False, False),
        (None, False, False), ([1], False, False)])
    def test_integer_and_number(self, value, integer, number):
        assert is_integer(value) is integer
        assert is_number(value) is number

    @pytest.mark.parametrize("value,finite,positive", [
        (1, True, True), (np.float64(0.5), True, True), (0.0, True, False),
        (-2, True, False), (math.inf, False, False), (math.nan, False, False),
        (False, False, False), ("1", False, False)])
    def test_finite_and_positive(self, value, finite, positive):
        assert bool(FINITE[0](value)) is finite
        assert bool(POSITIVE[0](value)) is positive

    def test_check_returns_the_value_or_names_the_setting(self):
        assert check(2, "n", POSITIVE) == 2
        with pytest.raises(ValueError, match=r"^oracle\.alpha must be a positive "
                                             r"finite number, got '1'$"):
            check("1", "oracle.alpha", POSITIVE)


class TestTraceRecord:
    def test_csv_header_and_row(self):
        # the wall-clock field stays last, where readers strip the timing
        assert TraceRecord.CSV_HEADER == \
            "iter,K,H,loglik,alpha,candidates,elapsed_ns"
        rec = TraceRecord(iteration=3, k_total=7, num_clusters=4,
                          loglik=-12.5, alpha=1.25, candidates=21,
                          elapsed_ns=999)
        row = rec.csv_row()
        cells = row.split(",")
        assert cells[0] == "3" and cells[1] == "7" and cells[2] == "4"
        assert float(cells[3]) == -12.5 and float(cells[4]) == 1.25
        assert cells[5] == "21" and cells[6] == "999"

    def test_row_round_trips_floats_exactly(self):
        loglik = -123.45678901234567
        rec = TraceRecord(1, 2, 1, loglik, 0.1 + 0.2, 2, 5)
        cells = rec.csv_row().split(",")
        assert float(cells[3]) == loglik
        assert float(cells[4]) == 0.1 + 0.2


class TestLogLikelihood:
    def test_single_standard_point(self):
        cfg = ModelConfig()
        val = log_likelihood(np.array([0.0]), np.array([1]),
                             np.array([0.0]), cfg)
        assert val == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-12)
        assert val == pytest.approx(-0.9189, abs=5e-5)

    def test_additivity_of_identical_points(self):
        cfg = ModelConfig()
        one = log_likelihood(np.array([0.7]), np.array([1]), np.array([0.2]), cfg)
        two = log_likelihood(np.array([0.7, 0.7]), np.array([1, 1]),
                             np.array([0.2]), cfg)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_translation_invariance(self):
        cfg = ModelConfig()
        y = np.array([0.1, -2.0, 3.3])
        labels = np.array([1, 2, 1])
        atoms = np.array([0.5, -1.0])
        base = log_likelihood(y, labels, atoms, cfg)
        shifted = log_likelihood(y + 11.0, labels, atoms + 11.0, cfg)
        assert shifted == pytest.approx(base, rel=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_matches_scipy_norm(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 9))
        h = int(gen.integers(1, n + 1))
        labels = relabel_compact(gen.integers(1, h + 1, size=n) ).labels
        atoms = gen.normal(size=int(labels.max()))
        y = gen.normal(size=n)
        sigma2 = float(gen.uniform(0.3, 3.0))
        cfg = ModelConfig(sigma2=sigma2)
        expected = norm.logpdf(y, loc=atoms[labels - 1],
                               scale=math.sqrt(sigma2)).sum()
        assert log_likelihood(y, labels, atoms, cfg) == pytest.approx(
            expected, rel=1e-10, abs=1e-10)

    def test_missing_atoms_rejected(self):
        cfg = ModelConfig()
        with pytest.raises(InconsistentStateError):
            log_likelihood(np.array([0.0]), np.array([1]), None, cfg)
        with pytest.raises(InconsistentStateError):
            log_likelihood(np.array([0.0, 1.0]), np.array([1, 2]),
                           np.array([0.0]), cfg)


class TestRandIndex:
    def test_identical_partitions(self):
        assert rand_index([1, 2, 1, 3], [1, 2, 1, 3]) == 1.0

    def test_singletons_vs_one_block(self):
        assert rand_index([1, 2, 3], [1, 1, 1]) == 0.0

    def test_four_point_hand_count(self):
        # pairs: (1,2) agree-same, (1,4)/(2,4) agree-split,
        # (1,3)/(2,3)/(3,4) disagree -> 3 of 6
        assert rand_index([1, 1, 2, 2], [1, 1, 1, 2]) == pytest.approx(0.5)

    def test_label_names_irrelevant(self):
        assert rand_index([9, 9, 4, 4], [2, 2, 2, 7]) == pytest.approx(0.5)

    @given(p=st.lists(st.integers(1, 4), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_identity(self, p):
        q = list(reversed(p))
        assert rand_index(p, q) == pytest.approx(rand_index(q, p))
        assert rand_index(p, p) == 1.0
        assert 0.0 <= rand_index(p, q) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rand_index([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            rand_index([1], [1])
