"""Dataset generators: moment and occupancy checks against closed forms, a
chi-square goodness-of-fit gate on the power-law labels, k-means recovery,
and the CSV round trip."""
import inspect
import re

import numpy as np
import pytest
from scipy.stats import chisquare

from dpslice.core import rand_index
from dpslice.datagen import (
    GENERATORS,
    Dataset,
    ZIPF_MAX_LABEL,
    gen_perturbed_zipf,
    gen_three_clusters,
    kmeans_init,
    load_dataset,
    make_dataset,
    save_dataset,
    zipf_probabilities,
)
from dpslice.randkit import RngStream


class TestThreeClusters:
    def test_sizes_balanced(self):
        for n in (3, 4, 5, 300, 301):
            _, labels = gen_three_clusters(RngStream(seed=1, stream=0), n)
            sizes = np.bincount(labels)[1:]
            assert sizes.sum() == n
            assert sizes.max() - sizes.min() <= 1

    def test_cluster_sample_means(self):
        n = 3_000
        y, labels = gen_three_clusters(RngStream(seed=2, stream=0), n)
        for c, mu in zip((1, 2, 3), (-3.0, 0.0, 3.0)):
            vals = y[labels == c]
            assert abs(vals.mean() - mu) <= 4.0 / np.sqrt(n / 3)

    def test_overall_variance_matches_mixture_formula(self):
        # Within-cluster variance 1 plus between-cluster variance of the
        # balanced means (-3, 0, 3), which is 6.
        y, _ = gen_three_clusters(RngStream(seed=3, stream=0), 30_000)
        assert y.var() == pytest.approx(7.0, rel=0.05)

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            gen_three_clusters(RngStream(seed=1, stream=0), 2)


class TestPerturbedZipf:
    def test_probability_ratio_of_first_two_labels(self):
        _, labels = gen_perturbed_zipf(RngStream(seed=4, stream=0), 100_000)
        counts = np.bincount(labels, minlength=3)
        assert counts[1] / counts[2] == pytest.approx(4.0, rel=0.05)

    def test_label_support(self):
        _, labels = gen_perturbed_zipf(RngStream(seed=5, stream=0), 50_000)
        assert labels.min() >= 1
        assert labels.max() <= ZIPF_MAX_LABEL

    def test_probabilities_normalized_and_power_law(self):
        p = zipf_probabilities()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        c = np.arange(1, ZIPF_MAX_LABEL + 1)
        assert np.allclose(p * c.astype(float) ** 2, p[0])

    def test_label_marginal_passes_chi_square(self):
        m = 100_000
        _, labels = gen_perturbed_zipf(RngStream(seed=6, stream=0), m)
        p = zipf_probabilities()
        observed = np.bincount(labels, minlength=ZIPF_MAX_LABEL + 1)[1:]
        # merge right tail so every expected bin count is at least 5
        expected = p * m
        cut = np.searchsorted(np.cumsum(expected[::-1]), 5.0)
        keep = ZIPF_MAX_LABEL - cut
        obs = np.append(observed[:keep], observed[keep:].sum())
        exp = np.append(expected[:keep], expected[keep:].sum())
        stat = chisquare(obs, exp * (obs.sum() / exp.sum()))
        assert stat.pvalue > 0.01

    def test_observations_center_on_scaled_labels(self):
        y, labels = gen_perturbed_zipf(RngStream(seed=7, stream=0), 50_000)
        resid = y - 3.0 * labels
        assert abs(resid.mean()) < 0.02
        assert resid.std() == pytest.approx(1.0, rel=0.02)

    def test_expected_distinct_labels_matches_occupancy_formula(self):
        n = 3_000
        p = zipf_probabilities()
        expected = float((1.0 - (1.0 - p) ** n).sum())
        distinct = [len(np.unique(gen_perturbed_zipf(
            RngStream(seed=8, stream=s), n)[1])) for s in range(40)]
        se = np.std(distinct, ddof=1) / np.sqrt(len(distinct))
        assert abs(np.mean(distinct) - expected) <= 4 * se + 0.5

    def test_custom_separation_and_truncation(self):
        y, labels = gen_perturbed_zipf(RngStream(seed=9, stream=0), 20_000,
                                       max_label=3, exponent=1.0, separation=10.0)
        assert labels.max() <= 3
        one = y[labels == 1]
        assert abs(one.mean() - 10.0) < 0.1

    def test_empty_draw_rejected(self):
        with pytest.raises(ValueError):
            gen_perturbed_zipf(RngStream(seed=1, stream=0), 0)
        with pytest.raises(ValueError):
            zipf_probabilities(max_label=0)


class TestKmeansInit:
    def test_k1_single_block(self):
        part = kmeans_init(np.array([0.0, 1.0, 5.0]), RngStream(seed=10, stream=0), k=1)
        assert part.num_blocks == 1

    def test_separated_points_become_singletons(self):
        part = kmeans_init(np.array([-10.0, 0.0, 10.0]), RngStream(seed=11, stream=0), k=3)
        assert part.num_blocks == 3

    def test_three_cluster_recovery_at_matched_k(self):
        y, truth = gen_three_clusters(RngStream(seed=12, stream=0), 300)
        part = kmeans_init(y, RngStream(seed=12, stream=1), k=3)
        assert rand_index(part.labels, truth) >= 0.85

    def test_three_cluster_default_k_splits_blobs(self):
        # With five forced centers on three blobs at least two blobs split,
        # which caps the Rand index; the band below is the measured range
        # over 30 seeds (0.78-0.82).
        y, truth = gen_three_clusters(RngStream(seed=12, stream=0), 300)
        part = kmeans_init(y, RngStream(seed=12, stream=1), k=5)
        assert part.num_blocks == 5
        assert 0.70 <= rand_index(part.labels, truth) <= 0.88

    def test_duplicated_data_collapses_cleanly(self):
        part = kmeans_init(np.zeros(8), RngStream(seed=13, stream=0), k=3)
        assert part.num_blocks == 1

    def test_partition_is_compact_and_covers_data(self):
        y = np.concatenate([np.full(5, -4.0), np.full(5, 4.0), [0.0]])
        part = kmeans_init(y, RngStream(seed=14, stream=0), k=4)
        part.validate()
        assert part.labels.size == y.size

    def test_bad_inputs_rejected(self):
        rng = RngStream(seed=15, stream=0)
        with pytest.raises(ValueError):
            kmeans_init(np.arange(3.0), rng, k=4)
        with pytest.raises(ValueError):
            kmeans_init(np.arange(6.0), rng, k=0)
        with pytest.raises(ValueError):
            kmeans_init(np.zeros((4, 2)), rng, k=2)


class TestDeterminismAndDispatch:
    def test_generators_deterministic_given_stream(self):
        for kind in ("three-cluster", "zipf"):
            a = make_dataset(kind, RngStream(seed=33, stream=7), 60)
            b = make_dataset(kind, RngStream(seed=33, stream=7), 60)
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.labels, b.labels)
        c = make_dataset("zipf", RngStream(seed=33, stream=8), 60)
        assert not np.array_equal(a.y, c.y)

    def test_make_dataset_records_params(self):
        ds = make_dataset("zipf", RngStream(seed=1, stream=0), 10, separation=2.0)
        assert ds.name == "zipf"
        assert ds.n == 10
        assert ds.params == {"separation": 2.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_dataset("spiral", RngStream(seed=1, stream=0), 10)

    @pytest.mark.parametrize("kind,params", [
        ("three-cluster", {"separation": 2.0}), ("zipf", {"foo": 1})])
    def test_param_the_generator_does_not_take_rejected(self, kind, params):
        key = next(iter(params))
        with pytest.raises(ValueError, match=f"takes no param '{key}'"):
            make_dataset(kind, RngStream(seed=1, stream=0), 10, **params)

    @pytest.mark.parametrize("params,what", [
        ({"max_label": "5"}, "an integer >= 1"),
        ({"max_label": True}, "an integer >= 1"),
        ({"max_label": 2.5}, "an integer >= 1"),
        ({"max_label": 0}, "an integer >= 1"),
        ({"exponent": "2"}, "a finite number"),
        ({"exponent": float("nan")}, "a finite number"),
        ({"separation": float("inf")}, "a finite number"),
        ({"separation": False}, "a finite number")])
    def test_param_of_the_wrong_kind_rejected(self, params, what):
        key = next(iter(params))
        with pytest.raises(ValueError, match=f"param '{key}' must be {what}"):
            make_dataset("zipf", RngStream(seed=1, stream=0), 10, **params)

    def test_numpy_integer_max_label_accepted(self):
        ds = make_dataset("zipf", RngStream(seed=1, stream=0), 10,
                          max_label=np.int64(4))
        assert ds.labels.max() <= 4

    def test_n_below_the_kind_minimum_rejected(self):
        with pytest.raises(ValueError, match="'three-cluster' needs n >= 3"):
            make_dataset("three-cluster", RngStream(seed=1, stream=0), 2)

    def test_generator_table_lists_every_param(self):
        for gen, takes in GENERATORS.values():
            assert tuple(inspect.signature(gen).parameters)[2:] == takes


class TestDatasetRoundTrip:
    def test_save_load_exact(self, tmp_path):
        ds = make_dataset("zipf", RngStream(seed=44, stream=0), 25, separation=1.5)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.labels, ds.labels)
        assert back.name == "zipf"
        assert back.params == {"separation": 1.5}

    def test_saved_bytes_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(make_dataset("three-cluster", RngStream(seed=9, stream=2), 30), p1)
        save_dataset(make_dataset("three-cluster", RngStream(seed=9, stream=2), 30), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.with_suffix(".json").read_bytes() == p2.with_suffix(".json").read_bytes()

    def test_load_without_sidecar(self, tmp_path):
        path = tmp_path / "bare.csv"
        save_dataset(Dataset(y=np.array([1.0]), labels=np.array([1]), name="x"), path)
        path.with_suffix(".json").unlink()
        back = load_dataset(path)
        assert back.name == "unknown"
        assert back.params == {}

    @pytest.mark.parametrize("text,line", [
        ("y,true_label\n0.5,1\n1.5\n", 3),
        ("", 1),
        ("y,true_label\n", 2),
        ("y,true_label\n0.5,1\nnan,2\n", 3),
        ("y,true_label\n0.5,1\ninf,2\n", 3),
        ("y,true_label\n0.5,0\n", 2),
        ("y,true_label\n0.5,1.5\n", 2),
    ], ids=["row-without-label", "empty-file", "no-rows", "nan-observation",
            "infinite-observation", "zero-label", "fractional-label"])
    def test_malformed_csv_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "):
            load_dataset(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_dataset(path)
