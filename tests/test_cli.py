"""Command-line harness: output files, schemas, exit codes, determinism
under reruns, and thread-count independence, all on reduced iteration
budgets."""
import csv
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dpslice
import dpslice.cli as cli
from dpslice.cli import (
    BENCHMARK_COLUMNS,
    DEFAULT_SEED,
    SCHEMA_VERSION,
    VERIFY_COLUMNS,
    _coclustering_to_csv,
    main,
)


ROOT = Path(__file__).resolve().parents[1]


def _write_config(tmp_path, conf, name="conf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(conf))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _run_config(tmp_path, out_name, *, n=40, iters=60, burnin=20, sampler=None,
                **extra):
    conf = {
        "dataset": {"kind": "three-cluster", "n": n},
        "iters": iters,
        "burnin": burnin,
        "time_budget_s": 600.0,
        "out": str(tmp_path / out_name),
    }
    if sampler is not None:
        conf["sampler"] = sampler
    conf.update(extra)
    return conf


class Sentinel(Exception):
    """Raised in place of a command's first chain, enumeration or simulation."""


def _sentinel(*args, **kwargs):
    raise Sentinel


class TestGenerate:
    def test_default_datasets(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "gen"), "--seed", "7"])
        assert rc == 0
        three = _read_csv(tmp_path / "gen" / "three-cluster_n150.csv")
        assert three[0] == ["y", "true_label"]
        assert len(three) == 151
        labels = np.array([int(r[1]) for r in three[1:]])
        sizes = np.bincount(labels)[1:]
        assert sizes.max() - sizes.min() <= 1
        zipf = _read_csv(tmp_path / "gen" / "zipf_n300.csv")
        zlab = np.array([int(r[1]) for r in zipf[1:]])
        assert zlab.min() >= 1 and zlab.max() <= 500
        assert (tmp_path / "gen" / "zipf_n300.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            main(["generate", "--out", str(tmp_path / sub), "--seed", "11"])
        fa = (tmp_path / "a" / "three-cluster_n150.csv").read_bytes()
        fb = (tmp_path / "b" / "three-cluster_n150.csv").read_bytes()
        assert fa == fb

    def test_custom_spec_and_name(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "datasets": [{"kind": "zipf", "n": 20, "name": "tiny",
                          "params": {"separation": 2.0}}],
            "out": str(tmp_path / "gen"),
        })
        assert main(["generate", "--config", cfg]) == 0
        rows = _read_csv(tmp_path / "gen" / "tiny.csv")
        assert len(rows) == 21
        meta = json.loads((tmp_path / "gen" / "tiny.json").read_text())
        assert meta["params"] == {"separation": 2.0}

    @pytest.mark.parametrize("name", ["x" * 250, "\u00e9" * 125])
    def test_longest_name_writes_both_files(self, tmp_path, name):
        # 250 bytes in UTF-8 leave room for the ".json" of a 255-byte name
        cfg = _write_config(tmp_path, {"datasets": [{"kind": "zipf", "n": 9,
                                                     "name": name}]})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
        assert (tmp_path / "gen" / f"{name}.csv").exists()
        assert (tmp_path / "gen" / f"{name}.json").exists()


class TestRun:
    def test_slice_outputs_and_summary_schema(self, tmp_path):
        cfg = _write_config(tmp_path, _run_config(tmp_path, "run1"))
        assert main(["run", "--config", cfg, "--seed", "3"]) == 0
        out = tmp_path / "run1"
        trace = _read_csv(out / "trace.csv")
        assert trace[0] == ["iter", "K", "H", "loglik", "alpha", "candidates",
                            "elapsed_ns"]
        assert len(trace) == 81  # burnin + iters sweeps, all recorded
        ks = [int(r[1]) for r in trace[1:]]
        hs = [int(r[2]) for r in trace[1:]]
        assert all(k >= h >= 1 for k, h in zip(ks, hs))
        parts = _read_csv(out / "partitions.csv")
        assert parts[0] == ["iter", "labels"]
        assert len(parts) == 61  # one snapshot per post-burnin iteration
        assert len(parts[1][1].split(",")) == 40
        binder = _read_csv(out / "binder.csv")
        assert len(binder) == 1 and len(binder[0]) == 40
        cocl = np.loadtxt(out / "coclustering.csv", delimiter=",")
        assert cocl.shape == (40, 40)
        assert np.allclose(np.diag(cocl), 1.0)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["sampler"] == "slice"
        assert summary["L"] is None
        assert summary["n"] == 40
        assert summary["infeasible"] is False
        assert 0.0 <= summary["rand_binder_vs_truth"] <= 1.0
        assert summary["alpha_mean"] > 0.0
        assert set(summary["ess"]) == {"window", "ess_loglik",
                                       "ess_loglik_zero_variance", "ess_H",
                                       "ess_H_zero_variance"}
        assert set(summary["timing"]) >= {"seconds_window", "ess_loglik_per_s",
                                          "mean_sweep_ns", "median_sweep_ns"}

    @pytest.mark.parametrize("samples", [1, 7, 200])
    def test_coclustering_table_writer_matches_savetxt(self, tmp_path, samples):
        gen = np.random.default_rng(samples)
        counts = gen.integers(0, samples + 1, size=(23, 23)).astype(float)
        counts[:, 0] = 0.0
        counts[:, -1] = samples
        _coclustering_to_csv(tmp_path / "table.csv", counts, samples)
        np.savetxt(tmp_path / "ref.csv", counts / samples, delimiter=",",
                   fmt="%.6f")
        assert (tmp_path / "table.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_rerun_identical_up_to_timing(self, tmp_path):
        for sub in ("r1", "r2"):
            cfg = _write_config(tmp_path, _run_config(tmp_path, sub), f"{sub}.json")
            assert main(["run", "--config", cfg, "--seed", "5"]) == 0
        t1 = _read_csv(tmp_path / "r1" / "trace.csv")
        t2 = _read_csv(tmp_path / "r2" / "trace.csv")
        assert [r[:-1] for r in t1] == [r[:-1] for r in t2]
        assert (tmp_path / "r1" / "partitions.csv").read_bytes() == \
            (tmp_path / "r2" / "partitions.csv").read_bytes()
        assert (tmp_path / "r1" / "binder.csv").read_bytes() == \
            (tmp_path / "r2" / "binder.csv").read_bytes()
        s1 = json.loads((tmp_path / "r1" / "summary.json").read_text())
        s2 = json.loads((tmp_path / "r2" / "summary.json").read_text())
        s1.pop("timing"), s2.pop("timing")
        assert s1 == s2

    def test_bgs_truncation_honored(self, tmp_path):
        conf = _run_config(tmp_path, "bgs", sampler={"kind": "bgs", "L": 2})
        cfg = _write_config(tmp_path, conf)
        assert main(["run", "--config", cfg]) == 0
        trace = _read_csv(tmp_path / "bgs" / "trace.csv")
        assert all(int(r[1]) == 2 for r in trace[1:])
        assert all(int(r[2]) <= 2 for r in trace[1:])
        summary = json.loads((tmp_path / "bgs" / "summary.json").read_text())
        assert summary["L"] == 2

    def test_bgs_L_equals_n_spelled_as_string(self, tmp_path):
        conf = _run_config(tmp_path, "bgsn", n=12, iters=30, burnin=10,
                           sampler={"kind": "bgs", "L": "n"})
        cfg = _write_config(tmp_path, conf)
        assert main(["run", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "bgsn" / "summary.json").read_text())
        assert summary["L"] == 12

    def test_bgs_without_L_is_config_error(self, tmp_path, capsys,
                                           monkeypatch):
        import dpslice.cli as cli

        def no_kmeans(*args, **kwargs):
            raise AssertionError("k-means ran before the config was checked")

        monkeypatch.setattr(cli, "kmeans_init", no_kmeans)
        conf = _run_config(tmp_path, "bgs_noL", sampler="bgs")
        assert main(["run", "--config", _write_config(tmp_path, conf)]) == 2
        assert "error: blocked Gibbs requires a truncation level" \
            in capsys.readouterr().err
        assert not (tmp_path / "bgs_noL" / "trace.csv").exists()

    @pytest.mark.parametrize("L", ["5", True, 2.5])
    def test_bgs_non_integer_L_is_config_error(self, tmp_path, capsys, L):
        conf = _run_config(tmp_path, "bgs_badL", sampler={"kind": "bgs", "L": L})
        assert main(["run", "--config", _write_config(tmp_path, conf)]) == 2
        assert "error: blocked Gibbs requires a truncation level" \
            in capsys.readouterr().err
        assert not (tmp_path / "bgs_badL" / "trace.csv").exists()

    def test_dataset_from_file(self, tmp_path):
        gen_cfg = _write_config(tmp_path, {
            "datasets": [{"kind": "three-cluster", "n": 21, "name": "d"}],
            "out": str(tmp_path / "data"),
        }, "gen.json")
        assert main(["generate", "--config", gen_cfg]) == 0
        conf = _run_config(tmp_path, "fromfile", iters=30, burnin=10)
        conf["dataset"] = {"path": str(tmp_path / "data" / "d.csv")}
        cfg = _write_config(tmp_path, conf, "run.json")
        assert main(["run", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "fromfile" / "summary.json").read_text())
        assert summary["n"] == 21
        assert summary["dataset"]["name"] == "three-cluster"

    def test_sampler_string_shorthand(self, tmp_path):
        short = _run_config(tmp_path, "short", n=16, iters=25, burnin=5,
                            sampler="crp-atoms")
        assert main(["run", "--config", _write_config(tmp_path, short,
                                                      "s.json")]) == 0
        full = _run_config(tmp_path, "full", n=16, iters=25, burnin=5,
                           sampler={"kind": "crp-atoms"})
        assert main(["run", "--config", _write_config(tmp_path, full,
                                                      "f.json")]) == 0
        read = lambda name: json.loads(
            (tmp_path / name / "summary.json").read_text())
        a, b = read("short"), read("full")
        assert a["sampler"] == "crp-atoms"
        a.pop("timing"), b.pop("timing")
        assert a == b

    def test_large_n_takes_the_contingency_binder_route(self, tmp_path,
                                                        monkeypatch):
        import dpslice.cli as cli

        def no_matrix(*args, **kwargs):
            raise AssertionError("the matrix route ran above MATRIX_N_LIMIT")

        monkeypatch.setattr(cli, "accumulate_coclustering", no_matrix)
        n = cli.MATRIX_N_LIMIT + 1
        cfg = _write_config(tmp_path, _run_config(tmp_path, "big", n=n, iters=10,
                                                  burnin=0))
        assert main(["run", "--config", cfg]) == 0
        binder = _read_csv(tmp_path / "big" / "binder.csv")
        assert len(binder) == 1 and len(binder[0]) == n
        assert not (tmp_path / "big" / "coclustering.csv").exists()

    def test_desk_preset_overrides_sweep_counts(self, tmp_path):
        cfg = _write_config(tmp_path, _run_config(tmp_path, "desk", n=12))
        assert main(["run", "--config", cfg, "--preset", "desk"]) == 0
        summary = json.loads((tmp_path / "desk" / "summary.json").read_text())
        assert (summary["iters"], summary["burnin"]) == (1_000, 1_000)
        assert len(_read_csv(tmp_path / "desk" / "trace.csv")) == 2_001

    def test_sampler_wrong_type_is_config_error(self, tmp_path):
        conf = _run_config(tmp_path, "bad", sampler=["slice"])
        assert main(["run", "--config", _write_config(tmp_path, conf)]) == 2

    def test_infeasible_budget_aborts_with_report(self, tmp_path):
        conf = _run_config(tmp_path, "slow")
        conf["time_budget_s"] = 0.0
        cfg = _write_config(tmp_path, conf)
        assert main(["run", "--config", cfg]) == 2
        out = tmp_path / "slow"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["infeasible"] is True
        assert summary["infeasibility"]["budget_s"] == 0.0
        assert summary["infeasibility"]["completed_iters"] >= 1
        assert not (out / "partitions.csv").exists()

    def test_too_few_iters_is_config_error(self, tmp_path, capsys):
        conf = _run_config(tmp_path, "short", iters=5, burnin=2)
        assert main(["run", "--config", _write_config(tmp_path, conf)]) == 2
        assert "error: iters must be >= 10" in capsys.readouterr().err
        assert not (tmp_path / "short" / "trace.csv").exists()

    @pytest.mark.parametrize("key,value,reason", [
        ("iters", "50", "an integer"), ("iters", True, "an integer"),
        ("iters", 50.0, "an integer"), ("burnin", "20", "an integer"),
        ("burnin", False, "an integer"), ("burnin", -1, ">= 0")])
    def test_non_integer_sweep_count_is_config_error(self, tmp_path, capsys,
                                                     key, value, reason):
        conf = _run_config(tmp_path, "badcount", **{key: value})
        assert main(["run", "--config", _write_config(tmp_path, conf)]) == 2
        assert f"error: {key} must be {reason}" in capsys.readouterr().err
        assert not (tmp_path / "badcount").exists()

    @pytest.mark.parametrize("budget", ["60", True, -1.0])
    def test_bad_time_budget_is_config_error(self, tmp_path, capsys, budget):
        conf = _run_config(tmp_path, "badbudget", time_budget_s=budget)
        assert main(["run", "--config", _write_config(tmp_path, conf)]) == 2
        assert "error: time_budget_s must be a number >= 0" \
            in capsys.readouterr().err
        assert not (tmp_path / "badbudget").exists()


class TestBenchmark:
    def _bench_conf(self, tmp_path, out_name, grid, threads=None):
        conf = {
            "benchmark": {"grid": grid, "iters": 40, "burnin": 10,
                          "time_budget_s": 600.0},
            "out": str(tmp_path / out_name),
        }
        if threads is not None:
            conf["threads"] = threads
        return _write_config(tmp_path, conf, f"{out_name}.json")

    def test_small_grid_columns_and_values(self, tmp_path):
        grid = [{"sampler": "slice", "n": 30},
                {"sampler": "bgs", "L": "n", "n": 30}]
        cfg = self._bench_conf(tmp_path, "bench", grid)
        assert main(["benchmark", "--config", cfg]) == 0
        rows = _read_csv(tmp_path / "bench" / "benchmark.csv")
        assert rows[0] == BENCHMARK_COLUMNS
        assert len(rows) == 3
        slice_row, bgs_row = rows[1], rows[2]
        assert slice_row[0] == "slice" and slice_row[2] == ""
        assert bgs_row[0] == "bgs" and bgs_row[2] == "30"
        for row in (slice_row, bgs_row):
            assert int(row[4]) > 0
            assert 0.0 <= float(row[7]) <= 1.0
            assert row[8] == "false"

    def test_infeasible_cell_recorded_run_continues(self, tmp_path):
        grid = [{"sampler": "slice", "n": 30, "time_budget_s": 0.0},
                {"sampler": "slice", "n": 25}]
        cfg = self._bench_conf(tmp_path, "bench2", grid)
        assert main(["benchmark", "--config", cfg]) == 0
        rows = _read_csv(tmp_path / "bench2" / "benchmark.csv")
        assert rows[1][8] == "true"
        assert rows[1][7] == ""
        assert rows[2][8] == "false"

    def test_bgs_cell_without_L_is_config_error(self, tmp_path, capsys):
        cfg = self._bench_conf(tmp_path, "bench3", [{"sampler": "bgs", "n": 20}])
        assert main(["benchmark", "--config", cfg]) == 2
        assert "error: blocked Gibbs requires a truncation level" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("L", ["5", True, 2.5])
    def test_bgs_cell_with_non_integer_L_is_config_error(self, tmp_path, capsys,
                                                         L):
        cfg = self._bench_conf(tmp_path, "bench4",
                               [{"sampler": "bgs", "L": L, "n": 20}])
        assert main(["benchmark", "--config", cfg]) == 2
        assert "error: blocked Gibbs requires a truncation level" \
            in capsys.readouterr().err

    def test_cell_with_too_few_iters_is_config_error(self, tmp_path, capsys,
                                                     monkeypatch):
        import dpslice.cli as cli

        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran before the config was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        grid = [{"sampler": "slice", "n": 20},
                {"sampler": "slice", "n": 20, "iters": 5}]
        cfg = self._bench_conf(tmp_path, "bench5", grid)
        assert main(["benchmark", "--config", cfg]) == 2
        assert "error: benchmark cell 1 iters must be >= 10" \
            in capsys.readouterr().err
        assert not (tmp_path / "bench5" / "trace.csv").exists()
        assert not (tmp_path / "bench5" / "benchmark.csv").exists()

    @pytest.mark.parametrize("key,value", [("iters", "50"), ("iters", True),
                                           ("burnin", "5"), ("burnin", 1.5)])
    def test_cell_with_non_integer_sweep_count_is_config_error(
            self, tmp_path, capsys, key, value):
        grid = [{"sampler": "slice", "n": 20, key: value}]
        cfg = self._bench_conf(tmp_path, "bench6", grid)
        assert main(["benchmark", "--config", cfg]) == 2
        assert f"error: benchmark cell 0 {key} must be an integer" \
            in capsys.readouterr().err
        assert not (tmp_path / "bench6" / "benchmark.csv").exists()

    @pytest.mark.parametrize("where", ["cell", "benchmark"])
    def test_bad_time_budget_is_config_error(self, tmp_path, capsys, where):
        grid = [{"sampler": "slice", "n": 20}]
        cfg = self._bench_conf(tmp_path, "bench7", grid)
        conf = json.loads(open(cfg).read())
        if where == "cell":
            conf["benchmark"]["grid"][0]["time_budget_s"] = "60"
        else:
            conf["benchmark"]["time_budget_s"] = "60"
        assert main(["benchmark", "--config", _write_config(tmp_path, conf)]) == 2
        assert "error: benchmark cell 0 time_budget_s must be a number >= 0" \
            in capsys.readouterr().err
        assert not (tmp_path / "bench7").exists()

    def test_thread_count_does_not_change_results(self, tmp_path):
        grid = [{"sampler": "slice", "n": 24}, {"sampler": "crp-atoms", "n": 24}]
        for name, threads in (("t1", 1), ("t2", 2)):
            cfg = self._bench_conf(tmp_path, name, grid, threads=threads)
            assert main(["benchmark", "--config", cfg]) == 0
        r1 = _read_csv(tmp_path / "t1" / "benchmark.csv")
        r2 = _read_csv(tmp_path / "t2" / "benchmark.csv")
        timing_cols = {BENCHMARK_COLUMNS.index("median_sweep_ns"),
                       BENCHMARK_COLUMNS.index("ess_loglik_per_s"),
                       BENCHMARK_COLUMNS.index("ess_H_per_s")}
        stable = [[v for i, v in enumerate(row) if i not in timing_cols]
                  for row in r1]
        stable2 = [[v for i, v in enumerate(row) if i not in timing_cols]
                   for row in r2]
        assert stable == stable2

    def test_desk_preset_sets_benchmark_iters_only(self, tmp_path, monkeypatch):
        # cells take their burn-in from benchmark.burnin, default 0
        seen = []

        def capture(*args, **kwargs):
            seen.append((kwargs["iters"], kwargs["burnin"]))
            raise Sentinel

        monkeypatch.setattr(cli, "run_chain", capture)
        cfg = _write_config(tmp_path, {"benchmark": {"grid": [
            {"sampler": "slice", "n": 20}]}})
        with pytest.raises(Sentinel):
            main(["benchmark", "--config", cfg, "--preset", "desk",
                  "--out", str(tmp_path / "bench")])
        assert seen == [(1_000, 0)]


class TestVerify:
    def test_small_overhead_grid_passes(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "verify": {"alphas": [1.0], "ns": [50], "deltas": [0.5, 0.1],
                       "replicates": 3000, "tails_at": [],
                       "checks": ["overhead"]},
            "out": str(tmp_path / "ver"),
        })
        assert main(["verify", "--config", cfg]) == 0
        rows = _read_csv(tmp_path / "ver" / "verify.csv")
        assert rows[0] == VERIFY_COLUMNS
        assert len(rows) == 3
        assert all(r[6] == "true" for r in rows[1:])
        report = json.loads((tmp_path / "ver" / "verify.json").read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["all_pass"] is True
        assert report["seed"] == DEFAULT_SEED

    def test_merge_and_poisson_sections(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "verify": {"alphas": [1.0], "ns": [30], "deltas": [0.5],
                       "replicates": 2000, "tails_at": [],
                       "checks": ["overhead", "merge", "poisson"],
                       "merge": {"n": 4, "replicates": 20_000},
                       "poisson": {"replicates": 5000}},
            "out": str(tmp_path / "ver2"),
        })
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "ver2" / "verify.json").read_text())
        assert len(report["merge_chain"]) == 3
        assert all(step["passed"] for step in report["merge_chain"])
        assert report["poisson"]["passed"] is True
        assert report["poisson"]["rate"] == pytest.approx(2.0)

    def test_tails_section_runs_when_requested(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "verify": {"alphas": [1.0], "ns": [100], "deltas": [0.1],
                       "replicates": 10_000, "tails_at": [[100, 1.0]],
                       "checks": ["overhead", "tails"]},
            "out": str(tmp_path / "ver3"),
        })
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "ver3" / "verify.json").read_text())
        tails = report["cells"][0]["tails"]
        assert tails["passed"] is True
        assert len(tails["tails"]) == 4

    def test_tails_alone_writes_no_overhead_rows(self, tmp_path, monkeypatch):
        import dpslice.cli as cli

        def failing(*args, **kwargs):
            raise AssertionError("an overhead bound was checked")

        monkeypatch.setattr(cli, "check_overhead_bound", failing)
        cfg = _write_config(tmp_path, {
            "verify": {"alphas": [1.0], "ns": [50, 100], "deltas": [0.1],
                       "replicates": 10_000, "tails_at": [[100, 1.0]],
                       "checks": ["tails"]},
            "out": str(tmp_path / "ver5"),
        })
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "ver5" / "verify.json").read_text())
        assert [c["n"] for c in report["cells"]] == [100]
        assert report["cells"][0]["overhead"] == []
        assert report["cells"][0]["tails"]["passed"] is True
        assert _read_csv(tmp_path / "ver5" / "verify.csv") == [VERIFY_COLUMNS]

    @pytest.mark.parametrize("checks", [["overheads"], [], "overhead",
                                        ["overhead", "tail"]])
    def test_unknown_or_empty_checks_are_config_errors(self, tmp_path, capsys,
                                                       checks):
        cfg = _write_config(tmp_path, {
            "verify": {"alphas": [1.0], "ns": [50], "replicates": 1000,
                       "checks": checks},
            "out": str(tmp_path / "ver6"),
        })
        assert main(["verify", "--config", cfg]) == 2
        assert "error: verify.checks must be a nonempty list" \
            in capsys.readouterr().err
        assert not (tmp_path / "ver6" / "verify.json").exists()

    @pytest.mark.parametrize("n", [1, 0])
    def test_merge_chain_without_a_merge_is_config_error(self, tmp_path, capsys,
                                                         n):
        cfg = _write_config(tmp_path, {
            "verify": {"checks": ["merge"], "merge": {"n": n}},
            "out": str(tmp_path / "ver7"),
        })
        assert main(["verify", "--config", cfg]) == 2
        assert "error: verify.merge.n must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "ver7" / "verify.json").exists()

    def test_tails_at_outside_the_grid_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "verify": {"alphas": [1.0], "ns": [50], "replicates": 1000,
                       "tails_at": [[1000, 1.0]], "checks": ["tails"]},
            "out": str(tmp_path / "ver8"),
        })
        assert main(["verify", "--config", cfg]) == 2
        assert "error: verify.tails_at names no (n, alpha) cell" \
            in capsys.readouterr().err
        assert not (tmp_path / "ver8" / "verify.json").exists()

    @pytest.mark.parametrize("key,value,checks", [
        ("ns", ["100"], ["overhead"]), ("ns", [50.5], ["overhead"]),
        ("ns", [], ["overhead"]), ("alphas", [], ["overhead"]),
        ("deltas", [], ["overhead"]), ("deltas", [], ["tails"]),
        ("tails_at", [50, 1.0], ["tails"]),
        ("replicates", "1000", ["overhead"]), ("replicates", 2.7, ["overhead"]),
        ("merge", {"n": 3, "replicates": "1000"}, ["merge"]),
        ("poisson", {"replicates": 2.5}, ["poisson"]),
        ("spec", "balanced:x", ["overhead"]), ("spec", "balanced:500", ["tails"]),
        ("spec", [25.5, 25.5], ["overhead"]), ("spec", [True, 49], ["overhead"]),
        ("spec", 5, ["overhead"]), ("tails_at", [[50, True]], ["tails"]),
        ("tails_at", [[50.0, 1.0]], ["tails"])])
    def test_malformed_setting_is_config_error(self, tmp_path, capsys,
                                               monkeypatch, key, value, checks):
        import dpslice.cli as cli

        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation ran before the config was checked")

        monkeypatch.setattr(cli, "simulate_overhead", no_simulation)
        vconf = {"alphas": [1.0], "ns": [50], "deltas": [0.1],
                 "replicates": 1000, "tails_at": [[50, 1.0]],
                 "checks": checks, key: value}
        cfg = _write_config(tmp_path, {"verify": vconf,
                                       "out": str(tmp_path / "ver9")})
        assert main(["verify", "--config", cfg]) == 2
        name = key if key not in ("merge", "poisson") else f"{key}.replicates"
        assert f"error: verify.{name} must be" in capsys.readouterr().err
        assert not (tmp_path / "ver9" / "verify.json").exists()

    def test_n_below_two_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "verify": {"alphas": [1.0], "ns": [1, 50], "deltas": [0.1],
                       "replicates": 1000, "checks": ["overhead", "tails"]},
            "out": str(tmp_path / "ver4"),
        })
        assert main(["verify", "--config", cfg]) == 2
        assert "error: verify.ns must all be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "ver4" / "verify.json").exists()


class TestOracle:
    def test_reduced_comparison(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "oracle": {"n": 5, "sweeps": 4000, "burnin": 200, "tv_limit": 0.2,
                       "samplers": ["slice"], "bgs_L": [2]},
            "out": str(tmp_path / "oracle"),
        })
        assert main(["oracle", "--config", cfg]) == 0
        exact = _read_csv(tmp_path / "oracle" / "oracle_exact.csv")
        assert exact[0] == ["labels", "probability"]
        assert len(exact) == 53  # one row per partition of five items
        probs = [float(r[1]) for r in exact[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert probs == sorted(probs, reverse=True)
        report = json.loads((tmp_path / "oracle" / "oracle.json").read_text())
        assert report["all_pass"] is True
        slice_row = report["rows"][0]
        assert slice_row["exact_target"] is True
        assert slice_row["passed"] is True
        assert slice_row["tv"] < 0.2
        bgs_row = report["rows"][1]
        assert bgs_row["exact_target"] is False
        assert bgs_row["passed"] is None
        assert bgs_row["truncated_mass_empirical"] == 0.0
        assert bgs_row["truncated_mass_oracle"] > 0.0

    def test_oversized_n_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "oracle": {"n": 13},
            "out": str(tmp_path / "oracle2"),
        })
        assert main(["oracle", "--config", cfg]) == 2

    @pytest.mark.parametrize("key,value", [
        ("samplers", []), ("samplers", ["bgs"]), ("samplers", ["slices"]),
        ("bgs_L", [0]), ("bgs_L", [2.5]), ("n", 13), ("n", 2), ("n", "4"),
        ("alpha", "1.0"), ("sweeps", 200.5), ("burnin", "10"),
        ("tv_limit", "0.2")])
    def test_malformed_setting_is_config_error(self, tmp_path, capsys,
                                               monkeypatch, key, value):
        import dpslice.cli as cli

        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran before the config was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        oconf = {"n": 4, "sweeps": 200, "burnin": 10, "samplers": ["slice"],
                 "bgs_L": [2], key: value}
        cfg = _write_config(tmp_path, {"oracle": oconf,
                                       "out": str(tmp_path / "oracle3")})
        assert main(["oracle", "--config", cfg]) == 2
        assert f"error: oracle.{key}" in capsys.readouterr().err
        assert not (tmp_path / "oracle3" / "oracle_exact.csv").exists()


class TestModelConfig:
    def test_base_measure_reaches_every_chain_and_the_oracle(self, tmp_path,
                                                               monkeypatch):
        import dpslice.cli as cli
        seen = []

        def capture(fn, cfg_arg):
            def wrapper(*args, **kwargs):
                seen.append((fn.__name__, args[cfg_arg]))
                return fn(*args, **kwargs)
            return wrapper

        # run_chain(data, cfg, ...) and exact_posterior(data, alpha, cfg)
        monkeypatch.setattr(cli, "run_chain", capture(cli.run_chain, 1))
        monkeypatch.setattr(cli, "exact_posterior", capture(cli.exact_posterior, 2))
        model = {"sigma2": 0.5, "base_mean": 0.25, "base_var": 4.0}
        run = _write_config(tmp_path, _run_config(tmp_path, "run", n=20, iters=10,
                                                  burnin=5, **model), "run.json")
        bench = _write_config(tmp_path, {
            "benchmark": {"grid": [{"sampler": "slice", "n": 20}], "iters": 10,
                          "time_budget_s": 600.0},
            "out": str(tmp_path / "bench"), **model}, "bench.json")
        oracle = _write_config(tmp_path, {
            "oracle": {"n": 3, "sweeps": 200, "burnin": 10, "tv_limit": 1.0,
                       "samplers": ["slice"], "bgs_L": [], "alpha": 2.0},
            "out": str(tmp_path / "oracle"), **model}, "oracle.json")
        assert main(["run", "--config", run]) == 0
        assert main(["benchmark", "--config", bench]) == 0
        assert main(["oracle", "--config", oracle]) == 0
        assert [name for name, _ in seen] == ["run_chain", "run_chain",
                                              "exact_posterior", "run_chain"]
        for name, cfg in seen:
            assert (cfg.sigma2, cfg.base_mean, cfg.base_var) == (0.5, 0.25, 4.0)
        assert [cfg.alpha_fixed for _, cfg in seen] == [None, None, 2.0, 2.0]


class TestErrorHandling:
    def test_malformed_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_non_object_config(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["generate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command,conf,key", [
        ("verify", {"verify": 3}, "verify"),
        ("verify", {"verify": {"checks": ["merge"], "merge": 5}}, "verify.merge"),
        ("verify", {"verify": {"checks": ["poisson"], "poisson": []}},
         "verify.poisson"),
        ("oracle", {"oracle": []}, "oracle"),
        ("benchmark", {"benchmark": []}, "benchmark"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 40}, 5]}},
         "benchmark.grid"),
        ("run", {"dataset": 5}, "dataset"),
        ("run", {"dataset": {"kind": "zipf", "n": 40, "params": 3}},
         "dataset.params"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 40}, []]}, "datasets"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 40, "params": [1]}]},
         "datasets[0].params"),
        ("benchmark", {"benchmark": {"grid": [
            {"sampler": "slice", "n": 40},
            {"sampler": "slice", "n": 40, "dataset_params": 3}], "iters": 10}},
         "benchmark cell 1 dataset_params"),
    ])
    def test_non_object_setting_is_config_error(self, tmp_path, capsys,
                                                command, conf, key):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, conf)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {key} must be a" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,conf,message", [
        ("run", {"dataset": {"kind": "zipf", "n": "40"}},
         "dataset.n must be an integer"),
        ("run", {"dataset": {"kind": "zipf", "n": 2.7}},
         "dataset.n must be an integer"),
        ("run", {"dataset": {"n": 0}}, "dataset.n must be >= 2"),
        ("generate", {"datasets": [{"kind": "zipf", "n": True}]},
         "datasets[0].n must be an integer"),
        ("run", {"dataset": {"params": {"foo": 1}}},
         "dataset kind 'three-cluster' takes no param 'foo'"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 9},
                                   {"kind": "zipf", "n": 9, "params": {"foo": 1}}]},
         "dataset kind 'zipf' takes no param 'foo'"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": "40"}],
                                     "iters": 10}},
         "benchmark cell 0 n must be an integer"),
        ("benchmark", {"benchmark": {"grid": [
            {"sampler": "slice", "n": 40},
            {"sampler": "slice", "n": 40, "dataset_params": {"foo": 1}}],
            "iters": 10}},
         "dataset kind 'three-cluster' takes no param 'foo'"),
        ("run", {"dataset": {"kind": "zipf", "n": 40, "params": {"max_label": "5"}}},
         "dataset param 'max_label' must be an integer >= 1"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 40,
                                    "params": {"exponent": "2"}}]},
         "dataset param 'exponent' must be a finite number"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 40}],
                                     "dataset_kind": "zipf",
                                     "dataset_params": {"separation": "3"},
                                     "iters": 10}},
         "dataset param 'separation' must be a finite number"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 2}],
                                     "iters": 10}},
         "dataset kind 'three-cluster' needs n >= 3, got 2"),
        # one observation: the chain would run and its report then fail on
        # the Rand index, which needs a pair
        ("run", {"dataset": {"kind": "zipf", "n": 1}, "iters": 20, "burnin": 5},
         "dataset.n must be >= 2, since the Rand index"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 1,
                                               "dataset_kind": "zipf"}],
                                     "iters": 20}},
         "benchmark cell 0 n must be >= 2, since the Rand index"),
    ])
    def test_malformed_dataset_is_config_error(self, tmp_path, capsys, command,
                                               conf, message):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, conf)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,line", [
        ("y,true_label\n0.5,1\n1.5\n", 3),
        ("y,true_label\n", 2),
        ("y,true_label\n0.5,1\nnan,2\n", 3),
    ], ids=["row-without-label", "no-rows", "nan-observation"])
    def test_malformed_dataset_csv_is_config_error(self, tmp_path, capsys,
                                                   text, line):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, _run_config(
            tmp_path, "out", dataset={"path": str(data)}))
        assert main(["run", "--config", cfg]) == 2
        assert f"error: {data}, line {line}: expected" in capsys.readouterr().err
        assert not out.exists()

    def test_one_row_dataset_csv_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("y,true_label\n0.5,1\n")
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, _run_config(
            tmp_path, "out", dataset={"path": str(data)}))
        assert main(["run", "--config", cfg]) == 2
        assert f"error: the row count of {data} must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,conf,message", [
        ("run", {"sigma2": "1"}, "sigma2 must be a positive finite number"),
        ("run", {"alpha_fixed": True, "dataset": {"n": 20}, "iters": 10,
                 "burnin": 0}, "alpha_fixed must be a positive finite number"),
        ("oracle", {"oracle": {"n": 4, "sweeps": 200}, "sigma2": "1"},
         "sigma2 must be a positive finite number"),
        ("oracle", {"oracle": {"n": 4, "sweeps": 200}, "base_mean": "0"},
         "base_mean must be a finite number"),
        ("benchmark", {"benchmark": {"grid": [
            {"sampler": "slice", "n": 20, "sigma2": "1"}], "iters": 10}},
         "benchmark cell 0 sigma2 must be a positive finite number"),
        ("benchmark", {"benchmark": {"grid": [
            {"sampler": "slice", "n": 20, "sigma2": 0}], "iters": 10}},
         "benchmark cell 0 sigma2 must be a positive finite number"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slyce", "n": 20}],
                                     "iters": 10}},
         "'slyce' is not a valid SamplerKind"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "bgs", "n": 20, "L": 0}],
                                     "iters": 10}},
         "blocked Gibbs requires a truncation level"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 20}],
                                     "iters": 10}, "threads": "2"},
         "threads must be an integer"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 20}],
                                     "iters": 10}, "threads": 0},
         "threads must be >= 1"),
        ("verify", {"verify": {"ns": [50], "alphas": [1.0], "replicates": 100,
                               "checks": ["overhead"]}, "threads": 0},
         "threads must be >= 1"),
        ("verify", {"verify": {"ns": [50], "alphas": [1.0], "replicates": 100,
                               "checks": ["overhead"]}, "seed": True},
         "seed must be an integer in [0, 2**64), got True"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 20}],
                                     "iters": 10}, "seed": "x"},
         "seed must be an integer in [0, 2**64), got 'x'"),
        ("run", {"threads": 0}, "threads must be >= 1"),
        ("benchmark", {"benchmark": {"grid": [{"n": 40}], "iters": 10}},
         "benchmark cell 0 sampler must be set"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice"}], "iters": 10}},
         "benchmark cell 0 n must be set"),
        ("generate", {"datasets": [{"n": 40}]}, "datasets[0].kind must be set"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 9}, {"kind": "zipf"}]},
         "datasets[1].n must be set"),
        # a key no table has, at the top level of each command and in each
        # object; the typo "iter" would run the paper preset
        ("generate", {"dataset": {"kind": "zipf", "n": 9}}, "dataset is not a setting"),
        ("run", {"iter": 10, "burnin": 0, "dataset": {"n": 20}},
         "iter is not a setting"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 20}],
                                     "iters": 10}, "burnin": 5},
         "burnin is not a setting"),
        ("verify", {"verify": {"checks": ["poisson"]}, "Verify": {}},
         "Verify is not a setting"),
        ("oracle", {"oracle": {"n": 4}, "alpha_fixed": 2.0},
         "alpha_fixed is not a setting"),
        ("run", {"dataset": {"kind": "zipf", "n": 40, "size": 40}},
         "dataset.size is not a setting"),
        ("run", {"dataset": {"path": "data.csv", "n": 40}}, "dataset.n is not a setting"),
        ("run", {"sampler": {"kind": "bgs", "l": 5}}, "sampler.l is not a setting"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 20}],
                                     "iter": 10}}, "benchmark.iter is not a setting"),
        ("benchmark", {"benchmark": {"grid": [{"sampler": "slice", "n": 20,
                                               "seed": 3}], "iters": 10}},
         "benchmark cell 0 seed is not a setting"),
        ("verify", {"verify": {"check": ["overhead"]}}, "verify.check is not a setting"),
        ("verify", {"verify": {"checks": ["merge"], "merge": {"sweeps": 3}}},
         "verify.merge.sweeps is not a setting"),
        ("verify", {"verify": {"checks": ["poisson"], "poisson": {"n": 3}}},
         "verify.poisson.n is not a setting"),
        ("oracle", {"oracle": {"n": 4, "sweep": 200}}, "oracle.sweep is not a setting"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 9, "size": 9}]},
         "datasets[0].size is not a setting"),
        # sweep counts where the command runs no chain of its own
        ("verify", {"iters": 50}, "iters is not a setting"),
        ("verify", {"burnin": 10}, "burnin is not a setting"),
        ("oracle", {"oracle": {"n": 4}, "iters": 50}, "iters is not a setting"),
        ("oracle", {"oracle": {"n": 4}, "burnin": 10}, "burnin is not a setting"),
        ("generate", {"iters": 50}, "iters is not a setting"),
        ("generate", {"burnin": 10}, "burnin is not a setting"),
        # settings that name a file must be strings
        ("run", {"dataset": {"path": 5}}, "dataset.path must be a string, got 5"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 9, "name": 5}]},
         "datasets[0].name must be a string, got 5"),
        # two entries written to one file: the same default name, or the
        # same name set on both
        ("generate", {"datasets": [{"kind": "zipf", "n": 9},
                                   {"kind": "zipf", "n": 9,
                                    "params": {"separation": 2.0}}]},
         "datasets[0] and datasets[1] would both be written to zipf_n9.csv"),
        ("generate", {"datasets": [{"kind": "zipf", "n": 9, "name": "a"},
                                   {"kind": "three-cluster", "n": 30},
                                   {"kind": "zipf", "n": 12, "name": "a"}]},
         "datasets[0] and datasets[2] would both be written to a.csv"),
        # a name that would leave the output directory or name no file
        *[("generate", {"datasets": [{"kind": "zipf", "n": 9},
                                     {"kind": "zipf", "n": 9, "name": name}]},
           f"datasets[1].name must be a file name: not empty, . or .., "
           f"without /, \\ or NUL, and at most 250 bytes in UTF-8, got {name!r}")
          for name in ("sub/x", "", ".", "..", "a\\b", "a\0b", "x" * 251,
                       "\u00e9" * 126, "a\ud800b")],
    ])
    def test_malformed_setting_is_config_error(self, tmp_path, capsys, command,
                                               conf, message):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, conf)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "run", "benchmark", "verify",
                                         "oracle"])
    def test_out_that_is_not_a_string_is_config_error(self, tmp_path, capsys,
                                                      monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, {"out": 5})
        assert main([command, "--config", cfg]) == 2
        assert "error: out must be a string, got 5" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["conf.json"]

    def test_unknown_sampler_kind(self, tmp_path):
        conf = _run_config(tmp_path, "x", sampler={"kind": "quantum"})
        cfg = _write_config(tmp_path, conf)
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "galaxy"])

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


# every command at the console-script sizes of the CI workflow, in a fresh
# interpreter where importing scipy fails; prints each command's exit code
NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
from dpslice.cli import main
confs = {
    "generate": {"datasets": [{"kind": "zipf", "n": 30}]},
    "run": {"sampler": "slice", "dataset": {"kind": "three-cluster", "n": 40},
            "iters": 50, "burnin": 10, "time_budget_s": 60},
    "benchmark": {"benchmark": {"grid": [{"sampler": "slice", "n": 40},
                                         {"sampler": "bgs", "L": "n", "n": 150}],
                                "iters": 20, "burnin": 5, "time_budget_s": 60}},
    "verify": {"verify": {"ns": [50], "alphas": [1.0], "deltas": [0.1],
                          "replicates": 1000, "checks": ["overhead", "poisson"],
                          "poisson": {"replicates": 1000}}},
    "oracle": {"oracle": {"n": 4, "sweeps": 2000, "burnin": 100,
                          "samplers": ["slice", "crp-collapsed"], "bgs_L": [2]}},
}
codes = {}
for command, conf in confs.items():
    with open(command + ".json", "w") as fh:
        json.dump(conf, fh)
    codes[command] = main([command, "--config", command + ".json",
                           "--out", command])
print(json.dumps(codes))
"""


class TestImport:
    # no module named scipy or scipy.* may be loaded
    NO_SCIPY = ("import sys, {module}; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")

    def test_cli_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.NO_SCIPY.format(module="dpslice.cli")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.NO_SCIPY.format(module="dpslice")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_command_runs_with_scipy_unimportable(self, tmp_path):
        # runs in tmp_path, so the package's directory goes on the path whole
        src = str(Path(dpslice.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        codes = json.loads(proc.stdout.strip().splitlines()[-1])
        assert codes == {"generate": 0, "run": 0, "benchmark": 0,
                         "verify": 0, "oracle": 0}
        assert (tmp_path / "verify" / "verify.json").exists()
        assert (tmp_path / "oracle" / "oracle_exact.csv").exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dpslice.cli", "generate",
             "--out", str(tmp_path / "gen"), "--seed", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "gen" / "zipf_n300.csv").exists()
        assert "wrote" in proc.stdout


def _shipped_configs(monkeypatch):
    """(command, config) for the config of each benchmark workload that runs
    a command, README's ``run`` example and each config the CI workflow's
    console-script step expects to succeed."""
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    configs = [(w.command, w().conf) for w in workloads.WORKLOADS.values()
               if issubclass(w, workloads._CliWorkload)]
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"A `run` config looks like:\s*```json\n(.*?)```", readme, re.S)
    configs.append(("run", json.loads(example.group(1))))
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    files = {name: json.loads(text)
             for text, name in re.findall(r"echo '(.*)' > (\S+)\.json", ci)}
    configs += [(command, files[name]) for command, name in
                re.findall(r"^\s*dpslice (\w+) --config (\S+)\.json", ci, re.M)]
    return configs


class TestShippedConfigs:
    def test_every_shipped_config_passes_the_config_check(self, tmp_path,
                                                          monkeypatch):
        # a key rejected here would fail the benchmark's runs or CI
        for name in ("run_chain", "exact_posterior", "simulate_overhead"):
            monkeypatch.setattr(cli, name, _sentinel)
        configs = _shipped_configs(monkeypatch)
        assert sorted(command for command, _ in configs) == [
            "benchmark", "oracle", "oracle", "run", "run", "run", "run", "verify",
            "verify"]
        for idx, (command, conf) in enumerate(configs):
            cfg = _write_config(tmp_path, conf, f"{idx}.json")
            with pytest.raises(Sentinel):
                main([command, "--config", cfg, "--seed", str(DEFAULT_SEED),
                      "--out", str(tmp_path / str(idx)), "--threads", "1"])


class TestTracedNames:
    def test_every_name_the_traced_benchmark_patches_exists(self, monkeypatch):
        # the traced benchmark patches package functions by name on the
        # namespace of modules that perfbench/run.py builds; a deleted or
        # renamed one fails the patch here
        monkeypatch.syspath_prepend(str(ROOT))
        layers = importlib.import_module("perfbench.layers")
        tracer = importlib.import_module("perfbench.tracer").Tracer()
        probe = importlib.import_module("perfbench.workloads").Probe
        dp = SimpleNamespace(**{name: importlib.import_module(f"dpslice.{name}")
                                for name in layers.MODULES})
        before = {name: dict(vars(module)) for name, module in vars(dp).items()}
        try:
            layers.install(tracer, dp)
            with probe(dp):
                pass
        finally:
            tracer.unpatch()
        assert {name: dict(vars(module)) for name, module in vars(dp).items()} == before
