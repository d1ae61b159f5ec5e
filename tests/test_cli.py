"""Command-line harness: output files, schemas, exit codes, determinism
under reruns, and thread-count independence, all on reduced iteration
budgets."""
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from dpslice.cli import (
    BENCHMARK_COLUMNS,
    DEFAULT_SEED,
    SCHEMA_VERSION,
    VERIFY_COLUMNS,
    main,
)


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


class TestRun:
    def test_slice_outputs_and_summary_schema(self, tmp_path):
        cfg = _write_config(tmp_path, _run_config(tmp_path, "run1"))
        assert main(["run", "--config", cfg, "--seed", "3"]) == 0
        out = tmp_path / "run1"
        trace = _read_csv(out / "trace.csv")
        assert trace[0] == ["iter", "K", "H", "loglik", "alpha", "elapsed_ns"]
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

    def test_coclustering_export_can_be_disabled(self, tmp_path):
        conf = _run_config(tmp_path, "nococl", write_coclustering=False)
        cfg = _write_config(tmp_path, conf)
        assert main(["run", "--config", cfg]) == 0
        assert not (tmp_path / "nococl" / "coclustering.csv").exists()


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


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dpslice.cli", "generate",
             "--out", str(tmp_path / "gen"), "--seed", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "gen" / "zipf_n300.csv").exists()
        assert "wrote" in proc.stdout
