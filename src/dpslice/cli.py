"""Batch command-line harness: generate | run | benchmark | verify | oracle.

Each command is a pure function of (config, seed): rerunning reproduces
every output byte-for-byte except wall-clock-derived fields (elapsed_ns in
traces, the timing block of summaries, timing columns of benchmark CSVs).
Configuration is one JSON document; command-line flags override the file.

RNG stream allocation, fixed so outputs never depend on thread count or
execution order: stream 0 generates the primary dataset, stream 1 seeds
chain initialization, stream 2 drives the chain; benchmark and verify grid
cells use 100 + cell index; per-n shared benchmark datasets use 10000 + n
and their initializations 20000 + n.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .bounds import (
    check_exponential_tail,
    check_merge_monotonicity,
    check_overhead_bound,
    check_poisson_stick_law,
    overhead_bound_constants,
    simulate_overhead,
)
from .core import ModelConfig, TraceRecord, rand_index, relabel_compact
from .datagen import Dataset, kmeans_init, load_dataset, make_dataset, save_dataset
from .diagnostics import (
    MIN_TRACE_LENGTH,
    CoClusteringMatrix,
    accumulate_coclustering,
    binder_point_estimate,
    binder_point_estimate_sparse,
    ess,
)
from .oracle import MAX_ENUM_N, exact_posterior, tv_distance
from .randkit import RngStream
from .samplers import SamplerKind, make_sweep, run_chain

SCHEMA_VERSION = 1
DEFAULT_SEED = 12345
PRESETS = {
    "paper": {"iters": 10_000, "burnin": 5_000},
    "desk": {"iters": 1_000, "burnin": 1_000},
}
ESS_WINDOW = 5_000
# matrix-based Binder search and co-clustering export are quadratic in n;
# beyond this size the contingency-based search takes over
MATRIX_N_LIMIT = 1_000

BENCHMARK_COLUMNS = ["sampler", "n", "L", "seed", "median_sweep_ns",
                     "ess_loglik_per_s", "ess_H_per_s", "rand_binder",
                     "infeasible"]
VERIFY_COLUMNS = ["n", "alpha", "delta", "spec", "exceedance", "threshold",
                  "pass"]


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file {p} does not exist")
    conf = json.loads(p.read_text())
    if not isinstance(conf, dict):
        raise ValueError("config must be a JSON object")
    return conf


def _merge_args(conf: dict, args: argparse.Namespace) -> dict:
    conf = dict(conf)
    if args.seed is not None:
        conf["seed"] = args.seed
    conf.setdefault("seed", DEFAULT_SEED)
    if args.out is not None:
        conf["out"] = args.out
    conf.setdefault("out", "out")
    if args.threads is not None:
        conf["threads"] = args.threads
    conf.setdefault("threads", 1)
    if args.preset is not None:
        conf.update(PRESETS[args.preset])
    conf.setdefault("iters", PRESETS["paper"]["iters"])
    conf.setdefault("burnin", PRESETS["paper"]["burnin"])
    return conf


# the config keys that set the model; a benchmark grid cell may override them
MODEL_KEYS = ("sigma2", "base_mean", "base_var", "alpha_fixed")


def _model_config(conf: dict) -> ModelConfig:
    return ModelConfig(**{key: conf[key] for key in MODEL_KEYS if key in conf})


def _outdir(conf: dict) -> Path:
    out = Path(conf["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _dataset_from_conf(conf: dict, seed: int, stream: int) -> Dataset:
    dconf = conf.get("dataset", {})
    if "path" in dconf:
        return load_dataset(dconf["path"])
    kind = dconf.get("kind", "three-cluster")
    n = int(dconf.get("n", 600))
    params = dict(dconf.get("params", {}))
    return make_dataset(kind, RngStream(seed=seed, stream=stream), n, **params)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    conf = _merge_args(load_config(args.config), args)
    out = _outdir(conf)
    specs = conf.get("datasets",
                     [{"kind": "three-cluster", "n": 150},
                      {"kind": "zipf", "n": 300}])
    seed = conf["seed"]
    for idx, spec in enumerate(specs):
        kind = spec["kind"]
        n = int(spec["n"])
        params = dict(spec.get("params", {}))
        ds = make_dataset(kind, RngStream(seed=seed, stream=idx), n, **params)
        name = spec.get("name", f"{kind}_n{n}")
        path = out / f"{name}.csv"
        save_dataset(ds, path)
        print(f"wrote {path} ({ds.n} rows, {int(np.unique(ds.labels).size)} true clusters)")
    return 0


# ---------------------------------------------------------------------------
# run


def _trace_to_csv(path: Path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(TraceRecord.CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def _snapshots_to_csv(path: Path, iters, snapshots) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("iter,labels\n")
        for it, lab in zip(iters, snapshots):
            fh.write(f"{it},\"{','.join(str(int(v)) for v in lab)}\"\n")


def _check_iters(iters, name: str) -> None:
    """Fail before any chain runs when the recorded sweeps are too few for
    the effective sample size that ``run`` and ``benchmark`` report."""
    if iters < MIN_TRACE_LENGTH:
        raise ValueError(f"{name} must be >= {MIN_TRACE_LENGTH} for the "
                         f"effective sample size, got {iters}")


def _ess_block(records) -> dict:
    window = records[-min(ESS_WINDOW, len(records)):]
    seconds = sum(r.elapsed_ns for r in window) / 1e9
    loglik = ess([r.loglik for r in window])
    nclus = ess([float(r.num_clusters) for r in window])
    def per_s(res):
        if res.zero_variance:
            return 0.0
        return res.value / seconds if seconds > 0 else 0.0
    return {
        "window": len(window),
        "ess_loglik": loglik.value,
        "ess_loglik_zero_variance": loglik.zero_variance,
        "ess_H": nclus.value,
        "ess_H_zero_variance": nclus.zero_variance,
        "seconds": seconds,
        "ess_loglik_per_s": per_s(loglik),
        "ess_H_per_s": per_s(nclus),
    }


def _binder_from_snapshots(snapshots, n: int):
    if n <= MATRIX_N_LIMIT:
        matrix = accumulate_coclustering(CoClusteringMatrix(n), snapshots)
        return binder_point_estimate(snapshots, matrix), matrix
    return binder_point_estimate_sparse(snapshots), None


def _chain_start(y, kind: SamplerKind, L, rng: RngStream, k: int):
    """Truncation level (``"n"``: one component per observation) and the
    k-means start with min(k, n) clusters; blocked Gibbs falls back to
    round-robin labels when that start has more than L blocks. A sampler
    and truncation level the chain would reject fail here, before k-means
    runs."""
    n = len(y)
    if L == "n":
        L = n
    make_sweep(kind, L)
    init = kmeans_init(y, rng, k=min(k, n))
    if kind is SamplerKind.BLOCKED_GIBBS and init.num_blocks > L:
        init = relabel_compact((np.arange(n) % L) + 1)
    return L, init.labels


def cmd_run(args: argparse.Namespace) -> int:
    conf = _merge_args(load_config(args.config), args)
    _check_iters(conf["iters"], "iters")
    out = _outdir(conf)
    seed = conf["seed"]
    ds = _dataset_from_conf(conf, seed, stream=0)
    mcfg = _model_config(conf).resolved_for(ds.n)
    sconf = conf.get("sampler", {})
    if isinstance(sconf, str):
        sconf = {"kind": sconf}
    if not isinstance(sconf, dict):
        raise ValueError("sampler must be a kind string or an object "
                         "with 'kind' and optional 'L'")
    kind = SamplerKind(sconf.get("kind", "slice"))
    L, init = _chain_start(ds.y, kind, sconf.get("L"),
                           RngStream(seed=seed, stream=1),
                           int(conf.get("init_k", 5)))
    result = run_chain(ds.y, mcfg, RngStream(seed=seed, stream=2), kind,
                       iters=conf["iters"], burnin=conf["burnin"],
                       init_labels=init, L=L,
                       time_budget_s=conf.get("time_budget_s", 1.0))
    _trace_to_csv(out / "trace.csv", result.records)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "sampler": kind.value,
        "L": L,
        "n": ds.n,
        "dataset": {"name": ds.name, "params": ds.params},
        "iters": conf["iters"],
        "burnin": conf["burnin"],
        "infeasible": result.infeasible,
    }
    if result.infeasible:
        spent = sum(r.elapsed_ns for r in result.records) / 1e9
        summary["infeasibility"] = {
            "completed_iters": len(result.records),
            "budget_s": conf.get("time_budget_s", 1.0),
            "spent_s": spent,
        }
        _write_json(out / "summary.json", summary)
        print(f"INFEASIBLE: first {len(result.records)} iterations took "
              f"{spent:.2f}s (budget {conf.get('time_budget_s', 1.0)}s)")
        return 2

    _snapshots_to_csv(out / "partitions.csv", result.snapshot_iters,
                      result.snapshots)
    binder, matrix = _binder_from_snapshots(result.snapshots, ds.n)
    with open(out / "binder.csv", "w", newline="") as fh:
        fh.write(",".join(str(int(v)) for v in binder.labels) + "\n")
    if matrix is not None and conf.get("write_coclustering", True):
        np.savetxt(out / "coclustering.csv", matrix.probabilities(),
                   delimiter=",", fmt="%.6f")
    post = result.records[conf["burnin"]:]
    summary.update({
        "binder": {"sample_index": binder.sample_index, "loss": binder.loss,
                   "num_snapshots": len(result.snapshots)},
        "rand_binder_vs_truth": rand_index(binder.labels, ds.labels),
        "alpha_mean": float(np.mean([r.alpha for r in post])),
        "num_clusters_mean": float(np.mean([r.num_clusters for r in post])),
    })
    stats = _ess_block(post)
    summary["ess"] = {k: stats[k] for k in
                      ("window", "ess_loglik", "ess_loglik_zero_variance",
                       "ess_H", "ess_H_zero_variance")}
    summary["timing"] = {
        "seconds_window": stats["seconds"],
        "ess_loglik_per_s": stats["ess_loglik_per_s"],
        "ess_H_per_s": stats["ess_H_per_s"],
        "mean_sweep_ns": float(np.mean([r.elapsed_ns for r in post])),
        "median_sweep_ns": float(np.median([r.elapsed_ns for r in post])),
    }
    _write_json(out / "summary.json", summary)
    print(f"{kind.value}: n={ds.n} rand(binder, truth)="
          f"{summary['rand_binder_vs_truth']:.4f} "
          f"ess_loglik={stats['ess_loglik']:.1f}")
    return 0


# ---------------------------------------------------------------------------
# benchmark


def _map_cells(fn, cells, threads: int) -> list:
    """``fn`` over the grid cells in order, in ``threads`` worker processes
    when that is more than one."""
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, cells))
    return [fn(c) for c in cells]


def _benchmark_cell(cell: dict) -> dict:
    """One (sampler, n) grid cell; runs in a worker process."""
    seed = cell["seed"]
    n = cell["n"]
    ds = make_dataset(cell["dataset_kind"],
                      RngStream(seed=seed, stream=10_000 + n), n,
                      **cell.get("dataset_params", {}))
    mcfg = _model_config(cell).resolved_for(n)
    kind = SamplerKind(cell["sampler"])
    L, init = _chain_start(ds.y, kind, cell.get("L"),
                           RngStream(seed=seed, stream=20_000 + n), 5)
    result = run_chain(ds.y, mcfg, RngStream(seed=seed, stream=100 + cell["index"]),
                       kind, iters=cell["iters"], burnin=cell["burnin"],
                       init_labels=init, L=L,
                       time_budget_s=cell["time_budget_s"])
    post = result.records[cell["burnin"]:] if not result.infeasible else result.records
    row = {
        "sampler": kind.value,
        "n": n,
        "L": "" if L is None else L,
        "seed": seed,
        "median_sweep_ns": int(np.median([r.elapsed_ns for r in post])),
        "ess_loglik_per_s": 0.0,
        "ess_H_per_s": 0.0,
        "rand_binder": "",
        "infeasible": result.infeasible,
    }
    if not result.infeasible:
        stats = _ess_block(post)
        row["ess_loglik_per_s"] = stats["ess_loglik_per_s"]
        row["ess_H_per_s"] = stats["ess_H_per_s"]
        binder, _ = _binder_from_snapshots(result.snapshots, n)
        row["rand_binder"] = rand_index(binder.labels, ds.labels)
    return row


DEFAULT_BENCHMARK_GRID = (
    [{"sampler": "slice", "n": n} for n in (150, 300, 600, 1500, 3000)]
    + [{"sampler": "bgs", "L": "n", "n": n} for n in (150, 300, 600)]
    + [{"sampler": "crp-atoms", "n": 3000}]
)


def cmd_benchmark(args: argparse.Namespace) -> int:
    conf = _merge_args(load_config(args.config), args)
    out = _outdir(conf)
    bench = conf.get("benchmark", {})
    grid = bench.get("grid", [dict(c) for c in DEFAULT_BENCHMARK_GRID])
    cells = []
    for idx, g in enumerate(grid):
        cell = {key: conf[key] for key in MODEL_KEYS if key in conf}
        cell.update(g)
        cell.setdefault("dataset_kind", bench.get("dataset_kind", "three-cluster"))
        cell.setdefault("dataset_params", bench.get("dataset_params", {}))
        cell.setdefault("iters", bench.get("iters", conf["iters"]))
        cell.setdefault("burnin", bench.get("burnin", 0))
        cell.setdefault("time_budget_s", bench.get("time_budget_s",
                                                   conf.get("time_budget_s", 1.0)))
        cell["seed"] = conf["seed"]
        cell["index"] = idx
        _check_iters(cell["iters"], f"benchmark cell {idx} iters")
        cells.append(cell)
    rows = _map_cells(_benchmark_cell, cells, conf["threads"])
    path = out / "benchmark.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BENCHMARK_COLUMNS)
        for row in rows:
            w.writerow([row["sampler"], row["n"], row["L"], row["seed"],
                        row["median_sweep_ns"], repr(row["ess_loglik_per_s"]),
                        repr(row["ess_H_per_s"]),
                        repr(row["rand_binder"]) if row["rand_binder"] != "" else "",
                        "true" if row["infeasible"] else "false"])
    for row in rows:
        mark = " INFEASIBLE" if row["infeasible"] else ""
        print(f"{row['sampler']:>14} n={row['n']:<6} median_sweep="
              f"{row['median_sweep_ns'] / 1e6:.3f}ms{mark}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_cell(cell: dict) -> dict:
    rng = RngStream(seed=cell["seed"], stream=100 + cell["index"])
    samples = simulate_overhead(rng, cell["n"], cell["spec"], cell["alpha"],
                                cell["replicates"])
    out = {"n": cell["n"], "alpha": cell["alpha"], "spec": cell["spec"],
           "overhead": [], "tails": None}
    for delta in cell["deltas"]:
        consts = overhead_bound_constants(cell["alpha"], delta)
        out["overhead"].append(check_overhead_bound(samples, consts).to_dict())
    if cell.get("tails"):
        consts = overhead_bound_constants(cell["alpha"], cell["deltas"][0])
        out["tails"] = check_exponential_tail(samples, consts).to_dict()
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    conf = _merge_args(load_config(args.config), args)
    out = _outdir(conf)
    vconf = conf.get("verify", {})
    alphas = vconf.get("alphas", [0.5, 1.0, 5.0])
    ns = vconf.get("ns", [100, 1_000, 10_000])
    deltas = vconf.get("deltas", [0.1, 0.01])
    spec = vconf.get("spec", "singleton")
    replicates = int(vconf.get("replicates", 100_000))
    tails_at = vconf.get("tails_at", [[1_000, 1.0]])
    checks = vconf.get("checks", ["overhead", "tails", "merge", "poisson"])
    seed = conf["seed"]
    if any(n < 2 for n in ns):
        raise ValueError(f"verify.ns must all be >= 2, since the bounds scale "
                         f"with log n; got {ns}")

    cells = []
    idx = 0
    for alpha in alphas:
        for n in ns:
            cell = {"seed": seed, "index": idx, "n": n, "alpha": alpha,
                    "spec": spec, "replicates": replicates, "deltas": deltas,
                    "tails": "tails" in checks
                             and any(n == ta[0] and alpha == ta[1] for ta in tails_at)}
            cells.append(cell)
            idx += 1
    if "overhead" in checks or "tails" in checks:
        results = _map_cells(_verify_cell, cells, conf["threads"])
    else:
        results = []

    report = {"schema_version": SCHEMA_VERSION, "seed": seed,
              "replicates": replicates, "cells": results}
    all_pass = True
    csv_rows = []
    for res in results:
        for rec in res["overhead"]:
            csv_rows.append([rec["n"], rec["alpha"], rec["delta"], rec["spec"],
                             repr(rec["exceedance"]), repr(rec["threshold"]),
                             "true" if rec["passed"] else "false"])
            all_pass = all_pass and rec["passed"]
        if res["tails"] is not None:
            all_pass = all_pass and res["tails"]["passed"]

    if "merge" in checks:
        mconf = vconf.get("merge", {})
        x_grid = mconf.get("x_grid", [1e-3, 1e-2, 0.05])
        m = int(mconf.get("replicates", 1_000_000))
        n_merge = int(mconf.get("n", 6))
        alpha_m = float(mconf.get("alpha", 1.0))
        rng = RngStream(seed=seed, stream=50_000)
        chain = []
        sizes = [1] * n_merge
        while len(sizes) > 1:
            rep = check_merge_monotonicity(rng, sizes, 1, 2, x_grid, m,
                                           alpha=alpha_m)
            chain.append(rep.to_dict())
            all_pass = all_pass and rep.passed
            sizes = sorted((int(v) for v in rep.merged_sizes), reverse=True)
        report["merge_chain"] = chain

    if "poisson" in checks:
        pconf = vconf.get("poisson", {})
        x = float(pconf.get("x", math.exp(-1.0)))
        alpha_p = float(pconf.get("alpha", 2.0))
        m = int(pconf.get("replicates", 100_000))
        rng = RngStream(seed=seed, stream=60_000)
        rep = check_poisson_stick_law(rng, x, alpha_p, m)
        report["poisson"] = rep.to_dict()
        all_pass = all_pass and rep.passed

    report["all_pass"] = all_pass
    _write_json(out / "verify.json", report)
    with open(out / "verify.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(VERIFY_COLUMNS)
        w.writerows(csv_rows)
    for row in csv_rows:
        print(f"n={row[0]} alpha={row[1]} delta={row[2]} spec={row[3]} "
              f"exceedance={row[4]} threshold={row[5]} pass={row[6]}")
    print(f"verify: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# oracle comparison


def cmd_oracle(args: argparse.Namespace) -> int:
    conf = _merge_args(load_config(args.config), args)
    out = _outdir(conf)
    oconf = conf.get("oracle", {})
    n = int(oconf.get("n", 6))
    if n > MAX_ENUM_N:
        print(f"oracle comparison needs n <= {MAX_ENUM_N}, got {n}",
              file=sys.stderr)
        return 2
    alpha = float(oconf.get("alpha", 1.0))
    sweeps = int(oconf.get("sweeps", 50_000))
    burnin = int(oconf.get("burnin", 1_000))
    tv_limit = float(oconf.get("tv_limit", 0.1))
    samplers = oconf.get("samplers", ["slice", "slice-marginal", "crp-atoms",
                                      "crp-collapsed"])
    bgs_levels = oconf.get("bgs_L", [2, n])
    seed = conf["seed"]

    ds = make_dataset("three-cluster", RngStream(seed=seed, stream=0), n)
    mcfg = _model_config({**conf, "alpha_fixed": alpha})
    exact = exact_posterior(ds.y, alpha, mcfg)
    exact.to_csv(out / "oracle_exact.csv")

    def empirical(kind, L=None, stream=0):
        result = run_chain(ds.y, mcfg, RngStream(seed=seed, stream=stream),
                           kind, iters=sweeps, burnin=burnin, L=L,
                           snapshot_thin=1, time_budget_s=3600.0)
        freq: dict = {}
        for lab in result.snapshots:
            key = tuple(int(v) for v in lab)
            freq[key] = freq.get(key, 0) + 1
        total = len(result.snapshots)
        return {k: v / total for k, v in freq.items()}

    rows = []
    all_pass = True
    for i, name in enumerate(samplers):
        emp = empirical(SamplerKind(name), stream=100 + i)
        tv = tv_distance(emp, exact)
        ok = tv < tv_limit
        all_pass = all_pass and ok
        rows.append({"sampler": name, "L": None, "tv": tv,
                     "truncated_mass_empirical": None,
                     "truncated_mass_oracle": None, "exact_target": True,
                     "passed": ok})
        print(f"{name:>14}: TV={tv:.4f} {'PASS' if ok else 'FAIL'} (limit {tv_limit})")
    for j, L in enumerate(bgs_levels):
        emp = empirical(SamplerKind.BLOCKED_GIBBS, L=L, stream=200 + j)
        tv = tv_distance(emp, exact)
        emp_mass = sum(p for lab, p in emp.items() if len(set(lab)) > L)
        oracle_mass = exact.mass_where(lambda labels: int(labels.max()) > L)
        rows.append({"sampler": "bgs", "L": L, "tv": tv,
                     "truncated_mass_empirical": emp_mass,
                     "truncated_mass_oracle": oracle_mass,
                     "exact_target": False, "passed": None})
        print(f"{'bgs-' + str(L):>14}: TV={tv:.4f} empirical mass(H>{L})="
              f"{emp_mass:.6f} oracle mass={oracle_mass:.6f}")
    report = {"schema_version": SCHEMA_VERSION, "seed": seed, "n": n,
              "alpha": alpha, "sweeps": sweeps, "burnin": burnin,
              "tv_limit": tv_limit, "rows": rows, "all_pass": all_pass}
    _write_json(out / "oracle.json", report)
    print(f"oracle: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (unsigned 64-bit)")
    common.add_argument("--out", type=str, default=None,
                        help="output directory")
    common.add_argument("--threads", type=int, default=None,
                        help="worker processes for grid commands")
    common.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="iteration preset: paper=10000+5000, desk=1000+1000")
    p = argparse.ArgumentParser(
        prog="dpslice",
        description="Dirichlet process mixture samplers: experiments harness")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common],
                   help="write synthetic datasets as CSV plus JSON sidecar")
    sub.add_parser("run", parents=[common],
                   help="run one chain; write trace, partitions, summary")
    sub.add_parser("benchmark", parents=[common],
                   help="time a sampler grid; write benchmark.csv")
    sub.add_parser("verify", parents=[common],
                   help="Monte Carlo checks of the overhead bounds")
    sub.add_parser("oracle", parents=[common],
                   help="compare samplers against the enumerated posterior")
    return p


COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "benchmark": cmd_benchmark,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
