"""Batch command-line harness: generate | run | benchmark | verify | oracle.

Each command is a pure function of (config, seed): rerunning reproduces
every output byte-for-byte except wall-clock-derived fields (elapsed_ns in
traces, the timing block of summaries, timing columns of benchmark CSVs).
Configuration is one JSON document; command-line flags override the file.
Each command reads it through one settings table, which gives every key a
default and a rule; a key the table lacks is a config error.

RNG stream allocation, fixed so outputs never depend on thread count or
execution order: stream 0 generates the primary dataset, stream 1 seeds
chain initialization, stream 2 drives the chain; benchmark and verify grid
cells use 100 + cell index; per-n shared benchmark datasets use 10000 + n
and their initializations 20000 + n.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .bounds import (
    check_exponential_tail,
    check_merge_chain,
    check_merge_monotonicity,  # not called here; perfbench patches it on this module
    check_overhead_bound,
    check_poisson_stick_law,
    overhead_bound_constants,
    resolve_partition_sizes,
    simulate_overhead,
)
from .core import (
    MODEL_RULES,
    POSITIVE,
    UNIT,
    ModelConfig,
    TraceRecord,
    check,
    is_integer,
    is_number,
    rand_index,
    relabel_compact,
)
from .datagen import (
    MIN_N,
    check_dataset,
    kmeans_init,
    load_dataset,
    make_dataset,
    save_dataset,
)
from .diagnostics import (
    MIN_TRACE_LENGTH,
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
# clusters of the k-means start of every `run` and `benchmark` chain
INIT_K = 5
# matrix-based Binder search and co-clustering export are quadratic in n;
# beyond this size the contingency-based search takes over
MATRIX_N_LIMIT = 1_000

BENCHMARK_COLUMNS = ["sampler", "n", "L", "seed", "median_sweep_ns",
                     "ess_loglik_per_s", "ess_H_per_s", "rand_binder",
                     "infeasible"]
VERIFY_COLUMNS = ["n", "alpha", "delta", "spec", "exceedance", "threshold",
                  "pass"]
VERIFY_CHECKS = ("overhead", "tails", "merge", "poisson")
# the fixed check points of verify's merge and Poisson checks, the values
# the acceptance gate passes `bounds` for its merge chain and Poisson law
MERGE_X_GRID = (1e-3, 1e-2, 0.05)
MERGE_ALPHA = 1.0
POISSON_X = math.exp(-1.0)
POISSON_ALPHA = 2.0
# the samplers whose target is the exact posterior; blocked Gibbs is not one
EXACT_KINDS = tuple(k.value for k in SamplerKind
                    if k is not SamplerKind.BLOCKED_GIBBS)


# ---------------------------------------------------------------------------
# config plumbing


REQUIRED = object()  # the default of a key that must be set
# a key checked where it is used, together with the keys it depends on
LATER = (lambda value: True, "")
STRING = (lambda value: isinstance(value, str), "a string")
OBJECT = (lambda value: isinstance(value, dict), "a JSON object")
BUDGET = (lambda value: is_number(value) and value >= 0.0, "a number >= 0")


def _settings(conf: dict, table: dict, where: str = "") -> dict:
    """Every key of the settings table ``table``, as ``conf`` sets it or
    else at its default, checked by its rule; a key of ``conf`` that
    ``table`` lacks is a config error. ``where`` prefixes each key an error
    names. The table maps a key to its default and its rule: a rule pair for
    ``core.check``, a function (value, name) that returns the value or
    raises a config error naming it, or a table, the rule of a JSON object.
    As in ``ModelConfig``, a key whose default is None also accepts null."""
    for key in conf:
        if key not in table:
            raise ValueError(f"{where}{key} is not a setting; the settings "
                             f"are {', '.join(table)}")
    settings = {}
    for key, (default, rule) in table.items():
        name = where + key
        if key not in conf and default is REQUIRED:
            raise ValueError(f"{name} must be set")
        value = conf.get(key, default)
        if isinstance(rule, dict):
            value = _settings(check(value, name, OBJECT), rule, f"{name}.")
        elif not (value is None and default is None):
            value = (check(value, name, rule) if isinstance(rule, tuple)
                     else rule(value, name))
        settings[key] = value
    return settings


def _config(args: argparse.Namespace, table: dict) -> dict:
    """The settings ``table`` and COMMON read from the config file and the
    flags, which override the file; ``--preset`` sets the sweep counts that
    ``table`` has."""
    conf = (check(json.loads(Path(args.config).read_text()), "config", OBJECT)
            if args.config is not None else {})
    conf.update((key, getattr(args, key)) for key in ("seed", "out", "threads")
                if getattr(args, key) is not None)
    if args.preset is not None:
        conf.update((key, value) for key, value in PRESETS[args.preset].items()
                    if key in table)
    settings = _settings(conf, {**COMMON, **table})
    RngStream(settings["seed"])  # RngStream's seed rule, checked before any output
    return settings


def _integer(low: int, why: str = ""):
    """The rule: an integer >= low."""
    def rule(value, key: str) -> int:
        check(value, key, (is_integer, "an integer"))
        return check(value, key, (lambda v: v >= low, f">= {low}{why}"))
    return rule


def _list_of(ok, what: str, nonempty: bool = True) -> tuple:
    """The rule pair: a list, nonempty unless ``nonempty`` is False, whose
    every entry ``ok`` accepts."""
    return (lambda values: (isinstance(values, list) and (bool(values) or not nonempty)
                            and all(map(ok, values))),
            f"a {'nonempty ' if nonempty else ''}list of {what}")


# the settings of every command; the flags of the same names override them
COMMON = {"seed": (DEFAULT_SEED, LATER), "out": ("out", STRING),
          "threads": (1, _integer(1))}
# the config keys that set the model, with ModelConfig's defaults and rules
MODEL = {key: (getattr(ModelConfig, key), MODEL_RULES[key])
         for key in ("sigma2", "base_mean", "base_var", "alpha_fixed")}
# the settings of a chain, which a benchmark grid cell inherits from the top
# level; the default sweep count is the paper preset's
CHAIN = {"iters": (PRESETS["paper"]["iters"],
                   _integer(MIN_TRACE_LENGTH, " for the effective sample size")),
         "time_budget_s": (1.0, BUDGET), **MODEL}
OBJECTS = _list_of(OBJECT[0], "JSON objects", nonempty=False)  # each with a table
# the size of the data set of a `run` chain or a benchmark cell
CHAIN_N = _integer(2, ", since the Rand index against the true labels needs a pair")


def _model_config(conf: dict) -> ModelConfig:
    """The model the keys of ``conf`` set."""
    return ModelConfig(**{key: conf[key] for key in MODEL if key in conf})


def _outdir(conf: dict) -> Path:
    out = Path(conf["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# generate


# the longest file name, in bytes, that common file systems accept
MAX_FILE_NAME_BYTES = 255


def _utf8_size(text: str) -> float:
    """The length of ``text`` in UTF-8 bytes; infinite for a string UTF-8
    cannot encode (a lone surrogate), which no file can be named."""
    try:
        return len(text.encode("utf-8"))
    except UnicodeEncodeError:
        return math.inf


def _file_name(value, key: str) -> str:
    """The rule: a string that names a file in the output directory, short
    enough that its longest file, ``<value>.json``, can be written."""
    check(value, key, STRING)
    limit = MAX_FILE_NAME_BYTES - len(".json")
    return check(value, key, (lambda v: v not in ("", ".", "..")
                              and not {"/", "\\", "\0"} & set(v)
                              and _utf8_size(v) <= limit,
                              f"a file name: not empty, . or .., without /, \\ or "
                              f"NUL, and at most {limit} bytes in UTF-8"))


# an entry of `datasets`, written to <name>.csv (by default <kind>_n<n>.csv)
DATASETS_ENTRY = {"kind": (REQUIRED, LATER), "n": (REQUIRED, _integer(1)),
                  "params": ({}, OBJECT), "name": (None, _file_name)}
GENERATE = {"datasets": ([{"kind": "three-cluster", "n": 150},
                          {"kind": "zipf", "n": 300}], OBJECTS)}


def cmd_generate(args: argparse.Namespace) -> int:
    conf = _config(args, GENERATE)
    specs = [_settings(spec, DATASETS_ENTRY, f"datasets[{idx}].")
             for idx, spec in enumerate(conf["datasets"])]
    names = {}
    for idx, spec in enumerate(specs):
        # an entry's own errors come before a clash between two entries
        check_dataset(spec["kind"], spec["n"], spec["params"])
        name = f"{spec['kind']}_n{spec['n']}" if spec["name"] is None else spec["name"]
        if name in names:
            raise ValueError(f"datasets[{names[name]}] and datasets[{idx}] would "
                             f"both be written to {name}.csv")
        names[name] = idx
    made = [(name, make_dataset(spec["kind"], RngStream(seed=conf["seed"], stream=idx),
                                spec["n"], **spec["params"]))
            for idx, (spec, name) in enumerate(zip(specs, names))]
    out = _outdir(conf)
    for name, ds in made:
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


def _labels_csv(labels) -> str:
    return ",".join(map(str, labels.tolist()))


def _snapshots_to_csv(path: Path, iters, snapshots) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("iter,labels\n")
        for it, lab in zip(iters, snapshots):
            fh.write(f"{it},\"{_labels_csv(lab)}\"\n")


def _coclustering_to_csv(path: Path, counts: np.ndarray, samples: int) -> None:
    """The co-clustering probabilities counts / samples, byte for byte as
    ``np.savetxt(path, counts / samples, delimiter=",", fmt="%.6f")`` writes
    them. A count is an integer in [0, samples], so each entry is looked up
    in a table of the samples + 1 strings; rows are written one at a time,
    which keeps the n x n text out of memory."""
    table = ["%.6f" % (k / samples) for k in range(samples + 1)]
    with open(path, "w", newline="") as fh:
        for row in counts.astype(np.intp):
            fh.write(",".join(map(table.__getitem__, row.tolist())) + "\n")


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
    """The Binder estimate, and the co-clustering counts when n is small
    enough for the matrix route (else None)."""
    if n <= MATRIX_N_LIMIT:
        counts = accumulate_coclustering(snapshots)
        return binder_point_estimate(snapshots, counts), counts
    return binder_point_estimate_sparse(snapshots), None


def _chain_start(y, kind: SamplerKind, L, rng: RngStream):
    """Truncation level (``"n"``: one component per observation) and the
    k-means start with min(INIT_K, n) clusters; blocked Gibbs falls back to
    round-robin labels when that start has more than L blocks. A sampler
    and truncation level the chain would reject fail here, before k-means
    runs."""
    n = len(y)
    if L == "n":
        L = n
    make_sweep(kind, L)
    init = kmeans_init(y, rng, k=min(INIT_K, n))
    if kind is SamplerKind.BLOCKED_GIBBS and init.num_blocks > L:
        init = relabel_compact((np.arange(n) % L) + 1)
    return L, init.labels


def _dataset(value, key: str) -> dict:
    """The rule of ``dataset``: a CSV file ``generate`` wrote, or a draw."""
    value = check(value, key, OBJECT)
    table = {"path": (REQUIRED, STRING)} if "path" in value else DATASET
    return _settings(value, table, f"{key}.")


def _sampler(value, key: str) -> dict:
    """The rule of ``sampler``; a kind string is short for {"kind": value}."""
    value = check({"kind": value} if isinstance(value, str) else value, key, OBJECT)
    return _settings(value, SAMPLER, f"{key}.")


DATASET = {"kind": ("three-cluster", LATER), "n": (600, CHAIN_N),
           "params": ({}, OBJECT)}
# make_sweep checks the sampler kind and the truncation level together
SAMPLER = {"kind": ("slice", LATER), "L": (None, LATER)}
RUN = {**CHAIN, "burnin": (PRESETS["paper"]["burnin"], _integer(0)),
       "dataset": ({}, _dataset), "sampler": ({}, _sampler)}


def cmd_run(args: argparse.Namespace) -> int:
    conf = _config(args, RUN)
    seed, dconf, sconf = conf["seed"], conf["dataset"], conf["sampler"]
    if "path" in dconf:
        ds = load_dataset(dconf["path"])
        CHAIN_N(ds.n, f"the row count of {dconf['path']}")
    else:
        ds = make_dataset(dconf["kind"], RngStream(seed=seed, stream=0),
                          dconf["n"], **dconf["params"])
    kind = SamplerKind(sconf["kind"])
    L, init = _chain_start(ds.y, kind, sconf["L"],
                           RngStream(seed=seed, stream=1))
    out = _outdir(conf)
    budget = conf["time_budget_s"]
    result = run_chain(ds.y, _model_config(conf), RngStream(seed=seed, stream=2),
                       kind, iters=conf["iters"], burnin=conf["burnin"],
                       init_labels=init, L=L, time_budget_s=budget)
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
            "budget_s": budget,
            "spent_s": spent,
        }
        _write_json(out / "summary.json", summary)
        print(f"INFEASIBLE: first {len(result.records)} iterations took "
              f"{spent:.2f}s (budget {budget}s)")
        return 2

    _snapshots_to_csv(out / "partitions.csv", result.snapshot_iters,
                      result.snapshots)
    binder, counts = _binder_from_snapshots(result.snapshots, ds.n)
    with open(out / "binder.csv", "w", newline="") as fh:
        fh.write(_labels_csv(binder.labels) + "\n")
    if counts is not None:
        _coclustering_to_csv(out / "coclustering.csv", counts,
                             len(result.snapshots))
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
    mcfg = _model_config(cell)
    kind = SamplerKind(cell["sampler"])
    L, init = _chain_start(ds.y, kind, cell.get("L"),
                           RngStream(seed=seed, stream=20_000 + n))
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


# a grid cell; the benchmark object and the top level set the defaults of
# the keys after L
BENCHMARK_CELL = {"sampler": (REQUIRED, LATER), "n": (REQUIRED, CHAIN_N),
                  "L": (None, LATER), "dataset_kind": ("three-cluster", LATER),
                  "dataset_params": ({}, OBJECT), "burnin": (0, _integer(0)), **CHAIN}
# cell defaults, checked in each cell; null leaves a cell the top-level value
# or else its own default
BENCHMARK = {
    "grid": ([{"sampler": "slice", "n": n} for n in (150, 300, 600, 1500, 3000)]
             + [{"sampler": "bgs", "L": "n", "n": n} for n in (150, 300, 600)]
             + [{"sampler": "crp-atoms", "n": 3000}], OBJECTS),
    **dict.fromkeys(("dataset_kind", "dataset_params", "iters", "burnin",
                     "time_budget_s"), (None, LATER))}


def cmd_benchmark(args: argparse.Namespace) -> int:
    conf = _config(args, {**CHAIN, "benchmark": ({}, BENCHMARK)})
    bench = conf["benchmark"]
    inherited = {key: conf[key] for key in CHAIN}
    inherited.update((key, value) for key, value in bench.items()
                     if key != "grid" and value is not None)
    cells = []
    for idx, g in enumerate(bench["grid"]):
        cell = _settings({**inherited, **g}, BENCHMARK_CELL,
                         f"benchmark cell {idx} ")
        n = cell["n"]
        make_sweep(cell["sampler"], n if cell["L"] == "n" else cell["L"])
        check_dataset(cell["dataset_kind"], n, cell["dataset_params"])
        cells.append({**cell, "seed": conf["seed"], "index": idx})
    out = _outdir(conf)
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
    if cell["overhead"]:
        for delta in cell["deltas"]:
            consts = overhead_bound_constants(cell["alpha"], delta)
            out["overhead"].append(check_overhead_bound(samples, consts).to_dict())
    if cell["tails"]:
        consts = overhead_bound_constants(cell["alpha"], cell["deltas"][0])
        out["tails"] = check_exponential_tail(samples, consts).to_dict()
    return out


VERIFY = {
    "checks": (list(VERIFY_CHECKS), _list_of(VERIFY_CHECKS.__contains__,
                                             f"names from {list(VERIFY_CHECKS)}")),
    "alphas": ([0.5, 1.0, 5.0], _list_of(POSITIVE[0], "positive finite numbers")),
    "ns": ([100, 1_000, 10_000], _list_of(is_integer, "integers")),
    "deltas": ([0.1, 0.01], _list_of(UNIT[0], "numbers in (0, 1)")),
    "tails_at": ([[1_000, 1.0]], _list_of(
        lambda p: isinstance(p, list) and len(p) == 2 and is_integer(p[0])
        and POSITIVE[0](p[1]), "[integer n, positive alpha] pairs", nonempty=False)),
    # a partition spec of every n that the overhead or tails check simulates
    "spec": ("singleton", LATER),
    "replicates": (100_000, _integer(1)),
    "merge": ({}, {"n": (6, _integer(2, ", since the merge chain starts "
                                        "from n singletons")),
                   "replicates": (1_000_000, _integer(1))}),
    "poisson": ({}, {"replicates": (100_000, _integer(2))}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    conf = _config(args, {"verify": ({}, VERIFY)})
    vconf = conf["verify"]
    checks, ns, spec, tails_at, replicates = (
        vconf[key] for key in ("checks", "ns", "spec", "tails_at", "replicates"))
    if any(n < 2 for n in ns):
        raise ValueError(f"verify.ns must all be >= 2, since the bounds scale "
                         f"with log n; got {ns}")
    seed = conf["seed"]

    cells = []
    for idx, (alpha, n) in enumerate(itertools.product(vconf["alphas"], ns)):
        cell = {"seed": seed, "index": idx, "n": n, "alpha": alpha,
                "spec": spec, "replicates": replicates, "deltas": vconf["deltas"],
                "overhead": "overhead" in checks,
                "tails": "tails" in checks
                         and any(n == ta[0] and alpha == ta[1] for ta in tails_at)}
        if cell["overhead"] or cell["tails"]:
            try:
                resolve_partition_sizes(spec, n)
            except ValueError as exc:
                raise ValueError(f"verify.spec must be a partition spec for "
                                 f"every n of verify.ns; at n={n}: {exc}") from None
            cells.append(cell)
    if "tails" in checks and not any(c["tails"] for c in cells):
        raise ValueError(f"verify.tails_at names no (n, alpha) cell of the "
                         f"grid; got {tails_at}")
    out = _outdir(conf)
    results = _map_cells(_verify_cell, cells, conf["threads"])

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
        chain = check_merge_chain(RngStream(seed=seed, stream=50_000),
                                  vconf["merge"]["n"], MERGE_X_GRID,
                                  vconf["merge"]["replicates"], alpha=MERGE_ALPHA)
        report["merge_chain"] = [rep.to_dict() for rep in chain]
        all_pass = all_pass and all(rep.passed for rep in chain)

    if "poisson" in checks:
        rng = RngStream(seed=seed, stream=60_000)
        rep = check_poisson_stick_law(rng, POISSON_X, POISSON_ALPHA,
                                      vconf["poisson"]["replicates"])
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


ORACLE = {
    "n": (6, _integer(MIN_N["three-cluster"], ", since the data set has three clusters")),
    "alpha": (1.0, POSITIVE),
    "sweeps": (50_000, _integer(1)),
    "burnin": (1_000, _integer(0)),
    "tv_limit": (0.1, POSITIVE),
    "samplers": (list(EXACT_KINDS), _list_of(
        EXACT_KINDS.__contains__, f"exact sampler kinds from {list(EXACT_KINDS)}")),
    # null: [2, n]; make_sweep checks each level
    "bgs_L": (None, _list_of(lambda L: True, "truncation levels", nonempty=False)),
}


def cmd_oracle(args: argparse.Namespace) -> int:
    # oracle.alpha is the model's fixed concentration: no alpha_fixed setting
    conf = _config(args, {**{key: MODEL[key] for key in MODEL if key != "alpha_fixed"},
                          "oracle": ({}, ORACLE)})
    oconf = conf["oracle"]
    n, sweeps, burnin = oconf["n"], oconf["sweeps"], oconf["burnin"]
    if n > MAX_ENUM_N:
        raise ValueError(f"oracle.n must be <= {MAX_ENUM_N}, the largest n "
                         f"whose posterior is enumerated; got {n}")
    alpha, tv_limit = float(oconf["alpha"]), float(oconf["tv_limit"])
    bgs_levels = [2, n] if oconf["bgs_L"] is None else oconf["bgs_L"]
    for L in bgs_levels:
        try:
            make_sweep(SamplerKind.BLOCKED_GIBBS, L)
        except ValueError as exc:
            raise ValueError(f"oracle.bgs_L: {exc}") from None
    mcfg = _model_config({**conf, "alpha_fixed": alpha})
    seed = conf["seed"]
    out = _outdir(conf)

    ds = make_dataset("three-cluster", RngStream(seed=seed, stream=0), n)
    exact = exact_posterior(ds.y, alpha, mcfg)
    exact.to_csv(out / "oracle_exact.csv")

    def empirical(kind, L=None, stream=0):
        result = run_chain(ds.y, mcfg, RngStream(seed=seed, stream=stream),
                           kind, iters=sweeps, burnin=burnin, L=L,
                           time_budget_s=3600.0)
        freq: dict = {}
        for lab in result.snapshots:
            key = tuple(lab.tolist())
            freq[key] = freq.get(key, 0) + 1
        total = len(result.snapshots)
        return {k: v / total for k, v in freq.items()}

    rows = []
    all_pass = True
    for i, name in enumerate(oconf["samplers"]):
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
                        help="sweep preset, iters+burnin: paper=10000+5000, "
                             "desk=1000+1000 (benchmark takes iters only)")
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
