"""Where the traced run wraps the package, and the per-layer metrics it
derives from the spans.

The layers are the package modules. Each wrapped function is patched under
the name its caller looks up: ``samplers`` imports its draws from
``randkit`` by name, so the categorical draw is traced as
``samplers.sample_categorical_logweights``; ``cli`` imports ``run_chain``
by name, so a chain started by a command is traced as ``cli.run_chain``.
"""
from __future__ import annotations

import math
import statistics
from fractions import Fraction

import numpy as np

from .tracer import Profile, Tracer

MODULES = ("randkit", "core", "samplers", "diagnostics", "datagen", "oracle",
           "bounds", "cli")
SAMPLERS = ("slice", "slice-marginal", "crp-atoms", "crp-collapsed", "bgs")
SWEEP_FUNCTIONS = {"slice": "slice_sweep",
                   "slice-marginal": "slice_sweep_marginal_atoms",
                   "crp-atoms": "crp_sweep_atoms",
                   "crp-collapsed": "crp_sweep_collapsed",
                   "bgs": "bgs_sweep"}
TAIL_LADDER = ("50", "90", "99", "99.9", "99.99")
TAIL_MIN_BEYOND = 10


def _sparse_binder_candidates(args, kwargs, result):
    """Snapshots the contingency-table Binder search scores: all of them up
    to its cap, else the evenly spaced subset it picks."""
    samples = len(args[0])
    cap = kwargs.get("max_candidates", args[1] if len(args) > 1 else 400)
    if samples <= cap:
        return samples
    return int(np.unique(np.linspace(0, samples - 1, cap).round().astype(int)).size)


def install(tracer: Tracer, dp) -> None:
    """Patch every traced function of the package ``dp``."""
    cli, samplers, diagnostics, datagen, bounds = (
        dp.cli, dp.samplers, dp.diagnostics, dp.datagen, dp.bounds)
    candidates = lambda a, k, r: len(a[1])  # noqa: E731
    steps = lambda a, k, r: len(r[0])  # noqa: E731
    leaves = [
        (samplers, "sample_categorical_logweights", "randkit.categorical", candidates),
        (samplers, "sample_beta", "randkit.beta", None),
        (samplers, "sample_dirichlet", "randkit.dirichlet", None),
        (samplers, "sample_gamma", "randkit.gamma", None),
        (samplers, "sample_normal", "randkit.normal", None),
    ]
    spans = [
        (samplers, "relabel_compact", "core.relabel", None),
        (samplers, "relabel_compact_with_map", "core.relabel", None),
        (cli, "relabel_compact", "core.relabel", None),
        (diagnostics, "relabel_compact", "core.relabel", None),
        (datagen, "relabel_compact", "core.relabel", None),
        (samplers, "log_likelihood", "core.log_likelihood", None),
        (cli, "rand_index", "core.rand_index", None),
        (samplers, "_next_alpha", "samplers.alpha", None),
        (samplers, "sample_allocated_weights", "samplers.weights", None),
        (bounds, "sample_allocated_weights", "samplers.weights", None),
        (samplers, "sample_atoms_conjugate", "samplers.atoms", None),
        (samplers, "sample_slices", "samplers.slices", None),
        (bounds, "sample_slices", "samplers.slices", None),
        (samplers, "extend_components", "samplers.extend", steps),
        (bounds, "extend_components", "samplers.extend", steps),
        (samplers, "slice_allocation_update", "samplers.allocate", None),
        (samplers, "_marginal_allocation_pass", "samplers.allocate_marginal", None),
        (cli, "run_chain", "samplers.run_chain", None),
        (samplers, "run_chain", "samplers.run_chain", None),
        (cli, "ess", "diagnostics.ess", None),
        (cli, "accumulate_coclustering", "diagnostics.coclustering", None),
        (cli, "binder_point_estimate", "diagnostics.binder",
         lambda a, k, r: len(a[0])),
        (cli, "binder_point_estimate_sparse", "diagnostics.binder",
         _sparse_binder_candidates),
        (cli, "make_dataset", "datagen.make_dataset", None),
        (datagen, "make_dataset", "datagen.make_dataset", None),
        (cli, "kmeans_init", "datagen.kmeans_init", None),
        (datagen, "kmeans_init", "datagen.kmeans_init", None),
        (cli, "exact_posterior", "oracle.exact_posterior",
         lambda a, k, r: r.num_partitions),
        (cli, "tv_distance", "oracle.tv_distance", None),
        (cli, "simulate_overhead", "bounds.simulate_overhead",
         lambda a, k, r: len(r)),
        (bounds, "simulate_umin", "bounds.simulate_umin", None),
        (cli, "check_merge_monotonicity", "bounds.merge", None),
        (cli, "check_poisson_stick_law", "bounds.poisson", None),
        (cli, "check_overhead_bound", "bounds.checks", None),
        (cli, "check_exponential_tail", "bounds.checks", None),
        (cli, "overhead_bound_constants", "bounds.checks", None),
        (cli, "main", "cli.command", None),
    ]
    spans += [(samplers, fn, f"samplers.{kind}.sweep", None)
              for kind, fn in SWEEP_FUNCTIONS.items()]
    for module, attr, name, work in leaves:
        tracer.patch(module, attr, name, leaf=True, work=work)
    for module, attr, name, work in spans:
        tracer.patch(module, attr, name, work=work)


def tail_percentile(values):
    """Highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples beyond it, by nearest rank. Falls back to the median when the
    sample is too small for any.

    Returns (percentile label, value, samples beyond).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    best = None
    for label in TAIL_LADDER:
        rank = math.ceil(Fraction(label) * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (label, xs[rank - 1], n - rank)
    if best is None:
        rank = math.ceil(n / 2)
        best = ("50", xs[rank - 1], n - rank)
    return best


# name -> unit; the order is the print order
PER_LAYER = {
    "randkit.categorical.calls": "count",
    "randkit.categorical.candidates": "count",
    "randkit.categorical.self_ms": "ms",
    "randkit.beta.calls": "count",
    "randkit.beta.self_ms": "ms",
    "randkit.dirichlet.calls": "count",
    "randkit.dirichlet.self_ms": "ms",
    "core.relabel.calls": "count",
    "core.relabel.self_ms": "ms",
    "core.log_likelihood.self_ms": "ms",
    "samplers.alpha.self_ms": "ms",
    "samplers.weights.self_ms": "ms",
    "samplers.atoms.self_ms": "ms",
    "samplers.slices.self_ms": "ms",
    "samplers.extend.self_ms": "ms",
    "samplers.extend.steps": "count",
    "samplers.allocate.self_ms": "ms",
    "samplers.allocate_marginal.self_ms": "ms",
}
for _kind in SAMPLERS:
    PER_LAYER.update({
        f"samplers.{_kind}.sweeps_per_s": "1/s",
        f"samplers.{_kind}.sweeps": "count",
        f"samplers.{_kind}.sweep_self_ms": "ms",
        f"samplers.{_kind}.sweep_ms_p50": "ms",
        f"samplers.{_kind}.sweep_ms_tail": "ms",
        f"samplers.{_kind}.candidates_per_obs": "count",
        f"samplers.{_kind}.occupied_share": "ratio",
    })
PER_LAYER.update({
    "diagnostics.ess.self_ms": "ms",
    "diagnostics.coclustering.self_ms": "ms",
    "diagnostics.binder.self_ms": "ms",
    "diagnostics.binder.candidates": "count",
    "diagnostics.ess_loglik": "count",
    "datagen.make_dataset.self_ms": "ms",
    "datagen.kmeans_init.self_ms": "ms",
    "oracle.exact_posterior.self_ms": "ms",
    "oracle.tv_distance.self_ms": "ms",
    "oracle.partitions": "count",
    "bounds.simulate_overhead.self_ms": "ms",
    "bounds.replicates": "count",
    "bounds.simulate_umin.self_ms": "ms",
    "bounds.poisson.self_ms": "ms",
    "cli.command.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "postprocess_s": "s",
})
PER_LAYER.update({f"{m}.self_ms": "ms" for m in MODULES})
PER_LAYER.update({
    "bench.self_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
})
# per-layer metrics for which more is better; less is better for the rest
HIGHER_IS_BETTER = ({f"samplers.{k}.{m}" for k in SAMPLERS
                     for m in ("sweeps_per_s", "sweeps", "occupied_share")}
                    | {"diagnostics.ess_loglik", "trace.coverage"})

# counts that do not depend on the hardware; two traced runs at one seed
# must give the same values
HARDWARE_INDEPENDENT = (
    ["randkit.categorical.calls", "randkit.categorical.candidates",
     "randkit.beta.calls", "randkit.dirichlet.calls", "core.relabel.calls",
     "samplers.extend.steps", "diagnostics.binder.candidates",
     "oracle.partitions", "bounds.replicates"]
    + [f"samplers.{k}.{m}" for k in SAMPLERS
       for m in ("sweeps", "candidates_per_obs", "occupied_share")])


def per_layer_metrics(profile: Profile, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced job, plus notes for the report.

    ``untraced`` and ``traced`` are the JobResults of the same job run
    without and with tracing. Sweep-time distributions, throughputs and
    occupied shares come from the untraced job; self times and counts from
    the traced one. A layer the workload does not exercise reads 0.
    """
    st = profile.stats

    def self_ms(name):
        return st[name].self_ns / 1e6 if name in st else 0.0

    def calls(name):
        return st[name].calls if name in st else 0

    def work(name):
        return st[name].work if name in st else 0

    m = {
        "randkit.categorical.calls": calls("randkit.categorical"),
        "randkit.categorical.candidates": work("randkit.categorical"),
        "randkit.categorical.self_ms": self_ms("randkit.categorical"),
        "randkit.beta.calls": calls("randkit.beta"),
        "randkit.beta.self_ms": self_ms("randkit.beta"),
        "randkit.dirichlet.calls": calls("randkit.dirichlet"),
        "randkit.dirichlet.self_ms": self_ms("randkit.dirichlet"),
        "core.relabel.calls": calls("core.relabel"),
        "core.relabel.self_ms": self_ms("core.relabel"),
        "core.log_likelihood.self_ms": self_ms("core.log_likelihood"),
        "samplers.extend.steps": work("samplers.extend"),
    }
    for phase in ("alpha", "weights", "atoms", "slices", "extend", "allocate",
                  "allocate_marginal"):
        m[f"samplers.{phase}.self_ms"] = self_ms(f"samplers.{phase}")

    notes = []
    categorical = profile.leaf_by_sampler("randkit.categorical")
    for kind in SAMPLERS:
        chains = [c for c in untraced.chains if c.kind == kind]
        records = [r for c in chains for r in c.records]
        sweeps = len(records)
        seconds = sum(c.seconds for c in chains)
        cat_calls, _, cat_work = categorical.get(kind, (0, 0, 0))
        m[f"samplers.{kind}.sweeps_per_s"] = sweeps / seconds if seconds > 0 else 0.0
        m[f"samplers.{kind}.sweeps"] = sweeps
        m[f"samplers.{kind}.sweep_self_ms"] = self_ms(f"samplers.{kind}.sweep")
        m[f"samplers.{kind}.candidates_per_obs"] = cat_work / cat_calls if cat_calls else 0.0
        if records:
            ms = [r.elapsed_ns / 1e6 for r in records]
            label, tail, beyond = tail_percentile(ms)
            m[f"samplers.{kind}.sweep_ms_p50"] = statistics.median(ms)
            m[f"samplers.{kind}.sweep_ms_tail"] = tail
            m[f"samplers.{kind}.occupied_share"] = (
                sum(r.num_clusters for r in records) / sum(r.k_total for r in records))
            notes.append(f"samplers.{kind}.sweep_ms_tail is p{label} of {sweeps} "
                         f"sweeps ({beyond} beyond it)")
        else:
            m[f"samplers.{kind}.sweep_ms_p50"] = 0.0
            m[f"samplers.{kind}.sweep_ms_tail"] = 0.0
            m[f"samplers.{kind}.occupied_share"] = 0.0

    m.update({
        "diagnostics.ess.self_ms": self_ms("diagnostics.ess"),
        "diagnostics.coclustering.self_ms": self_ms("diagnostics.coclustering"),
        "diagnostics.binder.self_ms": self_ms("diagnostics.binder"),
        "diagnostics.binder.candidates": work("diagnostics.binder"),
        "diagnostics.ess_loglik": (traced.report or {}).get("ess", {}).get("ess_loglik", 0.0),
        "datagen.make_dataset.self_ms": self_ms("datagen.make_dataset"),
        "datagen.kmeans_init.self_ms": self_ms("datagen.kmeans_init"),
        "oracle.exact_posterior.self_ms": self_ms("oracle.exact_posterior"),
        "oracle.tv_distance.self_ms": self_ms("oracle.tv_distance"),
        "oracle.partitions": work("oracle.exact_posterior"),
        "bounds.simulate_overhead.self_ms": self_ms("bounds.simulate_overhead"),
        "bounds.replicates": work("bounds.simulate_overhead"),
        "bounds.simulate_umin.self_ms": self_ms("bounds.simulate_umin"),
        "bounds.poisson.self_ms": self_ms("bounds.poisson"),
        "cli.command.self_ms": self_ms("cli.command"),
        "cli.output_bytes": traced.output_bytes,
        "postprocess_s": untraced.postprocess_s or 0.0,
    })
    modules = profile.module_self_ns()
    for module in MODULES:
        m[f"{module}.self_ms"] = modules.get(module, 0) / 1e6
    traced_ns = traced.total_s * 1e9
    m["bench.self_ms"] = (traced_ns - profile.root_ns) / 1e6
    m["trace.coverage"] = profile.root_ns / traced_ns
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced.wall_s
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: m[name] for name in PER_LAYER}, notes
