"""Acceptance gate: one test per acceptance criterion.

Each test measures the quantity its criterion pins down, emits a single
``criterion N: PASS/FAIL - <numbers>`` line through ``conftest.record_criterion``
(echoed again in the terminal summary), and only then asserts. Criteria 3, 4,
7 and 8 are Monte Carlo heavy; the whole module runs in roughly ten minutes.

Run just this gate with::

    python3 -m pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import record_criterion
from dpslice.bounds import (
    check_exponential_tail,
    check_merge_chain,
    check_overhead_bound,
    check_poisson_stick_law,
    overhead_bound_constants,
    simulate_overhead,
)
from dpslice.cli import _benchmark_cell, _binder_from_snapshots, _chain_start
from dpslice.core import ModelConfig, rand_index, relabel_compact
from dpslice.datagen import make_dataset
from dpslice.diagnostics import ess
from dpslice.oracle import (
    enumerate_partitions,
    exact_posterior,
    log_eppf_dp,
    tv_distance,
)
from dpslice.randkit import RngStream, sample_dirichlet
from dpslice.samplers import SamplerKind, run_chain

SEED = 12345

EXACT_SAMPLERS = ("slice", "slice-marginal", "crp-atoms", "crp-collapsed")
EXACT_SWEEPS = 50_000
EXACT_BURNIN = 1_000

OVERHEAD_ALPHAS = (0.5, 1.0, 5.0)
OVERHEAD_NS = (100, 1_000, 10_000)
OVERHEAD_DELTAS = (0.1, 0.01)
OVERHEAD_REPLICATES = 100_000


def _empirical_partition_law(snapshots):
    freq = {}
    for lab in snapshots:
        key = tuple(int(v) for v in lab)
        freq[key] = freq.get(key, 0) + 1
    total = len(snapshots)
    return {key: count / total for key, count in freq.items()}


@pytest.fixture(scope="module")
def six_point_instance():
    """Fixed n=6 dataset plus its enumerated posterior at alpha=1."""
    ds = make_dataset("three-cluster", RngStream(seed=SEED, stream=0), 6)
    cfg = ModelConfig(alpha_fixed=1.0)
    exact = exact_posterior(ds.y, 1.0, cfg)
    return ds, cfg, exact


@pytest.fixture(scope="module")
def overhead_cells():
    """Singleton-spec overhead samples for the (alpha, n) grid, M=1e5 each."""
    cells = {}
    for i, alpha in enumerate(OVERHEAD_ALPHAS):
        for j, n in enumerate(OVERHEAD_NS):
            rng = RngStream(seed=SEED, stream=300 + 3 * i + j)
            cells[(alpha, n)] = simulate_overhead(rng, n, "singleton", alpha,
                                                  OVERHEAD_REPLICATES)
    return cells


def test_criterion_1_exact_samplers_match_enumerated_posterior(six_point_instance):
    ds, cfg, exact = six_point_instance
    tvs = {}
    for i, name in enumerate(EXACT_SAMPLERS):
        result = run_chain(ds.y, cfg, RngStream(seed=SEED, stream=100 + i),
                           SamplerKind(name), iters=EXACT_SWEEPS,
                           burnin=EXACT_BURNIN,
                           time_budget_s=600.0)
        assert not result.infeasible
        assert len(result.snapshots) == EXACT_SWEEPS
        law = _empirical_partition_law(result.snapshots)
        tvs[name] = tv_distance(law, exact)
    detail = ("TV vs %d-partition oracle after %d sweeps: %s (tolerance 0.1)"
              % (exact.num_partitions, EXACT_SWEEPS,
                 ", ".join(f"{k}={v:.4f}" for k, v in tvs.items())))
    record_criterion(1, all(v < 0.1 for v in tvs.values()), detail)
    for name, tv in tvs.items():
        assert tv < 0.1, f"{name}: TV {tv:.4f} >= 0.1"


def test_criterion_2_truncation_excludes_large_partitions(six_point_instance):
    ds, cfg, exact = six_point_instance
    result = run_chain(ds.y, cfg, RngStream(seed=SEED, stream=200),
                       SamplerKind.BLOCKED_GIBBS, iters=EXACT_SWEEPS,
                       burnin=EXACT_BURNIN, L=2,
                       time_budget_s=600.0)
    assert not result.infeasible
    empirical_mass = sum(
        1 for lab in result.snapshots if int(np.max(lab)) > 2
    ) / len(result.snapshots)
    oracle_mass = sum(prob for labels, prob in exact.items()
                      if int(labels.max()) > 2)
    detail = ("blocked Gibbs L=2 empirical mass on {H>2} = %.6f; "
              "oracle mass = %.4f" % (empirical_mass, oracle_mass))
    record_criterion(2, empirical_mass == 0.0 and oracle_mass > 0.0, detail)
    assert empirical_mass == 0.0
    assert oracle_mass > 0.0


def test_criterion_3_growth_bound_exceedance(overhead_cells):
    consts_ref = overhead_bound_constants(1.0, 0.1)
    assert abs(consts_ref.c_delta - 57.02) < 0.005
    worst = -1.0
    worst_cell = None
    failures = []
    for delta in OVERHEAD_DELTAS:
        limit = delta + 3.0 * math.sqrt(delta / OVERHEAD_REPLICATES)
        for (alpha, n), samples in overhead_cells.items():
            consts = overhead_bound_constants(alpha, delta)
            rep = check_overhead_bound(samples, consts)
            ratio = rep.exceedance / limit if limit > 0 else math.inf
            if ratio > worst:
                worst, worst_cell = ratio, (alpha, n, delta)
            if rep.exceedance > limit:
                failures.append((alpha, n, delta, rep.exceedance, limit))
    detail = ("18 (alpha, n, delta) cells at M=%d: max exceedance/limit = %.3f "
              "at alpha=%s n=%d delta=%s; C_delta(1, 0.1) = %.2f"
              % (OVERHEAD_REPLICATES, worst, worst_cell[0], worst_cell[1],
                 worst_cell[2], consts_ref.c_delta))
    record_criterion(3, not failures, detail)
    assert not failures, f"bound exceeded in cells: {failures}"


def test_criterion_4_overhead_tail_decay(overhead_cells):
    samples = overhead_cells[(1.0, 1_000)]
    consts = overhead_bound_constants(1.0, 0.1)
    rep = check_exponential_tail(samples, consts)
    max_tail_gap = max(t - lim for t, lim in zip(rep.tails, rep.limits))
    detail = ("n=1000, alpha=1, M=%d: tail probs %s vs limits %s; "
              "mean ratio %.3f <= %.4f"
              % (OVERHEAD_REPLICATES,
                 "/".join(f"{t:.4f}" for t in rep.tails),
                 "/".join(f"{l:.4f}" for l in rep.limits),
                 rep.mean_ratio, rep.mean_limit))
    record_criterion(4, rep.passed, detail)
    assert abs(rep.mean_limit - 43.87) < 0.005
    assert max_tail_gap <= 0.0, f"tail above limit by {max_tail_gap:.5f}"
    assert rep.mean_ratio <= rep.mean_limit
    assert rep.passed


def test_criterion_5_poisson_stick_law():
    rep = check_poisson_stick_law(RngStream(seed=SEED, stream=600),
                                  x=math.exp(-1.0), alpha=2.0,
                                  replicates=100_000)
    mean_err = abs(rep.sample_mean - 2.0)
    detail = ("stick count at x=e^-1, alpha=2, M=%d: mean %.4f "
              "(|err| %.4f <= 0.02), chi-square p=%.3f >= 0.01"
              % (rep.replicates, rep.sample_mean, mean_err, rep.p_value))
    record_criterion(5, mean_err <= 0.02 and rep.passed, detail)
    assert mean_err <= 0.02
    assert rep.p_value >= 0.01
    assert rep.passed


def test_criterion_6_merge_chain_monotone():
    x_grid = (1e-3, 1e-2, 0.05)
    chain = check_merge_chain(RngStream(seed=SEED, stream=500), 6, x_grid,
                              replicates=1_000_000, alpha=1.0)
    steps = len(chain)
    all_passed = all(rep.passed for rep in chain)
    path = " -> ".join(",".join(map(str, sizes)) for sizes in
                       [rep.sizes for rep in chain] + [chain[-1].merged_sizes])
    detail = ("singleton(6) -> one-block(6) via %s: %d merge steps x %d "
              "thresholds, P(u_min <= x) monotone within 3 pooled SE at M=1e6"
              % (path, steps, len(x_grid)))
    record_criterion(6, all_passed and steps == 5, detail)
    assert steps == 5
    assert all_passed


def test_criterion_7_sweep_time_scaling():
    grid = ([{"sampler": "slice", "n": n} for n in (150, 300, 600, 1500, 3000)]
            + [{"sampler": "bgs", "L": "n", "n": n} for n in (150, 300, 600)]
            + [{"sampler": "crp-atoms", "n": 3000}])
    rows = []
    for idx, g in enumerate(grid):
        cell = dict(g)
        cell.update(dataset_kind="three-cluster", dataset_params={},
                    iters=1_000, burnin=0, time_budget_s=600.0, sigma2=1.0,
                    alpha_fixed=None, seed=SEED, index=idx)
        rows.append(_benchmark_cell(cell))
    assert not any(r["infeasible"] for r in rows)

    def fit_slope(sampler):
        pts = [(r["n"], r["median_sweep_ns"]) for r in rows
               if r["sampler"] == sampler]
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
        return float(np.polyfit(xs, ys, 1)[0])

    slope_slice = fit_slope("slice")
    slope_bgs = fit_slope("bgs")
    slice_3000 = next(r["median_sweep_ns"] for r in rows
                      if r["sampler"] == "slice" and r["n"] == 3000)
    crp_3000 = next(r["median_sweep_ns"] for r in rows
                    if r["sampler"] == "crp-atoms")
    ratio = crp_3000 / slice_3000
    passed = 0.8 <= slope_slice <= 1.3 and slope_bgs >= 1.5 and ratio > 1.0
    detail = ("slice log-log slope %.3f in [0.8, 1.3]; full-truncation blocked "
              "Gibbs slope %.3f >= 1.5; CRP/slice median sweep ratio at "
              "n=3000 = %.3f > 1" % (slope_slice, slope_bgs, ratio))
    record_criterion(7, passed, detail)
    assert 0.8 <= slope_slice <= 1.3, f"slice slope {slope_slice:.3f}"
    assert slope_bgs >= 1.5, f"bgs slope {slope_bgs:.3f}"
    assert ratio > 1.0, f"CRP/slice ratio {ratio:.3f}"


def _desk_run_rand(kind, dataset_kind, n, L=None):
    """Desk-preset chain (1000 burn-in + 1000 recorded) -> Binder Rand index."""
    ds = make_dataset(dataset_kind, RngStream(seed=SEED, stream=10_000 + n), n)
    L, init = _chain_start(ds.y, kind, L,
                           RngStream(seed=SEED, stream=20_000 + n))
    result = run_chain(ds.y, ModelConfig(), RngStream(seed=SEED, stream=3),
                       kind, iters=1_000, burnin=1_000,
                       init_labels=init, L=L, time_budget_s=600.0)
    assert not result.infeasible
    binder, _ = _binder_from_snapshots(result.snapshots, n)
    return rand_index(binder.labels, ds.labels)


def test_criterion_8_inference_quality():
    three = {n: _desk_run_rand(SamplerKind.SLICE, "three-cluster", n)
             for n in (150, 300, 600, 1500, 3000)}
    zipf_slice = {n: _desk_run_rand(SamplerKind.SLICE, "zipf", n)
                  for n in (300, 600, 1500, 3000)}
    zipf_bgs = {n: _desk_run_rand(SamplerKind.BLOCKED_GIBBS, "zipf", n, L=10)
                for n in (300, 600, 1500, 3000)}
    ok_three = all(v >= 0.83 for v in three.values())
    ok_zslice = all(v >= 0.85 for v in zipf_slice.values())
    ok_zbgs = all(v <= 0.70 for v in zipf_bgs.values())
    detail = ("slice Rand on three-cluster min %.3f (>= 0.83); slice on "
              "power-law min %.3f (>= 0.85); blocked Gibbs L=10 on power-law "
              "%.3f-%.3f (bound <= 0.70 %s)"
              % (min(three.values()), min(zipf_slice.values()),
                 min(zipf_bgs.values()), max(zipf_bgs.values()),
                 "met" if ok_zbgs else "NOT met"))
    record_criterion(8, ok_three and ok_zslice and ok_zbgs, detail)
    assert ok_three, f"three-cluster slice Rand: {three}"
    assert ok_zslice, f"power-law slice Rand: {zipf_slice}"
    assert ok_zbgs, (
        "blocked Gibbs L=10 on power-law data scored Rand "
        f"{min(zipf_bgs.values()):.3f}-{max(zipf_bgs.values()):.3f}, above the "
        "0.70 ceiling. The ceiling corresponds to a chain that never leaves "
        "its k-means initialization (the init itself scores Rand ~0.49-0.55 "
        "against truth); this implementation's truncated chain mixes away "
        "from that initialization within burn-in and recovers the dominant "
        "clusters, which carry ~95% of the mass at L=10."
    )


def test_criterion_9_property_bundle():
    t0 = time.perf_counter()
    rng = RngStream(seed=SEED, stream=900)

    # Simplex: Dirichlet draws are nonnegative and sum to one.
    for _ in range(200):
        w = sample_dirichlet(rng, (0.3, 1.0, 2.5, 4.0))
        assert np.all(w >= 0.0)
        assert abs(float(w.sum()) - 1.0) < 1e-10

    # Compactness: relabeling is canonical and idempotent.
    for _ in range(200):
        raw = rng.integers(1, 7, size=12)
        part = relabel_compact(raw)
        part.validate()
        assert np.array_equal(np.unique(part.labels),
                              np.arange(1, part.num_blocks + 1))
        again = relabel_compact(part.labels)
        assert np.array_equal(again.labels, part.labels)

    # K >= H on every sweep of a live chain.
    ds = make_dataset("three-cluster", RngStream(seed=SEED, stream=901), 24)
    chain_a = run_chain(ds.y, ModelConfig(), RngStream(seed=SEED, stream=902),
                        SamplerKind.SLICE, iters=300, burnin=0,
                        time_budget_s=600.0)
    assert all(rec.k_total >= rec.num_clusters for rec in chain_a.records)

    # ESS is invariant under affine maps of the trace.
    loglik = np.array([rec.loglik for rec in chain_a.records])
    e1 = ess(loglik).value
    e2 = ess(3.0 - 2.0 * loglik).value
    assert e1 == pytest.approx(e2, rel=1e-8)

    # EPPF normalization: partition probabilities of [4] sum to one.
    for alpha in (0.5, 1.0, 3.0):
        logs = [log_eppf_dp(np.bincount(labels)[1:], alpha)
                for labels in enumerate_partitions(4)]
        assert abs(float(np.exp(logsumexp(logs))) - 1.0) < 1e-12

    # Determinism: identical seed and stream give an identical chain.
    chain_b = run_chain(ds.y, ModelConfig(), RngStream(seed=SEED, stream=902),
                        SamplerKind.SLICE, iters=300, burnin=0,
                        time_budget_s=600.0)
    assert [r.loglik for r in chain_a.records] == [r.loglik for r in chain_b.records]
    assert [r.alpha for r in chain_a.records] == [r.alpha for r in chain_b.records]
    assert all(np.array_equal(a, b)
               for a, b in zip(chain_a.snapshots, chain_b.snapshots))

    elapsed = time.perf_counter() - t0
    detail = ("simplex, compactness, K >= H, ESS affine invariance, EPPF "
              "normalization and seed determinism in %.1fs (< 120s)" % elapsed)
    record_criterion(9, elapsed < 120.0, detail)
    assert elapsed < 120.0
