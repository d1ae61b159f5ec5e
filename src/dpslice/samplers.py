"""Markov chain sweeps for Dirichlet process mixtures of Normals.

Six samplers share one state type and one trace format:

* ``slice_sweep``: posterior slice sampler with exchangeable-component
  weight updates (Dirichlet over occupied weights plus leftover mass) and a
  dynamically grown component set.
* ``slice_sweep_marginal_atoms``: same skeleton with atom locations
  integrated out; allocations update sequentially via predictive densities.
* ``bgs_sweep``: blocked Gibbs under a symmetric finite Dirichlet truncation
  at L components.
* ``crp_sweep_atoms`` / ``crp_sweep_collapsed``: sequential urn samplers,
  with instantiated atoms or with atoms integrated out.
* ``prior_generative_sweep``: the no-data analogue of the slice sweep.

Allocation passes deliberately loop over observations in Python with scalar
per-component arithmetic: the per-iteration cost is then proportional to the
number of likelihood evaluations the algorithm actually performs, which is
what the benchmark harness measures. Block draws (weights, atoms, slice
variables) are vectorized.

The weight and slice draws also take a leading replicate axis, and the stick
extension takes vectors of residuals and slice minima, so the
cost-verification harness in ``bounds`` runs many replicates through the
same functions a sweep calls with one.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    LABEL_DTYPE,
    LOG_2PI,
    InconsistentStateError,
    MixtureState,
    ModelConfig,
    Partition,
    RunawayExtensionError,
    TraceRecord,
    WeightState,
    log_likelihood,
    relabel_compact,
    relabel_compact_with_map,
)
from .randkit import (
    RngStream,
    clamp_weights,
    sample_beta,
    sample_categorical_logweights,
    sample_dirichlet,
    sample_gamma,
    sample_normal,
)


class SamplerKind(str, Enum):
    SLICE = "slice"
    SLICE_MARGINAL = "slice-marginal"
    BLOCKED_GIBBS = "bgs"
    CRP_ATOMS = "crp-atoms"
    CRP_COLLAPSED = "crp-collapsed"
    PRIOR_GENERATIVE = "prior"


# ---------------------------------------------------------------------------
# elementary conditional draws


def sample_allocated_weights(rng: RngStream, sizes, alpha: float,
                             batch: int | None = None):
    """Weights of the occupied components plus leftover stick mass.

    (w_1..w_H, leftover) is Dirichlet(n_1, ..., n_H, alpha). A sweep draws
    one replicate and gets (w, leftover) as (H-vector, float); ``batch=m``
    draws m independent replicates and gets an (m, H) array and an m-vector.
    """
    s = np.asarray(sizes, dtype=float)
    if s.ndim != 1 or s.size == 0 or np.any(s < 1):
        raise ValueError("sizes must be positive cluster counts")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    w = sample_dirichlet(rng, np.append(s, alpha), batch)
    residual = w[..., -1]
    return w[..., :-1], float(residual) if batch is None else residual


def sample_atoms_conjugate(rng: RngStream, data, partition: Partition,
                           cfg: ModelConfig) -> np.ndarray:
    """Posterior draw of each occupied component's location.

    Normal-Normal conjugacy: precision 1/base_var + n_h/sigma2, mean the
    precision-weighted average of prior mean and block sum.
    """
    y = np.asarray(data, dtype=float)
    labels = partition.labels
    h = partition.num_blocks
    sums = np.bincount(labels, weights=y, minlength=h + 1)[1:]
    prec = 1.0 / cfg.base_var + partition.sizes / cfg.sigma2
    mean = (cfg.base_mean / cfg.base_var + sums / cfg.sigma2) / prec
    return rng.gen.normal(mean, np.sqrt(1.0 / prec))


def sample_slices(rng: RngStream, partition: Partition, allocated):
    """Per-observation slice variables u_i ~ Uniform(0, weight of own block).

    ``allocated`` holds the occupied weights, an H-vector for one replicate
    or an (m, H) array for m replicates; each observation's own-block weight
    is gathered by its label. Returns the slices, of shape (n,) or (m, n),
    and their minimum over observations: a float, or one per replicate.
    """
    wi = np.asarray(allocated, dtype=float).take(partition.labels - 1, axis=-1)
    if wi.size == 0 or np.any(wi <= 0.0):
        raise InconsistentStateError("slice interval requires positive weights")
    u = rng.gen.random(wi.shape)
    u *= wi
    umin = u.min(-1)
    while (umin <= 0.0).any():
        zero = u <= 0.0
        u[zero] = wi[zero] * rng.gen.random(int(zero.sum()))
        umin = u.min(-1)
    return u, float(umin) if u.ndim == 1 else umin


def extend_components(rng: RngStream, residual, umin, alpha: float,
                      cfg: ModelConfig, with_atoms: bool = True):
    """Grow the instantiated component set until leftover mass drops under
    the minimum slice.

    One stick draw Beta(1, alpha) per new component; atom draws from the
    base measure can be skipped when the caller has no use for them (the
    loop is shared by inference and by the cost-verification harness).

    A sweep passes one replicate as floats and gets
    (tail_weights, tail_atoms, final_residual) back. The verification
    harness passes equal-length vectors of residuals and slice minima, one
    entry per replicate, and gets (counts, tail_atoms, final_residuals):
    the number of components each replicate instantiated, the atoms in draw
    order (see :func:`_extend_masked`) and the leftover masses.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if isinstance(residual, np.ndarray) and residual.ndim:
        r = np.asarray(residual, dtype=float)
        u = np.asarray(umin, dtype=float)
        if r.ndim != 1 or r.shape != u.shape:
            raise ValueError("residual and umin must be equal-length vectors")
        if not np.all((r > 0.0) & (r <= 1.0)):
            raise ValueError("every residual must be in (0, 1]")
        if not np.all((u > 0.0) & (u < 1.0)):
            raise ValueError("every umin must be in (0, 1)")
        return _extend_masked(rng, r, u, alpha, cfg, with_atoms)
    if not 0.0 < residual <= 1.0:
        raise ValueError(f"residual must be in (0, 1], got {residual}")
    if not 0.0 < umin < 1.0:
        raise ValueError(f"umin must be in (0, 1), got {umin}")
    tail_w: list[float] = []
    tail_atoms: list[float] = []
    steps = 0
    while residual > umin:
        if steps >= cfg.max_extension:
            raise RunawayExtensionError(umin=umin, cap=cfg.max_extension)
        if with_atoms:
            tail_atoms.append(sample_normal(rng, cfg.base_mean, cfg.base_var))
        v = sample_beta(rng, 1.0, alpha)
        w = v * residual
        tail_w.append(w)
        residual -= w
        steps += 1
    return tail_w, tail_atoms, residual


def _extend_masked(rng: RngStream, residual: np.ndarray, umin: np.ndarray,
                   alpha: float, cfg: ModelConfig, with_atoms: bool):
    """The stick extension for many replicates at once.

    Each step draws one atom (optionally) and one clamped Beta(1, alpha)
    stick for every replicate whose residual is still above its slice
    minimum, then drops the replicates that are done. With one replicate it
    consumes the stream exactly as the scalar loop does. The atoms come
    back step-major: all first atoms of the extending replicates in
    replicate order, then all second atoms, and so on.
    """
    gen = rng.gen
    sd = math.sqrt(cfg.base_var)
    final = residual.copy()
    counts = np.zeros(residual.size, dtype=np.int64)
    idx = np.flatnonzero(residual > umin)
    r = residual[idx]
    lo = umin[idx]
    atoms: list[np.ndarray] = []
    steps = 0
    while idx.size:
        if steps >= cfg.max_extension:
            raise RunawayExtensionError(umin=float(lo.min()), cap=cfg.max_extension)
        if with_atoms:
            atoms.append(gen.normal(cfg.base_mean, sd, idx.size))
        v = clamp_weights(gen.beta(1.0, alpha, idx.size))
        r -= v * r
        steps += 1
        done = r <= lo
        if done.any():
            final[idx[done]] = r[done]
            counts[idx[done]] = steps
            keep = ~done
            idx, r, lo = idx[keep], r[keep], lo[keep]
    tail_atoms = np.concatenate(atoms) if atoms else np.empty(0)
    return counts, tail_atoms, final


def update_alpha_escobar_west(rng: RngStream, alpha: float, n: int,
                              num_clusters: int, cfg: ModelConfig) -> float:
    """Concentration update given (n, number of clusters) under the Gamma
    prior, via the standard auxiliary-Beta two-component Gamma mixture."""
    if cfg.alpha_fixed is not None:
        return float(cfg.alpha_fixed)
    if cfg.alpha_prior_rate is None:
        raise ValueError("alpha prior rate unresolved; call cfg.resolved_for(n)")
    if n < 1 or num_clusters < 1:
        raise ValueError("need n >= 1 and num_clusters >= 1")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    a = cfg.alpha_prior_shape
    b = cfg.alpha_prior_rate
    eta = sample_beta(rng, alpha + 1.0, float(n))
    rate = b - math.log(eta)
    odds = (a + num_clusters - 1.0) / (n * rate)
    shape = a + num_clusters if rng.gen.random() < odds / (1.0 + odds) \
        else a + num_clusters - 1.0
    return sample_gamma(rng, shape, rate)


def truncation_error_bound(n: int, L: int, alpha: float) -> float:
    """Total variation error bound 4 n exp(-(L-1)/alpha) of the L-component
    truncated approximation to the infinite mixture."""
    if n < 1 or L < 1:
        raise ValueError("need n >= 1 and L >= 1")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return float(4.0 * n * math.exp(-(L - 1) / alpha))


def _next_alpha(rng: RngStream, state: MixtureState, part: Partition,
                cfg: ModelConfig) -> float:
    # once per sweep, right after relabeling and before the weight draw
    if cfg.alpha_fixed is not None:
        return float(cfg.alpha_fixed)
    return update_alpha_escobar_west(rng, state.alpha, part.n,
                                     part.num_blocks, cfg)


# ---------------------------------------------------------------------------
# allocation passes


def slice_allocation_update(rng: RngStream, data, all_weights, atoms, slices,
                            cfg: ModelConfig) -> np.ndarray:
    """Joint allocation draw: each observation picks among the components
    whose weight strictly exceeds its slice, with Normal likelihood weights."""
    w = np.asarray(all_weights, dtype=float)
    k_total = w.size
    order = np.argsort(w, kind="stable")
    w_sorted = w[order]
    pos = np.searchsorted(w_sorted, np.asarray(slices, dtype=float), side="right")
    order_l = order.tolist()
    atoms_arr = np.asarray(atoms, dtype=float)
    atoms_sorted = atoms_arr[order].tolist()
    inv2s = 0.5 / cfg.sigma2
    y_l = np.asarray(data, dtype=float).tolist()
    pos_l = pos.tolist()
    out = np.empty(len(y_l), dtype=LABEL_DTYPE)
    for i, yi in enumerate(y_l):
        p = pos_l[i]
        if p >= k_total:
            raise InconsistentStateError("slice above every instantiated weight")
        logw = []
        for j in range(p, k_total):
            d = yi - atoms_sorted[j]
            logw.append(-inv2s * d * d)
        idx = sample_categorical_logweights(rng, logw)
        out[i] = order_l[p + idx] + 1
    return out


def _predictive_params(count: int, total: float, cfg: ModelConfig):
    prec = 1.0 / cfg.base_var + count / cfg.sigma2
    mean = (cfg.base_mean / cfg.base_var + total / cfg.sigma2) / prec
    var = 1.0 / prec + cfg.sigma2
    return mean, var


def _marginal_allocation_pass(rng: RngStream, y_l, labels_l, all_weights,
                              slices, cfg: ModelConfig) -> list[int]:
    """Sequential allocation with atoms integrated out.

    Component k's weight is the Normal predictive of y_i given that
    component's current members excluding i; a component with no remaining
    members reduces to the prior predictive.
    """
    w = np.asarray(all_weights, dtype=float)
    k_total = w.size
    order = np.argsort(w, kind="stable")
    w_sorted = w[order]
    pos = np.searchsorted(w_sorted, np.asarray(slices, dtype=float), side="right")
    order_l = order.tolist()
    pos_l = pos.tolist()

    counts = [0] * k_total
    sums = [0.0] * k_total
    for i, c in enumerate(labels_l):
        counts[c - 1] += 1
        sums[c - 1] += y_l[i]

    s2 = cfg.sigma2
    v0 = cfg.base_var
    m0 = cfg.base_mean
    m0_over_v0 = m0 / v0
    labels = list(labels_l)
    for i, yi in enumerate(y_l):
        c_old = labels[i] - 1
        counts[c_old] -= 1
        sums[c_old] -= yi
        p = pos_l[i]
        if p >= k_total:
            raise InconsistentStateError("slice above every instantiated weight")
        logw = []
        for j in range(p, k_total):
            k = order_l[j]
            prec = 1.0 / v0 + counts[k] / s2
            mean = (m0_over_v0 + sums[k] / s2) / prec
            var = 1.0 / prec + s2
            d = yi - mean
            logw.append(-0.5 * (LOG_2PI + math.log(var) + d * d / var))
        idx = sample_categorical_logweights(rng, logw)
        c_new = order_l[p + idx]
        labels[i] = c_new + 1
        counts[c_new] += 1
        sums[c_new] += yi
    return labels


# ---------------------------------------------------------------------------
# sweeps


def _rebuild_weight_state(all_w: np.ndarray, atoms: np.ndarray | None,
                          raw_labels: np.ndarray, residual: float):
    """Canonicalize labels and reorder component arrays so occupied
    components come first in appearance order."""
    part, origin = relabel_compact_with_map(raw_labels)
    occ = origin - 1
    mask = np.ones(all_w.size, dtype=bool)
    mask[occ] = False
    weights = WeightState(allocated=all_w[occ], tail=all_w[mask],
                          residual=residual)
    new_atoms = None
    if atoms is not None:
        new_atoms = np.concatenate([atoms[occ], atoms[mask]])
    return part, weights, new_atoms


def slice_sweep(state: MixtureState, data, cfg: ModelConfig, rng: RngStream,
                iteration: int = 0):
    """One sweep of the posterior slice sampler."""
    t0 = time.perf_counter_ns()
    y = np.asarray(data, dtype=float)
    part = relabel_compact(state.partition.labels)
    alpha = _next_alpha(rng, state, part, cfg)
    allocated, residual = sample_allocated_weights(rng, part.sizes, alpha)
    atoms_occ = sample_atoms_conjugate(rng, y, part, cfg)
    slices, umin = sample_slices(rng, part, allocated)
    tail_w, tail_atoms, resid_end = extend_components(rng, residual, umin, alpha, cfg)
    all_w = np.concatenate([allocated, np.asarray(tail_w, dtype=float)])
    all_atoms = np.concatenate([atoms_occ, np.asarray(tail_atoms, dtype=float)])
    raw = slice_allocation_update(rng, y, all_w, all_atoms, slices, cfg)
    newpart, wstate, new_atoms = _rebuild_weight_state(all_w, all_atoms, raw, resid_end)
    loglik = log_likelihood(y, newpart.labels, new_atoms, cfg)
    elapsed = time.perf_counter_ns() - t0
    new_state = MixtureState(partition=newpart, alpha=alpha, weights=wstate,
                             atoms=new_atoms, slices=slices, umin=umin)
    rec = TraceRecord(iteration, int(all_w.size), newpart.num_blocks,
                      loglik, alpha, elapsed)
    return new_state, rec


def slice_sweep_marginal_atoms(state: MixtureState, data, cfg: ModelConfig,
                               rng: RngStream, iteration: int = 0):
    """Slice sweep with atoms integrated out of the allocation step.

    The reported log likelihood draws throwaway atoms from their conditional
    given the final partition; they are not part of the chain state.
    """
    t0 = time.perf_counter_ns()
    y = np.asarray(data, dtype=float)
    part = relabel_compact(state.partition.labels)
    alpha = _next_alpha(rng, state, part, cfg)
    allocated, residual = sample_allocated_weights(rng, part.sizes, alpha)
    slices, umin = sample_slices(rng, part, allocated)
    tail_w, _, resid_end = extend_components(rng, residual, umin, alpha, cfg,
                                             with_atoms=False)
    all_w = np.concatenate([allocated, np.asarray(tail_w, dtype=float)])
    raw_list = _marginal_allocation_pass(rng, y.tolist(), part.labels.tolist(),
                                         all_w, slices, cfg)
    raw = np.asarray(raw_list, dtype=LABEL_DTYPE)
    newpart, wstate, _ = _rebuild_weight_state(all_w, None, raw, resid_end)
    report_atoms = sample_atoms_conjugate(rng, y, newpart, cfg)
    loglik = log_likelihood(y, newpart.labels, report_atoms, cfg)
    elapsed = time.perf_counter_ns() - t0
    new_state = MixtureState(partition=newpart, alpha=alpha, weights=wstate,
                             atoms=None, slices=slices, umin=umin)
    rec = TraceRecord(iteration, int(all_w.size), newpart.num_blocks,
                      loglik, alpha, elapsed)
    return new_state, rec


def bgs_sweep(state: MixtureState, data, cfg: ModelConfig, rng: RngStream,
              L: int, iteration: int = 0):
    """One sweep of the blocked Gibbs sampler truncated at L components.

    Weights follow Dirichlet(n_1 + alpha/L, ..., n_L + alpha/L) with zero
    counts for unoccupied components; every observation then picks among all
    L components. Partitions with more than L blocks have zero probability
    under this chain.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    t0 = time.perf_counter_ns()
    y = np.asarray(data, dtype=float)
    part = relabel_compact(state.partition.labels)
    if part.num_blocks > L:
        raise InconsistentStateError(
            f"state has {part.num_blocks} blocks, truncation is {L}")
    alpha = _next_alpha(rng, state, part, cfg)
    counts = np.zeros(L)
    counts[:part.num_blocks] = part.sizes
    sums = np.zeros(L)
    sums[:part.num_blocks] = np.bincount(part.labels, weights=y,
                                         minlength=part.num_blocks + 1)[1:]
    if L == 1:
        w = np.ones(1)
    else:
        w = sample_dirichlet(rng, counts + alpha / L)
    prec = 1.0 / cfg.base_var + counts / cfg.sigma2
    mean = (cfg.base_mean / cfg.base_var + sums / cfg.sigma2) / prec
    atoms = rng.gen.normal(mean, np.sqrt(1.0 / prec))

    logpi = np.log(w).tolist()
    atoms_l = atoms.tolist()
    inv2s = 0.5 / cfg.sigma2
    raw = np.empty(y.size, dtype=LABEL_DTYPE)
    for i, yi in enumerate(y.tolist()):
        logw = [lp - inv2s * (yi - ph) * (yi - ph)
                for lp, ph in zip(logpi, atoms_l)]
        raw[i] = sample_categorical_logweights(rng, logw) + 1
    newpart, origin = relabel_compact_with_map(raw)
    loglik = log_likelihood(y, newpart.labels, atoms[origin - 1], cfg)
    elapsed = time.perf_counter_ns() - t0
    new_state = MixtureState(partition=newpart, alpha=alpha)
    rec = TraceRecord(iteration, L, newpart.num_blocks, loglik, alpha, elapsed)
    return new_state, rec


def crp_sweep_atoms(state: MixtureState, data, cfg: ModelConfig,
                    rng: RngStream, iteration: int = 0):
    """Sequential urn sweep with instantiated atoms.

    Each observation leaves its cluster (empty clusters dissolve on the
    spot), then rejoins an existing cluster with weight n_h * likelihood or
    opens a new one with weight alpha * prior predictive. Atoms are
    refreshed from their conjugate posterior at the start of the sweep.
    """
    t0 = time.perf_counter_ns()
    y = np.asarray(data, dtype=float)
    part = relabel_compact(state.partition.labels)
    alpha = _next_alpha(rng, state, part, cfg)
    atoms = sample_atoms_conjugate(rng, y, part, cfg).tolist()
    counts = part.sizes.tolist()
    labels = part.labels.tolist()
    active = list(range(len(counts)))
    free: list[int] = []

    s2 = cfg.sigma2
    inv2s = 0.5 / s2
    cnorm = -0.5 * (LOG_2PI + math.log(s2))
    pvar = cfg.base_var + s2
    inv2p = 0.5 / pvar
    pnorm = -0.5 * (LOG_2PI + math.log(pvar))
    prec1 = 1.0 / cfg.base_var + 1.0 / s2
    var1 = 1.0 / prec1
    m0_over_v0 = cfg.base_mean / cfg.base_var
    log_alpha = math.log(alpha)
    m0 = cfg.base_mean

    for i, yi in enumerate(y.tolist()):
        c = labels[i] - 1
        counts[c] -= 1
        if counts[c] == 0:
            active.remove(c)
            free.append(c)
        logw = []
        for k in active:
            d = yi - atoms[k]
            logw.append(math.log(counts[k]) + cnorm - inv2s * d * d)
        d0 = yi - m0
        logw.append(log_alpha + pnorm - inv2p * d0 * d0)
        idx = sample_categorical_logweights(rng, logw)
        if idx == len(active):
            slot = free.pop() if free else len(counts)
            if slot == len(counts):
                counts.append(0)
                atoms.append(0.0)
            atoms[slot] = sample_normal(rng, (m0_over_v0 + yi / s2) / prec1, var1)
            counts[slot] = 1
            active.append(slot)
            labels[i] = slot + 1
        else:
            k = active[idx]
            counts[k] += 1
            labels[i] = k + 1

    raw = np.asarray(labels, dtype=LABEL_DTYPE)
    newpart, origin = relabel_compact_with_map(raw)
    atoms_final = np.asarray(atoms, dtype=float)[origin - 1]
    loglik = log_likelihood(y, newpart.labels, atoms_final, cfg)
    elapsed = time.perf_counter_ns() - t0
    new_state = MixtureState(partition=newpart, alpha=alpha, atoms=atoms_final)
    rec = TraceRecord(iteration, newpart.num_blocks, newpart.num_blocks,
                      loglik, alpha, elapsed)
    return new_state, rec


def crp_sweep_collapsed(state: MixtureState, data, cfg: ModelConfig,
                        rng: RngStream, iteration: int = 0):
    """Sequential urn sweep with atoms integrated out.

    Cluster weights use the leave-one-out Normal predictive from running
    (count, sum) statistics. The reported log likelihood draws throwaway
    atoms given the final partition; they are not part of the chain state.
    """
    t0 = time.perf_counter_ns()
    y = np.asarray(data, dtype=float)
    part = relabel_compact(state.partition.labels)
    alpha = _next_alpha(rng, state, part, cfg)
    counts = part.sizes.tolist()
    sums = np.bincount(part.labels, weights=y,
                       minlength=part.num_blocks + 1)[1:].tolist()
    labels = part.labels.tolist()
    active = list(range(len(counts)))
    free: list[int] = []

    s2 = cfg.sigma2
    v0 = cfg.base_var
    m0_over_v0 = cfg.base_mean / v0
    pvar = v0 + s2
    inv2p = 0.5 / pvar
    pnorm = -0.5 * (LOG_2PI + math.log(pvar))
    m0 = cfg.base_mean
    log_alpha = math.log(alpha)

    for i, yi in enumerate(y.tolist()):
        c = labels[i] - 1
        counts[c] -= 1
        sums[c] -= yi
        if counts[c] == 0:
            active.remove(c)
            free.append(c)
        logw = []
        for k in active:
            m = counts[k]
            prec = 1.0 / v0 + m / s2
            mean = (m0_over_v0 + sums[k] / s2) / prec
            var = 1.0 / prec + s2
            d = yi - mean
            logw.append(math.log(m) - 0.5 * (LOG_2PI + math.log(var) + d * d / var))
        d0 = yi - m0
        logw.append(log_alpha + pnorm - inv2p * d0 * d0)
        idx = sample_categorical_logweights(rng, logw)
        if idx == len(active):
            slot = free.pop() if free else len(counts)
            if slot == len(counts):
                counts.append(0)
                sums.append(0.0)
            counts[slot] = 1
            sums[slot] = yi
            active.append(slot)
            labels[i] = slot + 1
        else:
            k = active[idx]
            counts[k] += 1
            sums[k] += yi
            labels[i] = k + 1

    raw = np.asarray(labels, dtype=LABEL_DTYPE)
    newpart = relabel_compact(raw)
    report_atoms = sample_atoms_conjugate(rng, y, newpart, cfg)
    loglik = log_likelihood(y, newpart.labels, report_atoms, cfg)
    elapsed = time.perf_counter_ns() - t0
    new_state = MixtureState(partition=newpart, alpha=alpha)
    rec = TraceRecord(iteration, newpart.num_blocks, newpart.num_blocks,
                      loglik, alpha, elapsed)
    return new_state, rec


def prior_generative_sweep(state: MixtureState, n: int, cfg: ModelConfig,
                           rng: RngStream, exact_weights: bool = False) -> MixtureState:
    """One no-data sweep of the slice mechanism.

    With ``exact_weights=False`` (default) the occupied components receive
    fresh prior sticks Beta(1, alpha), exactly as in the printed generative
    recipe. That choice is NOT the conditional law of the weights given the
    partition, and the resulting partition chain provably overweights
    fragmented partitions relative to the exchangeable urn law. Pass
    ``exact_weights=True`` to draw the occupied weights from their
    Dirichlet(n_1, ..., n_H, alpha) conditional instead, which makes the
    chain stationary for the urn partition law.
    """
    part = relabel_compact(state.partition.labels)
    if part.n != n:
        raise ValueError("state size disagrees with n")
    alpha = float(cfg.alpha_fixed) if cfg.alpha_fixed is not None else state.alpha
    h = part.num_blocks
    if exact_weights:
        allocated, residual = sample_allocated_weights(rng, part.sizes, alpha)
        atoms_occ = rng.gen.normal(cfg.base_mean, math.sqrt(cfg.base_var), h)
    else:
        residual = 1.0
        alloc_list = []
        atoms_list = []
        for _ in range(h):
            atoms_list.append(sample_normal(rng, cfg.base_mean, cfg.base_var))
            v = sample_beta(rng, 1.0, alpha)
            w = v * residual
            alloc_list.append(w)
            residual -= w
        allocated = np.asarray(alloc_list, dtype=float)
        atoms_occ = np.asarray(atoms_list, dtype=float)
    slices, umin = sample_slices(rng, part, allocated)
    tail_w, tail_atoms, resid_end = extend_components(rng, residual, umin,
                                                      alpha, cfg)
    all_w = np.concatenate([allocated, np.asarray(tail_w, dtype=float)])
    all_atoms = np.concatenate([atoms_occ, np.asarray(tail_atoms, dtype=float)])

    order = np.argsort(all_w, kind="stable")
    w_sorted = all_w[order]
    pos = np.searchsorted(w_sorted, slices, side="right")
    order_l = order.tolist()
    k_total = all_w.size
    raw = np.empty(n, dtype=LABEL_DTYPE)
    for i, p in enumerate(pos.tolist()):
        if p >= k_total:
            raise InconsistentStateError("slice above every instantiated weight")
        raw[i] = order_l[p + int(rng.gen.integers(k_total - p))] + 1
    newpart, wstate, new_atoms = _rebuild_weight_state(all_w, all_atoms, raw,
                                                       resid_end)
    return MixtureState(partition=newpart, alpha=alpha, weights=wstate,
                        atoms=new_atoms, slices=slices, umin=umin)


# ---------------------------------------------------------------------------
# chain driver


def make_sweep(kind: SamplerKind, L: int | None = None):
    """Bind a sampler kind to a uniform ``fn(state, data, cfg, rng, iteration)``."""
    kind = SamplerKind(kind)
    if kind is SamplerKind.BLOCKED_GIBBS:
        if L is None or L < 1:
            raise ValueError("blocked Gibbs requires a truncation level L >= 1")

        def fn(state, data, cfg, rng, iteration=0):
            return bgs_sweep(state, data, cfg, rng, L, iteration)
        return fn
    if L is not None:
        raise ValueError(f"L only applies to blocked Gibbs, not {kind.value}")
    table = {
        SamplerKind.SLICE: slice_sweep,
        SamplerKind.SLICE_MARGINAL: slice_sweep_marginal_atoms,
        SamplerKind.CRP_ATOMS: crp_sweep_atoms,
        SamplerKind.CRP_COLLAPSED: crp_sweep_collapsed,
    }
    if kind not in table:
        raise ValueError(f"{kind.value} has no data-conditional sweep")
    return table[kind]


@dataclass
class ChainResult:
    records: list[TraceRecord]
    snapshots: list[np.ndarray]
    snapshot_iters: list[int]
    final_state: MixtureState
    infeasible: bool
    kind: SamplerKind
    L: int | None
    burnin: int
    iters: int


def default_snapshot_thin(n: int) -> int:
    return 1 if n <= 2000 else 5


def run_chain(data, cfg: ModelConfig, rng: RngStream, kind: SamplerKind,
              iters: int, burnin: int, init_labels=None, L: int | None = None,
              snapshot_thin: int | None = None, collect_snapshots: bool = True,
              time_budget_s: float = 1.0, feasibility_window: int = 10) -> ChainResult:
    """Drive a sampler for burnin + iters sweeps.

    Aborts and flags the result infeasible when the first
    ``feasibility_window`` sweeps together exceed ``time_budget_s`` seconds.
    Snapshots of the label vector are collected after burn-in every
    ``snapshot_thin`` sweeps.
    """
    kind = SamplerKind(kind)
    if kind is SamplerKind.PRIOR_GENERATIVE:
        raise ValueError("the generative sweep takes no data; drive it directly")
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("data must be a nonempty 1-D vector")
    if iters < 1 or burnin < 0:
        raise ValueError("need iters >= 1 and burnin >= 0")
    n = y.size
    cfg = cfg.resolved_for(n)
    if snapshot_thin is None:
        snapshot_thin = default_snapshot_thin(n)
    if init_labels is None:
        if kind is SamplerKind.BLOCKED_GIBBS:
            init_labels = (np.arange(n, dtype=LABEL_DTYPE) % L) + 1
        else:
            init_labels = np.arange(1, n + 1, dtype=LABEL_DTYPE)
    part = relabel_compact(init_labels)
    if cfg.alpha_fixed is not None:
        alpha0 = float(cfg.alpha_fixed)
    else:
        alpha0 = cfg.alpha_prior_shape / cfg.alpha_prior_rate
    state = MixtureState(partition=part, alpha=alpha0)
    sweep = make_sweep(kind, L)

    records: list[TraceRecord] = []
    snapshots: list[np.ndarray] = []
    snapshot_iters: list[int] = []
    infeasible = False
    budget_ns = time_budget_s * 1e9
    spent_ns = 0
    total = burnin + iters
    for t in range(1, total + 1):
        state, rec = sweep(state, y, cfg, rng, iteration=t)
        records.append(rec)
        if t <= feasibility_window:
            spent_ns += rec.elapsed_ns
            if spent_ns > budget_ns:
                infeasible = True
                break
        if collect_snapshots and t > burnin and (t - burnin) % snapshot_thin == 0:
            snapshots.append(state.partition.labels.copy())
            snapshot_iters.append(t)
    return ChainResult(records=records, snapshots=snapshots,
                       snapshot_iters=snapshot_iters, final_state=state,
                       infeasible=infeasible, kind=kind, L=L,
                       burnin=burnin, iters=iters)
