"""Markov chain sweeps for Dirichlet process mixtures of Normals.

Five data-conditional samplers, one per ``SamplerKind``, share one state
type and one trace format. Their sweeps are kernels behind one driver, which
owns the steps they share: the timer, relabelling the drawn labels, the
alpha update, the reported log likelihood and the trace record. A sixth
sweep, ``prior_generative_sweep``, takes no data and is no ``SamplerKind``:
it is called directly, not through ``make_sweep`` or ``run_chain``.

* ``slice_sweep``: posterior slice sampler with exchangeable-component
  weight updates (Dirichlet over occupied weights plus leftover mass) and a
  dynamically grown component set.
* ``slice_sweep_marginal_atoms``: same skeleton with atom locations
  integrated out; allocations update sequentially via predictive densities.
* ``bgs_sweep``: blocked Gibbs under a symmetric finite Dirichlet truncation
  at L components.
* ``crp_sweep_atoms`` / ``crp_sweep_collapsed``: sequential urn samplers,
  with instantiated atoms or with atoms integrated out.
* ``prior_generative_sweep``: the no-data analogue of the slice sweep,
  with the occupied weights drawn from their Dirichlet conditional.

Blocked Gibbs scores every observation against all L components, so its
allocation is vectorized: it scores a block of observations at a time and
draws the whole block with one call, still n*L candidates per sweep. The
slice pass and the sequential passes loop over observations in Python with
scalar per-component arithmetic, so their cost stays proportional to the
candidates each observation actually has. Block draws (weights, atoms, slice
variables) are vectorized.

One helper, ``_posterior``, holds the Normal-Normal conjugate update behind
every posterior atom draw and predictive density. The two collapsed passes
keep each component's predictive and refresh only those of the component an
observation leaves and the one it joins.

The weight and slice draws also take a leading replicate axis, and the stick
extension takes vectors of residuals and slice minima, so the
cost-verification harness in ``bounds`` runs many replicates through the
same functions a sweep calls with one. The weight and slice draws run the
same code either way; the stick extension runs a masked loop over the
replicates, which with one replicate consumes the stream exactly as the
sweep's scalar loop does.
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


def _conjugate_prior(cfg: ModelConfig):
    """The constants of the Normal-Normal update, bound once per sweep:
    (1/base_var, base_mean/base_var, sigma2)."""
    return 1.0 / cfg.base_var, cfg.base_mean / cfg.base_var, cfg.sigma2


def _posterior(count, total, prior, noise=0.0):
    """Posterior (mean, variance) of a component's location given ``count``
    members that sum to ``total``; with arrays, one pair per component.

    Normal-Normal conjugacy: precision 1/base_var + count/sigma2, mean the
    precision-weighted average of prior mean and block sum. With ``noise``
    set to sigma2 the variance is that of the predictive of a new member,
    which at count 0 is the prior predictive.
    """
    prec0, m0_prec0, s2 = prior
    prec = prec0 + count / s2
    return (m0_prec0 + total / s2) / prec, 1.0 / prec + noise


def sample_atoms_conjugate(rng: RngStream, data, partition: Partition,
                           cfg: ModelConfig) -> np.ndarray:
    """Posterior draw of each occupied component's location."""
    y = np.asarray(data, dtype=float)
    sums = np.bincount(partition.labels, weights=y,
                       minlength=partition.num_blocks + 1)[1:]
    mean, var = _posterior(partition.sizes, sums, _conjugate_prior(cfg))
    return rng.gen.normal(mean, np.sqrt(var))


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
    # once per sweep, before the kernel's first draw
    if cfg.alpha_fixed is not None:
        return float(cfg.alpha_fixed)
    return update_alpha_escobar_west(rng, state.alpha, part.n,
                                     part.num_blocks, cfg)


# ---------------------------------------------------------------------------
# allocation passes


def _slice_candidates(all_weights, slices):
    """Each observation's candidates, the components whose weight strictly
    exceeds its slice: the component indices in increasing weight order, and
    per observation (as a list) the position in that order of its first
    candidate."""
    w = np.asarray(all_weights, dtype=float)
    order = np.argsort(w, kind="stable")
    pos = np.searchsorted(w[order], np.asarray(slices, dtype=float),
                          side="right").tolist()
    if max(pos) >= w.size:
        raise InconsistentStateError("slice above every instantiated weight")
    return order, pos


def slice_allocation_update(rng: RngStream, data, all_weights, atoms, slices,
                            cfg: ModelConfig) -> np.ndarray:
    """Joint allocation draw: each observation picks among the components
    whose weight strictly exceeds its slice, with Normal likelihood weights."""
    order, pos_l = _slice_candidates(all_weights, slices)
    k_total = order.size
    order_l = order.tolist()
    atoms_sorted = np.asarray(atoms, dtype=float)[order].tolist()
    inv2s = 0.5 / cfg.sigma2
    y_l = np.asarray(data, dtype=float).tolist()
    out = np.empty(len(y_l), dtype=LABEL_DTYPE)
    for i, yi in enumerate(y_l):
        p = pos_l[i]
        logw = []
        for j in range(p, k_total):
            d = yi - atoms_sorted[j]
            logw.append(-inv2s * d * d)
        idx = sample_categorical_logweights(rng, logw)
        out[i] = order_l[p + idx] + 1
    return out


def _marginal_allocation_pass(rng: RngStream, y_l, labels_l, all_weights,
                              slices, cfg: ModelConfig) -> list[int]:
    """Sequential allocation with atoms integrated out.

    Component k's weight is the Normal predictive of y_i given that
    component's current members excluding i; a component with no remaining
    members reduces to the prior predictive. The pass works in the weight
    order, so observation i's candidates are the positions from its first
    one to the end, and it keeps each position's predictive entry,
    refreshing only the two whose members change.
    """
    order, pos_l = _slice_candidates(all_weights, slices)
    k_total = order.size
    order_l = order.tolist()
    rank = dict(zip(order_l, range(k_total)))

    counts = [0] * k_total
    sums = [0.0] * k_total
    at = [rank[c - 1] for c in labels_l]
    for i, j in enumerate(at):
        counts[j] += 1
        sums[j] += y_l[i]

    # predictive entries (mean, variance, LOG_2PI + log variance)
    prior = _conjugate_prior(cfg)
    s2 = prior[2]
    pred = []
    for m, t in zip(counts, sums):
        mean, var = _posterior(m, t, prior, s2)
        pred.append((mean, var, LOG_2PI + math.log(var)))
    for i, yi in enumerate(y_l):
        j = at[i]
        counts[j] -= 1
        sums[j] -= yi
        mean, var = _posterior(counts[j], sums[j], prior, s2)
        pred[j] = (mean, var, LOG_2PI + math.log(var))
        p = pos_l[i]
        logw = []
        for mean, var, norm in pred[p:]:
            d = yi - mean
            logw.append(-0.5 * (norm + d * d / var))
        j = p + sample_categorical_logweights(rng, logw)
        at[i] = j
        counts[j] += 1
        sums[j] += yi
        mean, var = _posterior(counts[j], sums[j], prior, s2)
        pred[j] = (mean, var, LOG_2PI + math.log(var))
    return [order_l[j] + 1 for j in at]


# ---------------------------------------------------------------------------
# sweeps


def _occupied_first(origin: np.ndarray, all_w: np.ndarray,
                    atoms: np.ndarray | None, residual: float):
    """Reorder the component arrays so the occupied components come first,
    new block h being component ``origin[h-1]``."""
    occ = origin - 1
    rest = np.ones(all_w.size, dtype=bool)
    rest[occ] = False
    weights = WeightState(allocated=all_w[occ], tail=all_w[rest],
                          residual=residual)
    if atoms is not None:
        atoms = np.concatenate([atoms[occ], atoms[rest]])
    return weights, atoms


def _sweep(kernel, state: MixtureState, data, cfg: ModelConfig,
           rng: RngStream, iteration: int):
    """The steps every data-conditional sweep shares around its kernel.

    Updates alpha, runs ``kernel(y, partition, alpha)`` on the incoming
    partition (canonical, as every ``Partition`` is), relabels what it drew
    and reports the log likelihood. The kernel returns four values:

    * each observation's 1-based component id;
    * the number of components it worked with (the trace's K);
    * the atoms by component id, kept in the new state; or None when the
      kernel integrates them out, and atoms drawn given the new partition
      then serve the report only;
    * for the slice samplers, every instantiated weight by component id,
      the leftover mass, the slices and their minimum; otherwise None.
    """
    t0 = time.perf_counter_ns()
    y = np.asarray(data, dtype=float)
    part = state.partition
    alpha = _next_alpha(rng, state, part, cfg)
    raw, k_total, atoms, slice_state = kernel(y, part, alpha)
    newpart, origin = relabel_compact_with_map(raw)
    weights = slices = umin = None
    if slice_state is not None:
        all_w, residual, slices, umin = slice_state
        weights, atoms = _occupied_first(origin, all_w, atoms, residual)
    elif atoms is not None:
        atoms = atoms[origin - 1]
    if atoms is None:
        report_atoms = sample_atoms_conjugate(rng, y, newpart, cfg)
    else:
        report_atoms = atoms
    loglik = log_likelihood(y, newpart.labels, report_atoms, cfg)
    elapsed = time.perf_counter_ns() - t0
    new_state = MixtureState(partition=newpart, alpha=alpha, weights=weights,
                             atoms=atoms, slices=slices, umin=umin)
    rec = TraceRecord(iteration, k_total, newpart.num_blocks, loglik, alpha,
                      elapsed)
    return new_state, rec


def slice_sweep(state: MixtureState, data, cfg: ModelConfig, rng: RngStream,
                iteration: int = 0):
    """One sweep of the posterior slice sampler."""
    def kernel(y, part, alpha):
        allocated, residual = sample_allocated_weights(rng, part.sizes, alpha)
        atoms_occ = sample_atoms_conjugate(rng, y, part, cfg)
        slices, umin = sample_slices(rng, part, allocated)
        tail_w, tail_atoms, resid_end = extend_components(rng, residual, umin,
                                                          alpha, cfg)
        all_w = np.concatenate([allocated, np.asarray(tail_w, dtype=float)])
        all_atoms = np.concatenate([atoms_occ, np.asarray(tail_atoms, dtype=float)])
        raw = slice_allocation_update(rng, y, all_w, all_atoms, slices, cfg)
        return raw, all_w.size, all_atoms, (all_w, resid_end, slices, umin)
    return _sweep(kernel, state, data, cfg, rng, iteration)


def slice_sweep_marginal_atoms(state: MixtureState, data, cfg: ModelConfig,
                               rng: RngStream, iteration: int = 0):
    """Slice sweep with atoms integrated out of the allocation step.

    The reported log likelihood draws throwaway atoms from their conditional
    given the final partition; they are not part of the chain state.
    """
    def kernel(y, part, alpha):
        allocated, residual = sample_allocated_weights(rng, part.sizes, alpha)
        slices, umin = sample_slices(rng, part, allocated)
        tail_w, _, resid_end = extend_components(rng, residual, umin, alpha, cfg,
                                                 with_atoms=False)
        all_w = np.concatenate([allocated, np.asarray(tail_w, dtype=float)])
        raw = _marginal_allocation_pass(rng, y.tolist(), part.labels.tolist(),
                                        all_w, slices, cfg)
        return raw, all_w.size, None, (all_w, resid_end, slices, umin)
    return _sweep(kernel, state, data, cfg, rng, iteration)


# log weights scored per blocked Gibbs allocation block: at most 2**14
# observation-component pairs, so each scratch array stays at 128 KB
BGS_BLOCK_WEIGHTS = 1 << 14


def _check_truncation(L) -> None:
    if isinstance(L, bool) or not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError("blocked Gibbs requires a truncation level L >= 1, "
                         f"an integer (got {L!r})")


def bgs_sweep(state: MixtureState, data, cfg: ModelConfig, rng: RngStream,
              L: int, iteration: int = 0):
    """One sweep of the blocked Gibbs sampler truncated at L components.

    Weights follow Dirichlet(n_1 + alpha/L, ..., n_L + alpha/L) with zero
    counts for unoccupied components; every observation then picks among all
    L components. Partitions with more than L blocks have zero probability
    under this chain. The allocation scores log pi_k - (y_i - phi_k)^2 /
    (2 sigma2) for a block of observations at a time, as an (L, block)
    array, and draws the block with one categorical call.
    """
    _check_truncation(L)
    if state.partition.num_blocks > L:
        raise InconsistentStateError(
            f"state has {state.partition.num_blocks} blocks, truncation is {L}")

    def kernel(y, part, alpha):
        counts = np.zeros(L)
        counts[:part.num_blocks] = part.sizes
        sums = np.zeros(L)
        sums[:part.num_blocks] = np.bincount(part.labels, weights=y,
                                             minlength=part.num_blocks + 1)[1:]
        if L == 1:
            w = np.ones(1)
        else:
            w = sample_dirichlet(rng, counts + alpha / L)
        mean, var = _posterior(counts, sums, _conjugate_prior(cfg))
        atoms = rng.gen.normal(mean, np.sqrt(var))

        logpi = np.log(w)[:, None]
        atoms_col = atoms[:, None]
        inv2s = 0.5 / cfg.sigma2
        rows = max(1, BGS_BLOCK_WEIGHTS // L)
        raw = np.empty(y.size, dtype=LABEL_DTYPE)
        for lo in range(0, y.size, rows):
            d = y[lo:lo + rows] - atoms_col
            logw = inv2s * d
            logw *= d
            np.subtract(logpi, logw, out=logw)
            raw[lo:lo + rows] = sample_categorical_logweights(rng, logw) + 1
        return raw, L, atoms, None
    return _sweep(kernel, state, data, cfg, rng, iteration)


def crp_sweep_atoms(state: MixtureState, data, cfg: ModelConfig,
                    rng: RngStream, iteration: int = 0):
    """Sequential urn sweep with instantiated atoms.

    Each observation leaves its cluster (empty clusters dissolve on the
    spot), then rejoins an existing cluster with weight n_h * likelihood or
    opens a new one with weight alpha * prior predictive. Atoms are
    refreshed from their conjugate posterior at the start of the sweep.
    """
    def kernel(y, part, alpha):
        atoms = sample_atoms_conjugate(rng, y, part, cfg).tolist()
        counts = part.sizes.tolist()
        labels = part.labels.tolist()
        active = list(range(len(counts)))
        free: list[int] = []

        prior = _conjugate_prior(cfg)
        s2 = prior[2]
        inv2s = 0.5 / s2
        cnorm = -0.5 * (LOG_2PI + math.log(s2))
        m0, pvar = _posterior(0, 0.0, prior, s2)
        inv2p = 0.5 / pvar
        pnorm = -0.5 * (LOG_2PI + math.log(pvar))
        log_alpha = math.log(alpha)

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
                atoms[slot] = sample_normal(rng, *_posterior(1, yi, prior))
                counts[slot] = 1
                active.append(slot)
                labels[i] = slot + 1
            else:
                k = active[idx]
                counts[k] += 1
                labels[i] = k + 1
        return labels, len(active), np.asarray(atoms, dtype=float), None
    return _sweep(kernel, state, data, cfg, rng, iteration)


def crp_sweep_collapsed(state: MixtureState, data, cfg: ModelConfig,
                        rng: RngStream, iteration: int = 0):
    """Sequential urn sweep with atoms integrated out.

    Cluster weights use the leave-one-out Normal predictive from running
    (count, sum) statistics; each cluster keeps its predictive entry, and
    only the entries of the cluster an observation leaves and the one it
    joins are refreshed. The reported log likelihood draws throwaway atoms
    given the final partition; they are not part of the chain state.
    """
    def kernel(y, part, alpha):
        counts = part.sizes.tolist()
        sums = np.bincount(part.labels, weights=y,
                           minlength=part.num_blocks + 1)[1:].tolist()
        labels = part.labels.tolist()
        active = list(range(len(counts)))
        free: list[int] = []

        # predictive entries (mean, variance, LOG_2PI + log variance)
        prior = _conjugate_prior(cfg)
        s2 = prior[2]
        pred = []
        for m, t in zip(counts, sums):
            mean, var = _posterior(m, t, prior, s2)
            pred.append((mean, var, LOG_2PI + math.log(var)))
        m0, pvar = _posterior(0, 0.0, prior, s2)
        inv2p = 0.5 / pvar
        pnorm = -0.5 * (LOG_2PI + math.log(pvar))
        log_alpha = math.log(alpha)

        for i, yi in enumerate(y.tolist()):
            c = labels[i] - 1
            counts[c] -= 1
            sums[c] -= yi
            if counts[c] == 0:
                active.remove(c)
                free.append(c)
            else:
                mean, var = _posterior(counts[c], sums[c], prior, s2)
                pred[c] = (mean, var, LOG_2PI + math.log(var))
            logw = []
            for k in active:
                mean, var, norm = pred[k]
                d = yi - mean
                logw.append(math.log(counts[k]) - 0.5 * (norm + d * d / var))
            d0 = yi - m0
            logw.append(log_alpha + pnorm - inv2p * d0 * d0)
            idx = sample_categorical_logweights(rng, logw)
            if idx == len(active):
                slot = free.pop() if free else len(counts)
                if slot == len(counts):
                    counts.append(0)
                    sums.append(0.0)
                    pred.append(None)
                counts[slot] = 1
                sums[slot] = yi
                active.append(slot)
            else:
                slot = active[idx]
                counts[slot] += 1
                sums[slot] += yi
            labels[i] = slot + 1
            mean, var = _posterior(counts[slot], sums[slot], prior, s2)
            pred[slot] = (mean, var, LOG_2PI + math.log(var))
        return labels, len(active), None, None
    return _sweep(kernel, state, data, cfg, rng, iteration)


def prior_generative_sweep(state: MixtureState, n: int, cfg: ModelConfig,
                           rng: RngStream) -> MixtureState:
    """One no-data sweep of the slice mechanism.

    The occupied weights come from their conditional given the partition,
    Dirichlet(n_1, ..., n_H, alpha), and the atoms from the base measure;
    each observation then picks uniformly among the components above its
    slice. The partition chain is stationary for the urn partition law.
    (The printed generative recipe instead gives the occupied components
    fresh Beta(1, alpha) sticks, which is not that conditional and
    overweights fragmented partitions.)
    """
    part = state.partition
    if part.n != n:
        raise ValueError("state size disagrees with n")
    alpha = float(cfg.alpha_fixed) if cfg.alpha_fixed is not None else state.alpha
    allocated, residual = sample_allocated_weights(rng, part.sizes, alpha)
    atoms_occ = rng.gen.normal(cfg.base_mean, math.sqrt(cfg.base_var),
                               part.num_blocks)
    slices, umin = sample_slices(rng, part, allocated)
    tail_w, tail_atoms, resid_end = extend_components(rng, residual, umin,
                                                      alpha, cfg)
    all_w = np.concatenate([allocated, np.asarray(tail_w, dtype=float)])
    all_atoms = np.concatenate([atoms_occ, np.asarray(tail_atoms, dtype=float)])

    order, pos = _slice_candidates(all_w, slices)
    order_l = order.tolist()
    k_total = all_w.size
    raw = np.empty(n, dtype=LABEL_DTYPE)
    for i, p in enumerate(pos):
        raw[i] = order_l[p + int(rng.gen.integers(k_total - p))] + 1
    newpart, origin = relabel_compact_with_map(raw)
    wstate, new_atoms = _occupied_first(origin, all_w, all_atoms, resid_end)
    return MixtureState(partition=newpart, alpha=alpha, weights=wstate,
                        atoms=new_atoms, slices=slices, umin=umin)


# ---------------------------------------------------------------------------
# chain driver


def make_sweep(kind: SamplerKind, L: int | None = None):
    """Bind a sampler kind to a uniform ``fn(state, data, cfg, rng, iteration)``."""
    kind = SamplerKind(kind)
    if kind is SamplerKind.BLOCKED_GIBBS:
        _check_truncation(L)

        def fn(state, data, cfg, rng, iteration=0):
            return bgs_sweep(state, data, cfg, rng, L, iteration)
        return fn
    if L is not None:
        raise ValueError(f"L only applies to blocked Gibbs, not {kind.value}")
    return {
        SamplerKind.SLICE: slice_sweep,
        SamplerKind.SLICE_MARGINAL: slice_sweep_marginal_atoms,
        SamplerKind.CRP_ATOMS: crp_sweep_atoms,
        SamplerKind.CRP_COLLAPSED: crp_sweep_collapsed,
    }[kind]


@dataclass
class ChainResult:
    records: list[TraceRecord]
    snapshots: list[np.ndarray]
    snapshot_iters: list[int]
    final_state: MixtureState
    infeasible: bool


# the time budget covers this many first sweeps of a chain
FEASIBILITY_WINDOW = 10


def default_snapshot_thin(n: int) -> int:
    return 1 if n <= 2000 else 5


def run_chain(data, cfg: ModelConfig, rng: RngStream, kind: SamplerKind,
              iters: int, burnin: int, init_labels=None, L: int | None = None,
              snapshot_thin: int | None = None,
              time_budget_s: float = 1.0) -> ChainResult:
    """Drive a sampler for burnin + iters sweeps.

    Aborts and flags the result infeasible when the first
    ``FEASIBILITY_WINDOW`` sweeps together exceed ``time_budget_s`` seconds.
    Snapshots of the label vector are collected after burn-in every
    ``snapshot_thin`` sweeps.
    """
    kind = SamplerKind(kind)
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("data must be a nonempty 1-D vector")
    if iters < 1 or burnin < 0:
        raise ValueError("need iters >= 1 and burnin >= 0")
    n = y.size
    cfg = cfg.resolved_for(n)
    sweep = make_sweep(kind, L)
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
        if t <= FEASIBILITY_WINDOW:
            spent_ns += rec.elapsed_ns
            if spent_ns > budget_ns:
                infeasible = True
                break
        if t > burnin and (t - burnin) % snapshot_thin == 0:
            snapshots.append(state.partition.labels.copy())
            snapshot_iters.append(t)
    return ChainResult(records=records, snapshots=snapshots,
                       snapshot_iters=snapshot_iters, final_state=state,
                       infeasible=infeasible)
