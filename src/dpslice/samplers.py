"""Markov chain sweeps for Dirichlet process mixtures of Normals.

Five samplers, one per ``SamplerKind``, share one state
type and one trace format. The state is the partition and alpha: each sweep
draws its weights, atoms and slices afresh from the incoming partition and
keeps none of them. The sweeps are kernels behind one driver, which owns the
steps they share: the timer, relabelling the drawn labels, the alpha update,
the reported log likelihood and the trace record.

* ``slice_sweep``: posterior slice sampler with exchangeable-component
  weight updates (Dirichlet over occupied weights plus leftover mass) and a
  dynamically grown component set.
* ``slice_sweep_marginal_atoms``: same skeleton with atom locations
  integrated out; allocations update sequentially via predictive densities.
* ``bgs_sweep``: blocked Gibbs under a symmetric finite Dirichlet truncation
  at L components.
* ``crp_sweep_atoms`` / ``crp_sweep_collapsed``: sequential urn samplers,
  with instantiated atoms or with atoms integrated out.

Blocked Gibbs scores every observation against all L components, so its
allocation is vectorized: it scores a block of observations at a time and
picks the whole block with one batch of uniforms, still n*L candidates per
sweep. The slice pass and the sequential passes loop over observations in
Python with scalar per-component arithmetic, so their cost stays
proportional to the candidates each observation actually has. Block draws
(weights, atoms, slice variables) are vectorized.

The categorical rule of ``randkit`` draws nothing; the allocation passes
hand it their uniforms. The slice, marginal slice and collapsed urn passes
draw no random number while they allocate: each takes its n uniforms, one
per observation in order, from one ``rng.random(n)`` call before the loop,
the numbers n scalar calls would give. The urn sweep with atoms keeps one
draw per observation, because an observation that opens a cluster draws the
new atom before the next observation picks.

One helper, ``_posterior``, holds the Normal-Normal conjugate update behind
every posterior atom draw, and ``_predictive`` the predictive of a new
member. The two collapsed passes keep each component's predictive and
refresh only those of the component an observation leaves and the one it
joins; both urn sweeps score a new cluster with ``_new_cluster``.

Every sweep pays the draws of its weights, atoms and slices and the relabel
and log likelihood once, whatever n is, so these steps keep numpy's per-call
overhead low without changing a draw: their checks are array methods or
scalar comparisons that reject NaN as well, the atom draw scales and shifts
``rng.standard_normal`` in place (the numbers ``rng.normal(mean, sd)``
gives, which computes mean + sd * z), and the stick extension checks alpha
and the base measure once per call and then draws each atom and stick from
the generator as ``sample_normal`` and ``sample_beta`` would, with their
clamp.

The weight and slice draws also take a leading replicate axis, and the stick
extension takes vectors of residuals and slice minima, so the
cost-verification harness in ``bounds`` runs many replicates through the
same functions a sweep calls with one, and a replicate gets the numbers a
sweep would. A batch of weights draws what one broadcast Gamma call would,
with long runs of unit concentrations filled by exponential draws (see
``randkit``). The slice draw checks the H occupied weights rather than the
n gathered ones, which every block's members make the same verdict, skips
the gather when each observation has its own block, and takes the minimum
of rows shorter than 8 entries column by column. The stick extension runs a
masked loop over the replicates that draws sticks and no atoms, since the
harness counts components only; with one replicate it consumes the stream
exactly as the scalar loop does given no ``base``, the form the marginal
slice sweep runs.
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
    POSITIVE,
    InconsistentStateError,
    MixtureState,
    ModelConfig,
    Partition,
    RunawayExtensionError,
    TraceRecord,
    check,
    is_integer,
    log_likelihood,
    relabel_compact,
    relabel_compact_with_map,  # not called here; perfbench patches it on this module
)
from .randkit import (
    RngStream,
    SHORT_ROW_K,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    categorical_index,
    clamp_weights,
    sample_beta,
    sample_categorical_logweights,
    sample_dirichlet,
    sample_gamma,
    sample_normal,
)


# cap on the components one stick extension may add before it fails
MAX_EXTENSION = 10_000_000


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
    # a NaN minimum fails the comparison
    if s.ndim != 1 or s.size == 0 or not s.min() >= 1:
        raise ValueError("sizes must be positive cluster counts")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    conc = np.empty(s.size + 1)
    conc[:-1] = s
    conc[-1] = alpha
    w = sample_dirichlet(rng, conc, batch)
    residual = w[..., -1]
    return w[..., :-1], float(residual) if batch is None else residual


def _conjugate_prior(cfg: ModelConfig):
    """The constants of the Normal-Normal update, bound once per sweep:
    (1/base_var, base_mean/base_var, sigma2)."""
    return 1.0 / cfg.base_var, cfg.base_mean / cfg.base_var, cfg.sigma2


def _posterior(count, total, prior):
    """Posterior (mean, variance) of a component's location given ``count``
    members that sum to ``total``; with arrays, one pair per component.

    Normal-Normal conjugacy: precision 1/base_var + count/sigma2, mean the
    precision-weighted average of prior mean and block sum.
    """
    prec0, m0_prec0, s2 = prior
    prec = prec0 + count / s2
    return (m0_prec0 + total / s2) / prec, 1.0 / prec


def _predictive(count, total, prior):
    """(mean, variance, LOG_2PI + log variance) of the Normal predictive of
    a new member, the entry the collapsed passes score with; at count 0 the
    prior predictive. Worked out directly: the passes call it per member."""
    prec0, m0_prec0, s2 = prior
    prec = prec0 + count / s2
    var = 1.0 / prec + s2
    return (m0_prec0 + total / s2) / prec, var, LOG_2PI + math.log(var)


def _new_cluster(prior, alpha: float):
    """(m0, inv2p, c) for the urn's log weight of opening a cluster at y,
    c - inv2p * (y - m0)^2: log alpha plus the prior predictive's log
    density, with inv2p = 1 / (2 var0) and c = log alpha - log(2 pi var0) / 2."""
    m0, var0, norm0 = _predictive(0, 0.0, prior)
    return m0, 0.5 / var0, math.log(alpha) - 0.5 * norm0


def sample_atoms_conjugate(rng: RngStream, data, partition: Partition, cfg: ModelConfig,
                           components: int | None = None) -> np.ndarray:
    """Posterior draw of the first ``components`` locations (by default the
    occupied ones); a component with no members draws from the prior."""
    y = np.asarray(data, dtype=float)
    if components is None:
        k = partition.num_blocks
        counts = partition.sizes
    else:
        k = components
        counts = np.zeros(k)
        counts[:partition.num_blocks] = partition.sizes
    sums = np.bincount(partition.labels, weights=y, minlength=k + 1)[1:]
    mean, var = _posterior(counts, sums, _conjugate_prior(cfg))
    # the numbers rng.normal(mean, sd) gives (it computes mean + sd * z),
    # without its per-call parameter checks
    z = rng.standard_normal(k)
    z *= np.sqrt(var)
    z += mean
    return z


def sample_slices(rng: RngStream, partition: Partition, allocated):
    """Per-observation slice variables u_i ~ Uniform(0, weight of own block).

    ``allocated`` holds the occupied weights, an H-vector for one replicate
    or an (m, H) array for m replicates; each observation's own-block weight
    is gathered by its label. Returns the slices, of shape (n,) or (m, n),
    and their minimum over observations: a float, or one per replicate.
    """
    w = np.asarray(allocated, dtype=float)
    # every block of a canonical partition has a member, so the gathered
    # weights pass exactly when the occupied ones do; a NaN minimum fails
    if w.size == 0 or not w.min() > 0.0:
        raise InconsistentStateError("slice interval requires positive weights")
    # n blocks are labelled 1..n, and the gather would copy the weights as
    # they are
    wi = w if partition.num_blocks == partition.n else w.take(
        partition.labels - 1, axis=-1)
    u = rng.random(wi.shape)
    u *= wi
    umin = _row_min(u)
    while (umin <= 0.0).any():
        zero = u <= 0.0
        u[zero] = wi[zero] * rng.random(int(zero.sum()))
        umin = _row_min(u)
    return u, float(umin) if u.ndim == 1 else umin


def _row_min(u: np.ndarray):
    """``u.min(-1)``; the rows of a batch shorter than SHORT_ROW_K are
    reduced column by column, which costs less than numpy's loop per row."""
    if u.ndim == 1 or u.shape[1] >= SHORT_ROW_K:
        return u.min(-1)
    umin = u[:, 0].copy()
    for j in range(1, u.shape[1]):
        np.minimum(umin, u[:, j], out=umin)
    return umin


def extend_components(rng: RngStream, residual, umin, alpha: float,
                      base: ModelConfig | None = None):
    """Grow the instantiated component set until leftover mass drops under
    the minimum slice.

    One stick draw Beta(1, alpha) per new component. A sweep passes one
    replicate as floats and gets (tail_weights, tail_atoms, final_residual)
    back. Each new component draws its atom from the base measure of the
    config ``base`` before its stick; a sweep that integrates atoms out
    passes no ``base`` and gets no atoms. The verification harness passes
    equal-length vectors of residuals and slice minima, one entry per
    replicate, and gets (counts, final_residuals): the number of components
    each replicate instantiated and the leftover masses. That replicate form
    draws sticks only and takes no ``base``.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if isinstance(residual, np.ndarray) and residual.ndim:
        if base is not None:
            raise ValueError("the replicate form draws no atoms; it takes no base")
        r = np.asarray(residual, dtype=float)
        u = np.asarray(umin, dtype=float)
        if r.ndim != 1 or r.shape != u.shape:
            raise ValueError("residual and umin must be equal-length vectors")
        if not np.all((r > 0.0) & (r <= 1.0)):
            raise ValueError("every residual must be in (0, 1]")
        if not np.all((u > 0.0) & (u < 1.0)):
            raise ValueError("every umin must be in (0, 1)")
        return _extend_masked(rng, r, u, alpha)
    if not 0.0 < residual <= 1.0:
        raise ValueError(f"residual must be in (0, 1], got {residual}")
    if not 0.0 < umin < 1.0:
        raise ValueError(f"umin must be in (0, 1), got {umin}")
    if base is not None:
        # sample_normal's checks, once per call; each step then draws its
        # atom and stick as sample_normal and sample_beta do
        base_mean, base_var = float(base.base_mean), float(base.base_var)
        if not (math.isfinite(base_mean) and 0.0 < base_var < math.inf):
            raise ValueError("base measure needs a finite mean and a positive "
                             f"finite variance, got ({base_mean}, {base_var})")
        base_sd = math.sqrt(base_var)
    tail_w: list[float] = []
    tail_atoms: list[float] = []
    steps = 0
    while residual > umin:
        if steps >= MAX_EXTENSION:
            raise RunawayExtensionError(umin=umin, cap=MAX_EXTENSION)
        if base is not None:
            tail_atoms.append(rng.normal(base_mean, base_sd))
        v = min(max(rng.beta(1.0, alpha), WEIGHT_FLOOR), WEIGHT_CEIL)
        w = v * residual
        tail_w.append(w)
        residual -= w
        steps += 1
    return tail_w, tail_atoms, residual


def _extend_masked(rng: RngStream, residual: np.ndarray, umin: np.ndarray,
                   alpha: float):
    """The stick extension for many replicates at once, without atoms.

    Each step draws one clamped Beta(1, alpha) stick for every replicate
    whose residual is still above its slice minimum, then drops the
    replicates that are done. With one replicate it consumes the stream
    exactly as the scalar loop does without a ``base``.
    """
    final = residual.copy()
    counts = np.zeros(residual.size, dtype=np.int64)
    idx = np.flatnonzero(residual > umin)
    r = residual[idx]
    lo = umin[idx]
    steps = 0
    while idx.size:
        if steps >= MAX_EXTENSION:
            raise RunawayExtensionError(umin=float(lo.min()), cap=MAX_EXTENSION)
        v = clamp_weights(rng.beta(1.0, alpha, idx.size))
        r -= v * r
        steps += 1
        done = r <= lo
        if done.any():
            final[idx[done]] = r[done]
            counts[idx[done]] = steps
            keep = ~done
            idx, r, lo = idx[keep], r[keep], lo[keep]
    return counts, final


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
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    a = cfg.alpha_prior_shape
    b = cfg.alpha_prior_rate
    eta = sample_beta(rng, alpha + 1.0, float(n))
    rate = b - math.log(eta)
    odds = (a + num_clusters - 1.0) / (n * rate)
    shape = a + num_clusters if rng.random() < odds / (1.0 + odds) \
        else a + num_clusters - 1.0
    return sample_gamma(rng, shape, rate)


def truncation_error_bound(n: int, L: int, alpha: float) -> float:
    """Total variation error bound 4 n exp(-(L-1)/alpha) of the L-component
    truncated approximation to the infinite mixture."""
    if n < 1 or L < 1:
        raise ValueError("need n >= 1 and L >= 1")
    check(alpha, "alpha", POSITIVE)
    return float(4.0 * n * math.exp(-(L - 1) / alpha))


def _next_alpha(rng: RngStream, state: MixtureState, cfg: ModelConfig) -> float:
    # once per sweep, before the kernel's first draw
    part = state.partition
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
    whose weight strictly exceeds its slice, with Normal likelihood weights.

    The n uniforms come from one ``rng.random(n)`` call, one per observation
    in order."""
    order, pos_l = _slice_candidates(all_weights, slices)
    order_l = (order + 1).tolist()
    atoms_sorted = np.asarray(atoms, dtype=float)[order].tolist()
    neg_inv2s = -0.5 / cfg.sigma2
    y_l = np.asarray(data, dtype=float).tolist()
    out = []
    for yi, p, u in zip(y_l, pos_l, rng.random(len(y_l)).tolist()):
        logw = [neg_inv2s * (yi - a) * (yi - a) for a in atoms_sorted[p:]]
        out.append(order_l[p + categorical_index(logw, u)])
    return np.array(out, dtype=LABEL_DTYPE)


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

    prior = _conjugate_prior(cfg)
    pred = [_predictive(m, t, prior) for m, t in zip(counts, sums)]
    for i, (yi, p, u) in enumerate(zip(y_l, pos_l,
                                       rng.random(len(y_l)).tolist())):
        j = at[i]
        counts[j] -= 1
        sums[j] -= yi
        pred[j] = _predictive(counts[j], sums[j], prior)
        logw = [-0.5 * (norm + (yi - mean) * (yi - mean) / var)
                for mean, var, norm in pred[p:]]
        j = p + categorical_index(logw, u)
        at[i] = j
        counts[j] += 1
        sums[j] += yi
        pred[j] = _predictive(counts[j], sums[j], prior)
    return [order_l[j] + 1 for j in at]


# ---------------------------------------------------------------------------
# sweeps


def _sweep(kernel, state: MixtureState, data, cfg: ModelConfig,
           rng: RngStream, iteration: int):
    """The steps every data-conditional sweep shares around its kernel.

    Updates alpha, runs ``kernel(y, partition, alpha)`` on the incoming
    partition (canonical, as every ``Partition`` is), relabels what it drew
    and reports the log likelihood. The kernel returns three values:

    * each observation's 1-based component id;
    * the number of components it worked with (the trace's K);
    * the atoms by component id, which score the log likelihood against
      those ids; or None when the kernel integrates them out, and atoms
      drawn given the new partition score it instead.
    """
    t0 = time.perf_counter_ns()
    y = np.asarray(data, dtype=float)
    alpha = _next_alpha(rng, state, cfg)
    raw, k_total, atoms = kernel(y, state.partition, alpha)
    newpart = relabel_compact(raw)
    if atoms is None:
        raw = newpart.labels
        atoms = sample_atoms_conjugate(rng, y, newpart, cfg)
    loglik = log_likelihood(y, raw, atoms, cfg)
    elapsed = time.perf_counter_ns() - t0
    rec = TraceRecord(iteration, k_total, newpart.num_blocks, loglik, alpha,
                      elapsed)
    return MixtureState(partition=newpart, alpha=alpha), rec


def slice_sweep(state: MixtureState, data, cfg: ModelConfig, rng: RngStream,
                iteration: int = 0):
    """One sweep of the posterior slice sampler."""
    def kernel(y, part, alpha):
        allocated, residual = sample_allocated_weights(rng, part.sizes, alpha)
        atoms_occ = sample_atoms_conjugate(rng, y, part, cfg)
        slices, umin = sample_slices(rng, part, allocated)
        tail_w, tail_atoms, _ = extend_components(rng, residual, umin, alpha, cfg)
        all_w = np.concatenate([allocated, tail_w])
        all_atoms = np.concatenate([atoms_occ, tail_atoms])
        raw = slice_allocation_update(rng, y, all_w, all_atoms, slices, cfg)
        return raw, all_w.size, all_atoms
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
        tail_w, _, _ = extend_components(rng, residual, umin, alpha)
        all_w = np.concatenate([allocated, tail_w])
        raw = _marginal_allocation_pass(rng, y.tolist(), part.labels.tolist(),
                                        all_w, slices, cfg)
        return raw, all_w.size, None
    return _sweep(kernel, state, data, cfg, rng, iteration)


# log weights scored per blocked Gibbs allocation block: at most 2**14
# observation-component pairs, so each scratch array stays at 128 KB
BGS_BLOCK_WEIGHTS = 1 << 14


def _check_truncation(L) -> None:
    if not (is_integer(L) and L >= 1):
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
        if L == 1:
            w = np.ones(1)
        else:
            counts = np.bincount(part.labels, minlength=L + 1)[1:]
            w = sample_dirichlet(rng, counts + alpha / L)
        atoms = sample_atoms_conjugate(rng, y, part, cfg, L)

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
        return raw, L, atoms
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
        m0, inv2p, new_score = _new_cluster(prior, alpha)

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
            logw.append(new_score - inv2p * d0 * d0)
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
        return labels, len(active), np.asarray(atoms, dtype=float)
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

        prior = _conjugate_prior(cfg)
        pred = [_predictive(m, t, prior) for m, t in zip(counts, sums)]
        m0, inv2p, new_score = _new_cluster(prior, alpha)

        for i, (yi, u) in enumerate(zip(y.tolist(),
                                        rng.random(y.size).tolist())):
            c = labels[i] - 1
            counts[c] -= 1
            sums[c] -= yi
            if counts[c] == 0:
                active.remove(c)
                free.append(c)
            else:
                pred[c] = _predictive(counts[c], sums[c], prior)
            logw = []
            for k in active:
                mean, var, norm = pred[k]
                d = yi - mean
                logw.append(math.log(counts[k]) - 0.5 * (norm + d * d / var))
            d0 = yi - m0
            logw.append(new_score - inv2p * d0 * d0)
            idx = categorical_index(logw, u)
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
            pred[slot] = _predictive(counts[slot], sums[slot], prior)
        return labels, len(active), None
    return _sweep(kernel, state, data, cfg, rng, iteration)


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
              time_budget_s: float = 1.0) -> ChainResult:
    """Drive a sampler for burnin + iters sweeps.

    Aborts and flags the result infeasible when the first
    ``FEASIBILITY_WINDOW`` sweeps together exceed ``time_budget_s`` seconds.
    Snapshots of the label vector are collected after burn-in every
    ``default_snapshot_thin(n)`` sweeps.
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
