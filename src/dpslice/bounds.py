"""Closed-form constants and Monte Carlo checks for the slice sampler's
instantiated-component overhead.

The quantity under study is K - H: how many components the slice sampler
instantiates beyond the occupied ones, conditionally on a fixed partition.
This module evaluates the printed constants (B1, B2, C_delta, D_alpha),
simulates the overhead by composing the exact same conditional draws the
sampler uses (weights, slices, stick extension), called with a replicate
axis so that many replicates share each numpy call, and runs the statistical
checks: the high-probability C_delta log n bound, exponential tails in t,
survival monotonicity under cluster merges, and the Poisson law of the
pure stick count. The Poisson check's p-value is a closed-form chi-square
tail for integer degrees of freedom (``_chi2_sf``), so the module needs
numpy alone.

Every check returns a small report dataclass with a ``passed`` flag and a
``to_dict`` for JSON serialization; failing configurations are reported
with their Monte Carlo error bars rather than raised.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import LABEL_DTYPE, ModelConfig, Partition, is_integer
from .randkit import RngStream
from .samplers import extend_components, sample_allocated_weights, sample_slices

LN2 = math.log(2.0)

# cap on the slices one batched weight-and-slice draw holds: 2^16 doubles,
# 512 KiB. On the verify job, 2^18 added 7 MB of peak memory and 2^15 ran
# a few percent slower.
CHUNK_ELEMENTS = 1 << 16

# the t values of the exponential tail check
TAIL_T_GRID = (0.5, 1.0, 2.0, 3.0)
# the Poisson goodness-of-fit check fails below this p-value
POISSON_SIGNIFICANCE = 0.01


class _Report:
    """Base of the report dataclasses: their fields as a JSON-ready dict,
    nested reports included."""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class BoundConstants(_Report):
    alpha: float
    delta: float
    b1: float
    b2: float
    c_delta: float
    d_alpha: float


def overhead_bound_constants(alpha: float, delta: float) -> BoundConstants:
    """Evaluate the overhead-bound constants.

    b2 = (6 alpha + 1) / log 2
    b1 = 12 alpha + (1 + 3 alpha log(8 e (1+alpha)^2) + log 2) / log 2
    c_delta = b1 + b2 log(1/delta)
    d_alpha = b1 / log 2 + b2
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    b2 = (6.0 * alpha + 1.0) / LN2
    b1 = 12.0 * alpha + (1.0 + 3.0 * alpha * math.log(8.0 * math.e * (1.0 + alpha) ** 2)
                         + LN2) / LN2
    c_delta = b1 + b2 * math.log(1.0 / delta)
    d_alpha = b1 / LN2 + b2
    return BoundConstants(alpha=float(alpha), delta=float(delta), b1=b1, b2=b2,
                          c_delta=c_delta, d_alpha=d_alpha)


def umin_tail_bound(n: int, alpha: float, x: float) -> float:
    """Upper bound n (alpha + n - 1) x (1 + log(1/x)) on P(u_min <= x) given
    any partition of n items. A bound, not a probability: it may exceed 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    return float(n * (alpha + n - 1.0) * x * (1.0 + math.log(1.0 / x)))


def umin_threshold(n: int, alpha: float, delta: float) -> float:
    """The slice level x(n, delta) = delta / (4 n (alpha+n-1) log(2 n
    (alpha+n-1) e / delta)), for which the u_min tail bound is <= delta/2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    q = n * (alpha + n - 1.0)
    return float(delta / (4.0 * q * math.log(2.0 * q * math.e / delta)))


# ---------------------------------------------------------------------------
# overhead simulation


def resolve_partition_sizes(spec, n: int) -> np.ndarray:
    """Map a partition spec to block sizes summing to n.

    Accepted specs: "singleton", "one-block", "balanced:H" (sizes differ by
    at most one), or an explicit list of integer sizes >= 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, str):
        if spec == "singleton":
            return np.ones(n, dtype=LABEL_DTYPE)
        if spec == "one-block":
            return np.array([n], dtype=LABEL_DTYPE)
        if spec.startswith("balanced:"):
            try:
                h = int(spec.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"balanced spec needs an integer H, got "
                                 f"{spec!r}") from None
            if not 1 <= h <= n:
                raise ValueError(f"balanced spec needs 1 <= H <= n, got H={h}")
            base, extra = divmod(n, h)
            sizes = np.full(h, base, dtype=LABEL_DTYPE)
            sizes[:extra] += 1
            return sizes
        raise ValueError(f"unknown partition spec {spec!r}")
    sizes = _block_sizes(spec)
    if sizes.sum() != n:
        raise ValueError(f"sizes sum to {sizes.sum()}, expected {n}")
    return sizes


def _block_sizes(sizes) -> np.ndarray:
    """``sizes`` as a vector if it is a list of integers >= 1, which are
    never rounded, else a ValueError."""
    if not (isinstance(sizes, (list, tuple, np.ndarray))
            and all(is_integer(s) and s >= 1 for s in sizes)):
        raise ValueError(f"sizes must be a list of integers >= 1, got {sizes!r}")
    return np.asarray(sizes, dtype=LABEL_DTYPE)


def _partition_from_sizes(sizes: np.ndarray) -> Partition:
    labels = np.repeat(np.arange(1, sizes.size + 1, dtype=LABEL_DTYPE), sizes)
    return Partition(labels=labels, sizes=sizes.copy())


@dataclass(frozen=True)
class OverheadSamples:
    """Monte Carlo draws of the overhead K - H and of u_min for one
    (n, partition, alpha) configuration."""
    spec: str
    n: int
    alpha: float
    k_minus_h: np.ndarray
    umin: np.ndarray

    def __len__(self) -> int:
        return int(self.k_minus_h.size)


def _fill_slice_minima(rng: RngStream, part: Partition, alpha: float,
                       umin: np.ndarray, residual: np.ndarray | None = None) -> None:
    """Fill ``umin``, one entry per replicate, and ``residual`` when given,
    with the sampler's own weight and slice draws. Replicates are drawn in
    chunks that hold at most CHUNK_ELEMENTS slices (at least one replicate)."""
    step = max(1, CHUNK_ELEMENTS // part.n)
    for lo in range(0, umin.size, step):
        hi = min(lo + step, umin.size)
        allocated, leftover = sample_allocated_weights(rng, part.sizes, alpha,
                                                       batch=hi - lo)
        _, umin[lo:hi] = sample_slices(rng, part, allocated)
        if residual is not None:
            residual[lo:hi] = leftover


def simulate_overhead(rng: RngStream, n: int, spec, alpha: float,
                      replicates: int) -> OverheadSamples:
    """Draw the overhead distribution conditionally on a fixed partition.

    Runs the sampler's own conditional steps with a replicate axis: occupied
    weights plus leftover mass and per-observation slices, chunk by chunk,
    then one stick extension over every replicate (the single shared
    implementation in the samplers module) counting how many components
    each instantiates.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    sizes = resolve_partition_sizes(spec, n)
    part = _partition_from_sizes(sizes)
    spec_name = spec if isinstance(spec, str) else "custom"
    residual = np.empty(replicates)
    umins = np.empty(replicates)
    _fill_slice_minima(rng, part, alpha, umins, residual)
    k_minus_h, _ = extend_components(rng, residual, umins, alpha, ModelConfig())
    return OverheadSamples(spec=spec_name, n=n, alpha=alpha,
                           k_minus_h=k_minus_h, umin=umins)


# ---------------------------------------------------------------------------
# statistical checks


@dataclass(frozen=True)
class OverheadBoundReport(_Report):
    n: int
    alpha: float
    delta: float
    spec: str
    threshold: float
    exceedance: float
    limit: float
    replicates: int
    passed: bool


def check_overhead_bound(samples: OverheadSamples,
                         constants: BoundConstants) -> OverheadBoundReport:
    """Empirical P(K - H > c_delta log n) against delta plus three binomial
    standard errors. Valid for replicate counts of 10^3 and up."""
    m = len(samples)
    delta = constants.delta
    threshold = constants.c_delta * math.log(samples.n)
    exceedance = float(np.mean(samples.k_minus_h > threshold))
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / m)
    return OverheadBoundReport(n=samples.n, alpha=samples.alpha, delta=delta,
                               spec=samples.spec, threshold=threshold,
                               exceedance=exceedance, limit=limit,
                               replicates=m, passed=exceedance <= limit)


@dataclass(frozen=True)
class TailCheckReport(_Report):
    n: int
    alpha: float
    spec: str
    t_grid: tuple
    tails: tuple
    limits: tuple
    mean_ratio: float
    mean_limit: float
    replicates: int
    passed: bool


def check_exponential_tail(samples: OverheadSamples,
                           constants: BoundConstants) -> TailCheckReport:
    """For each t of TAIL_T_GRID: empirical P((K-H)/log n > b1 + b2 t) <=
    e^-t plus three binomial standard errors; and mean (K-H)/log n <= b1 +
    b2 (the first moment bound). Valid for replicate counts of 10^4 and
    up."""
    m = len(samples)
    logn = math.log(samples.n)
    ratio = samples.k_minus_h / logn
    tails = []
    limits = []
    ok = True
    for t in TAIL_T_GRID:
        thr = constants.b1 + constants.b2 * t
        tail = float(np.mean(ratio > thr))
        target = math.exp(-t)
        limit = target + 3.0 * math.sqrt(target * (1.0 - target) / m)
        tails.append(tail)
        limits.append(limit)
        ok = ok and tail <= limit
    mean_ratio = float(ratio.mean())
    mean_limit = constants.b1 + constants.b2
    ok = ok and mean_ratio <= mean_limit
    return TailCheckReport(n=samples.n, alpha=samples.alpha, spec=samples.spec,
                           t_grid=TAIL_T_GRID, tails=tuple(tails),
                           limits=tuple(limits), mean_ratio=mean_ratio,
                           mean_limit=mean_limit, replicates=m, passed=ok)


def simulate_umin(rng: RngStream, sizes, alpha: float, replicates: int) -> np.ndarray:
    """Replicated draws of u_min given a fixed partition, without the
    extension step: the sampler's own weight and slice draws, batched across
    replicates."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    sizes = _block_sizes(sizes)
    if sizes.size == 0:
        raise ValueError("sizes must name at least one block")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    umin = np.empty(replicates)
    _fill_slice_minima(rng, _partition_from_sizes(sizes), alpha, umin)
    return umin


@dataclass(frozen=True)
class MergeStep:
    x: float
    p_unmerged: float
    p_merged: float
    pooled_se: float
    passed: bool


@dataclass(frozen=True)
class MergeReport(_Report):
    sizes: tuple
    merged_sizes: tuple
    alpha: float
    x_grid: tuple
    steps: tuple
    replicates: int
    passed: bool


def check_merge_monotonicity(rng: RngStream, sizes, x_grid, replicates: int,
                             alpha: float = 1.0) -> MergeReport:
    """Monte Carlo check that merging the first two blocks, into one block
    placed last, does not increase P(u_min <= x) at any grid x, within three
    pooled binomial standard errors. Valid for replicate counts of 10^5 and
    up."""
    sizes = _block_sizes(sizes)
    if sizes.size < 2:
        raise ValueError(f"a merge needs two blocks, got sizes {sizes.tolist()}")
    merged = np.append(sizes[2:], sizes[0] + sizes[1])
    u_before = simulate_umin(rng, sizes, alpha, replicates)
    u_after = simulate_umin(rng, merged, alpha, replicates)
    steps = []
    ok = True
    for x in x_grid:
        p1 = float(np.mean(u_before <= x))
        p2 = float(np.mean(u_after <= x))
        se = math.sqrt(p1 * (1.0 - p1) / replicates + p2 * (1.0 - p2) / replicates)
        step_ok = p2 <= p1 + 3.0 * se
        steps.append(MergeStep(x=float(x), p_unmerged=p1, p_merged=p2,
                               pooled_se=se, passed=step_ok))
        ok = ok and step_ok
    return MergeReport(sizes=tuple(int(v) for v in sizes),
                       merged_sizes=tuple(int(v) for v in merged),
                       alpha=alpha, x_grid=tuple(float(x) for x in x_grid),
                       steps=tuple(steps), replicates=replicates, passed=ok)


def check_merge_chain(rng: RngStream, n: int, x_grid, replicates: int,
                      alpha: float = 1.0) -> list[MergeReport]:
    """The merge check at each of the n - 1 merges from n singletons to one
    block, each merging the two largest blocks: 1^n, 2 1^(n-2), ..., n."""
    if n < 2:
        raise ValueError(f"the merge chain needs n >= 2, got {n}")
    chain, sizes = [], [1] * n
    while len(sizes) > 1:
        chain.append(check_merge_monotonicity(rng, sizes, x_grid, replicates,
                                              alpha=alpha))
        sizes = sorted(chain[-1].merged_sizes, reverse=True)
    return chain


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer dof >= 1, in closed form: with
    h = x / 2, the regularized upper incomplete gamma Q(dof / 2, h), from
    Q(1/2, h) = erfc(sqrt h) or Q(1, h) = exp(-h) by the recursion
    Q(a + 1, h) = Q(a, h) + exp(a log h - h - lgamma(a + 1)). Each term is
    exponentiated whole, so the tail underflows only where it is below the
    smallest double."""
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    a, q = (0.5, math.erfc(math.sqrt(h))) if dof % 2 else (1.0, math.exp(-h))
    log_h = math.log(h)
    while a < 0.5 * dof:
        q += math.exp(a * log_h - h - math.lgamma(a + 1.0))
        a += 1.0
    return q


@dataclass(frozen=True)
class PoissonCheckReport(_Report):
    x: float
    alpha: float
    rate: float
    sample_mean: float
    chi2_stat: float
    dof: int
    p_value: float
    significance: float
    replicates: int
    passed: bool


def check_poisson_stick_law(rng: RngStream, x: float, alpha: float,
                            replicates: int) -> PoissonCheckReport:
    """The pure stick count at residual 1 and threshold x, minus one, is
    Poisson(alpha log(1/x)): chi-square goodness of fit with bins merged
    from the right until every expected count reaches 5, failing at a
    p-value under POISSON_SIGNIFICANCE. Valid for replicate counts of 10^5
    and up."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    counts, _ = extend_components(rng, np.ones(replicates),
                                  np.full(replicates, x), alpha, ModelConfig())
    shifted = counts - 1
    rate = alpha * math.log(1.0 / x)
    sample_mean = float(shifted.mean())

    kmax = int(shifted.max())
    observed = np.bincount(shifted, minlength=kmax + 1).astype(float)
    ks = np.arange(kmax + 1)
    pmf = np.exp(ks * math.log(rate) - rate
                 - np.array([math.lgamma(k + 1.0) for k in ks]))
    expected = replicates * pmf
    # everything past kmax lands in the final bin
    expected[-1] += replicates * max(0.0, 1.0 - float(pmf.sum()))
    # merge right-tail bins until each expected count is at least 5
    obs_b = list(observed)
    exp_b = list(expected)
    while len(exp_b) > 1 and exp_b[-1] < 5.0:
        exp_b[-2] += exp_b[-1]
        del exp_b[-1]
        obs_b[-2] += obs_b[-1]
        del obs_b[-1]
    obs_arr = np.asarray(obs_b)
    exp_arr = np.asarray(exp_b)
    stat = float((((obs_arr - exp_arr) ** 2) / exp_arr).sum())
    dof = max(1, obs_arr.size - 1)
    p_value = _chi2_sf(stat, dof)
    return PoissonCheckReport(x=x, alpha=alpha, rate=rate,
                              sample_mean=sample_mean, chi2_stat=stat,
                              dof=dof, p_value=p_value,
                              significance=POISSON_SIGNIFICANCE,
                              replicates=replicates,
                              passed=p_value >= POISSON_SIGNIFICANCE)
