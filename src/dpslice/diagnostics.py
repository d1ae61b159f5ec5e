"""Chain output measurement: effective sample size, co-clustering counts,
and Binder-loss point estimation over sampled partitions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import relabel_compact


# the shortest trace ``ess`` accepts
MIN_TRACE_LENGTH = 10


@dataclass(frozen=True)
class EssResult:
    """Effective sample size plus a flag for degenerate (constant) traces."""
    value: float
    zero_variance: bool


def ess(trace) -> EssResult:
    """Effective sample size length / (1 + 2 sum of autocorrelations), with
    the sum truncated by Geyer's initial monotone positive sequence rule on
    consecutive autocovariance pairs.

    A constant trace returns the full length with ``zero_variance`` set.
    The estimate is clamped to (0, length].
    """
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < MIN_TRACE_LENGTH:
        raise ValueError(f"trace must be 1-D with length >= {MIN_TRACE_LENGTH}")
    n = x.size
    xc = x - x.mean()
    # biased FFT autocovariances, zero-padded to the next power of two >= 2n
    m = 1 << int(2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * f.conj(), m)[:n] / n
    g0 = float(acov[0])
    if g0 <= 0.0 or not np.isfinite(g0):
        return EssResult(value=float(n), zero_variance=True)
    pair_sum = 0.0
    prev = np.inf
    for k in range(n // 2):
        gamma = float(acov[2 * k] + acov[2 * k + 1])
        if gamma <= 0.0:
            break
        if gamma > prev:
            gamma = prev
        pair_sum += gamma
        prev = gamma
    tau = 2.0 * pair_sum / g0 - 1.0
    if tau <= 0.0:
        return EssResult(value=float(n), zero_variance=False)
    return EssResult(value=float(min(n / tau, n)), zero_variance=False)


# columns per one-hot product: bounds its n x columns operands whatever the
# samples' block counts (up to n each)
_CHUNK_COLUMNS = 256


def _compact(samples, n: int | None = None):
    """Stack sampled partitions as 0-based canonical labels, one row per
    sample, with each sample's block count and its sum of squared block
    sizes A_s."""
    parts = [relabel_compact(lab) for lab in samples]
    if not parts:
        raise ValueError("need at least one sampled partition")
    if n is not None and any(p.n != n for p in parts):
        raise ValueError(f"sampled partitions do not all have n={n} items")
    labels = np.stack([p.labels for p in parts]) - 1
    blocks = np.array([p.num_blocks for p in parts])
    a = np.array([float(p.sizes @ p.sizes) for p in parts])
    return labels, blocks, a


def _one_hot_chunks(labels: np.ndarray, blocks: np.ndarray):
    """Per chunk of consecutive samples: its rows (a slice), the n x (blocks
    in the chunk) one-hot block matrix Z, and each item's column in Z for
    every sample of the chunk. Samples whose first column falls in the same
    window of ``_CHUNK_COLUMNS`` columns share a chunk."""
    n = labels.shape[1]
    first = np.cumsum(blocks) - blocks
    cuts = [0, *(np.flatnonzero(np.diff(first // _CHUNK_COLUMNS)) + 1), len(labels)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        cols = labels[lo:hi] + (first[lo:hi] - first[lo])[:, None]
        z = np.zeros((n, int(blocks[lo:hi].sum())))
        z[np.tile(np.arange(n), hi - lo), cols.ravel()] = 1.0
        yield slice(lo, hi), z, cols


def accumulate_coclustering(samples) -> np.ndarray:
    """Pairwise co-assignment counts of sampled partitions (label vectors of
    equal length): ``counts[i, j]`` is the number of samples in which items
    i and j share a block, so the diagonal holds the sample count. Summed
    as Z Z^T over the samples' one-hot block matrix Z."""
    labels, blocks, _ = _compact(samples)
    n = labels.shape[1]
    counts = np.zeros((n, n))
    for _, z, _ in _one_hot_chunks(labels, blocks):
        counts += z @ z.T
    return counts


@dataclass(frozen=True)
class BinderResult:
    labels: np.ndarray
    sample_index: int
    loss: float


def _binder_pick(samples, cand, a, f, s_total: int, c_total: float) -> BinderResult:
    """The candidate of least Binder loss; ties go to the earliest sample.

    Against the co-clustering counts C of S samples, candidate s scores

        2S * loss = S * A_s - 2 * F_s + sum(C),

    where A_s = sum_h n_h^2 and F_s = sum_{i,j} 1{s_i = s_j} C_ij; the
    diagonal terms cancel. Every term is an integer, so the comparison is
    exact and the tie-break does not depend on float summation order.
    """
    scaled = s_total * a - 2.0 * f + c_total
    best = int(np.argmin(scaled))
    idx = int(cand[best])
    return BinderResult(labels=np.asarray(samples[idx]).copy(), sample_index=idx,
                        loss=float(scaled[best] / (2.0 * s_total)))


def binder_point_estimate(samples, counts: np.ndarray) -> BinderResult:
    """The sampled partition minimizing Binder loss against the empirical
    co-clustering probabilities of the counts C from
    :func:`accumulate_coclustering` (Dahl 2006), whose diagonal gives the
    number of samples they sum; ties break toward the earliest sample.

    Every sample is a candidate. F_s comes from one-hot products:
    sum_i (C Z_s)[i, s_i], over chunks of samples.
    """
    samples = list(samples)
    n = counts.shape[0]
    s_total = int(counts[0, 0])
    if s_total == 0:
        raise ValueError("no samples accumulated")
    labels, blocks, a = _compact(samples, n)
    rows = np.arange(n)
    f = np.empty(len(samples))
    for chunk, z, cols in _one_hot_chunks(labels, blocks):
        f[chunk] = (counts @ z)[rows, cols].sum(axis=1)
    return _binder_pick(samples, np.arange(len(samples)), a, f, s_total,
                        float(counts.sum()))


# the most samples the contingency-table search scores as candidates
SPARSE_MAX_CANDIDATES = 400


def binder_point_estimate_sparse(samples) -> BinderResult:
    """Binder minimizer over sampled partitions without the n x n matrix.

    The co-clustering counts are those of all S samples, and F_s is the sum
    over samples t of the squared Frobenius norm of the s-vs-t contingency
    table, so the losses and tie-breaks equal those of
    :func:`binder_point_estimate`. The candidate set is capped at
    SPARSE_MAX_CANDIDATES evenly spaced samples (every sample still enters
    the co-clustering counts).
    """
    samples = list(samples)
    labels, blocks, a = _compact(samples)
    s_total = len(samples)
    # evenly spaced, and every sample when there are at most the cap
    cand = np.unique(np.linspace(0, s_total - 1,
                                 SPARSE_MAX_CANDIDATES).round().astype(int))
    f = np.zeros(cand.size)
    for j, s in enumerate(cand):
        for t in range(s_total):
            cells = np.bincount(labels[s] * blocks[t] + labels[t],
                                minlength=blocks[s] * blocks[t])
            f[j] += float(cells @ cells)
    return _binder_pick(samples, cand, a[cand], f, s_total, float(a.sum()))
