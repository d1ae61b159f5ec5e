"""Exact small-n partition posterior by exhaustive enumeration.

Ground truth for the sampler exactness checks: enumerate every set partition
of [n] (restricted growth strings, lexicographic order), score each one by
the Dirichlet-process EPPF times the product of per-block Normal marginal
likelihoods, and normalize in log space. Needs numpy alone: log-gamma comes
from ``math.lgamma`` and the normalizing log-sum-exp is the private
``_logsumexp``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .core import LABEL_DTYPE, LOG_2PI, POSITIVE, ModelConfig, check, relabel_compact

MAX_ENUM_N = 12


def bell_number(n: int) -> int:
    """Number of set partitions of [n], exact integer (Bell triangle)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def enumerate_partitions(n: int) -> Iterator[np.ndarray]:
    """Yield every canonical label vector of [n], lexicographically.

    Labels are 1-based and in order of first appearance, so each yielded
    vector is already in the package's canonical partition form.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ENUM_N:
        raise ValueError(
            f"enumeration capped at n = {MAX_ENUM_N} (Bell numbers explode); got {n}")
    a = np.ones(n, dtype=LABEL_DTYPE)

    def rec(i: int, cur_max: int) -> Iterator[np.ndarray]:
        if i == n:
            yield a.copy()
            return
        for v in range(1, cur_max + 2):
            a[i] = v
            yield from rec(i + 1, max(cur_max, v))

    yield from rec(1, 1)


def _completion_counts(n: int) -> list[list[int]]:
    # d[i][j]: completions of positions i..n-1 given current max label j
    d = [[0] * (n + 2) for _ in range(n + 1)]
    for j in range(n + 2):
        d[n][j] = 1
    for i in range(n - 1, 0, -1):
        for j in range(1, i + 1):
            d[i][j] = j * d[i + 1][j] + d[i + 1][j + 1]
    return d


def partition_rank(labels) -> int:
    """Position of a canonical label vector in the enumeration order."""
    lab = np.asarray(labels, dtype=LABEL_DTYPE)
    n = lab.size
    if n < 1 or n > MAX_ENUM_N:
        raise ValueError(f"rank supported for 1 <= n <= {MAX_ENUM_N}")
    if lab[0] != 1:
        raise ValueError("not a canonical label vector")
    d = _completion_counts(n)
    r = 0
    j = 1
    for i in range(1, n):
        v = int(lab[i])
        if v < 1 or v > j + 1:
            raise ValueError("not a canonical label vector")
        r += (v - 1) * d[i + 1][j]
        if v > j:
            j = v
    return r


def log_eppf_dp(sizes, alpha: float) -> float:
    """Log exchangeable partition probability under a Dirichlet process.

    H*log(alpha) + sum_h log((n_h - 1)!) - sum_{i=0}^{n-1} log(alpha + i).
    """
    s = np.asarray(sizes, dtype=float)
    if s.ndim != 1 or s.size == 0 or np.any(s < 1):
        raise ValueError("sizes must be a nonempty vector of positive counts")
    check(alpha, "alpha", POSITIVE)
    n = int(s.sum())
    return float(s.size * math.log(alpha)
                 + sum(math.lgamma(v) for v in s.tolist())
                 - np.log(alpha + np.arange(n)).sum())


def cluster_log_marginal(ys, cfg: ModelConfig) -> float:
    """Log marginal likelihood of one block of observations.

    Sequential predictive product: each factor is the closed-form Normal
    predictive given the observations already folded in. Order invariant up
    to float noise.
    """
    y = np.atleast_1d(np.asarray(ys, dtype=float))
    if y.size == 0:
        raise ValueError("a block must contain at least one observation")
    s2 = cfg.sigma2
    out = 0.0
    count = 0
    total = 0.0
    for yi in y:
        prec = 1.0 / cfg.base_var + count / s2
        mean = (cfg.base_mean / cfg.base_var + total / s2) / prec
        var = 1.0 / prec + s2
        out += -0.5 * (LOG_2PI + math.log(var) + (yi - mean) ** 2 / var)
        count += 1
        total += yi
    return out


@dataclass(frozen=True)
class ExactPosterior:
    """Posterior over all partitions of [n], aligned with enumeration order."""

    n: int
    alpha: float
    log_scores: np.ndarray
    log_norm: float

    @property
    def num_partitions(self) -> int:
        return int(self.log_scores.size)

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_scores - self.log_norm)

    def items(self) -> Iterator[tuple[np.ndarray, float]]:
        probs = self.probabilities()
        for idx, labels in enumerate(enumerate_partitions(self.n)):
            yield labels, float(probs[idx])

    def prob_of(self, labels) -> float:
        canon = relabel_compact(labels).labels
        if canon.size != self.n:
            raise ValueError("label vector length mismatch")
        idx = partition_rank(canon)
        return float(math.exp(self.log_scores[idx] - self.log_norm))

    def mass_where(self, predicate: Callable[[np.ndarray], bool]) -> float:
        probs = self.probabilities()
        total = 0.0
        for idx, labels in enumerate(enumerate_partitions(self.n)):
            if predicate(labels):
                total += probs[idx]
        return float(total)

    def to_csv(self, path) -> None:
        rows = sorted(self.items(), key=lambda t: -t[1])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["labels", "probability"])
            for labels, p in rows:
                w.writerow([",".join(str(c) for c in labels.tolist()), repr(p)])


def exact_posterior(data, alpha: float, cfg: ModelConfig) -> ExactPosterior:
    """Enumerate-and-score posterior over partitions of the data."""
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("data must be a nonempty 1-D vector")
    n = y.size
    if n > MAX_ENUM_N:
        raise ValueError(f"exact posterior capped at n = {MAX_ENUM_N}; got {n}")
    check(alpha, "alpha", POSITIVE)

    # marginal likelihood of every nonempty subset, indexed by bitmask
    marg = np.empty(1 << n)
    marg[0] = np.nan
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        marg[mask] = cluster_log_marginal(y[members], cfg)

    lgam = [0.0] + [math.lgamma(k) for k in range(1, n + 1)]
    log_alpha = math.log(alpha)
    eppf_norm = float(np.log(alpha + np.arange(n)).sum())

    scores = np.empty(bell_number(n))
    for idx, labels in enumerate(enumerate_partitions(n)):
        h = int(labels.max())
        masks = [0] * h
        counts = [0] * h
        for i, c in enumerate(labels.tolist()):
            masks[c - 1] |= 1 << i
            counts[c - 1] += 1
        s = h * log_alpha - eppf_norm
        for b in range(h):
            s += lgam[counts[b]] + marg[masks[b]]
        scores[idx] = s

    return ExactPosterior(n=n, alpha=float(alpha), log_scores=scores,
                          log_norm=_logsumexp(scores))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a nonempty vector with a finite maximum. The m
    terms equal to the maximum are split out of the sum,
    log1p(sum(exp(others - max)) / m) + log m + max, and stay in it as zeros,
    so numpy's pairwise summation adds the others in their own order: the
    rounding of the reference log-sum-exp the tests pin this to bit for bit."""
    top = a.max()
    at_top = a == top
    m = float(np.count_nonzero(at_top))
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(rest / m) + np.log(m) + top)


def tv_distance(empirical: Mapping[tuple, float], exact: ExactPosterior) -> float:
    """Total variation between an empirical partition law and the oracle.

    ``empirical`` maps canonical label tuples to relative frequencies. Keys
    outside the oracle support (wrong n or non-canonical labels) are an error.
    """
    probs = exact.probabilities()
    emp = np.zeros_like(probs)
    total = 0.0
    for key, freq in empirical.items():
        if freq < 0.0:
            raise ValueError("negative empirical frequency")
        if len(key) != exact.n:
            raise ValueError("empirical support has wrong length labels")
        emp[partition_rank(np.asarray(key, dtype=LABEL_DTYPE))] += freq
        total += freq
    if total <= 0.0:
        raise ValueError("empirical law has no mass")
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"empirical frequencies sum to {total}, not 1")
    return float(0.5 * np.abs(emp - probs).sum())
