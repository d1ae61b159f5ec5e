"""Seedable random streams and the elementary draws used by the samplers.

Every stochastic routine in the package receives an explicit :class:`RngStream`
so that a (seed, stream) pair reproduces a run bit for bit and distinct stream
ids give independent sequences (numpy ``SeedSequence`` spawn-key guarantees).
Beta and Dirichlet outputs are clamped away from 0 and 1 so that downstream
logs and slice intervals stay finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# clamp window for stick/weight draws: keeps log(w) finite and 1 - w > 0
WEIGHT_FLOOR = 1e-300
WEIGHT_CEIL = 1.0 - 1e-16

# below this shifted log-weight, exp underflows to exactly 0.0
LOG_UNDERFLOW = -745.0

_MAX_SEED = 2**64


class NoValidCategoryError(ValueError):
    """Raised when a categorical draw is requested over an empty or fully
    degenerate (all minus-infinity) set of log weights."""


@dataclass
class RngStream:
    """Counter-keyed random stream.

    Parameters
    ----------
    seed : int
        Base seed, 0 <= seed < 2**64. Shared by all streams of one experiment.
    stream : int
        Stream id. Distinct ids yield statistically independent generators
        for the same seed.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be an integer in [0, 2**64): {self.seed!r}")
        if not isinstance(self.stream, (int, np.integer)) or self.stream < 0:
            raise ValueError(f"stream must be a nonnegative integer: {self.stream!r}")
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream),))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def gen(self) -> np.random.Generator:
        return self._gen


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def sample_uniform(rng: RngStream, lo: float = 0.0, hi: float = 1.0) -> float:
    """One draw from Uniform(lo, hi), guaranteed strictly inside the interval."""
    lo = _require_finite("lo", lo)
    hi = _require_finite("hi", hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    while True:
        x = rng.gen.uniform(lo, hi)
        if lo < x < hi:
            return float(x)


def sample_beta(rng: RngStream, a: float, b: float) -> float:
    """Beta(a, b) draw clamped to [1e-300, 1 - 1e-16]."""
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta shapes must be positive, got ({a}, {b})")
    x = rng.gen.beta(a, b)
    return float(min(max(x, WEIGHT_FLOOR), WEIGHT_CEIL))


def sample_gamma(rng: RngStream, shape: float, rate: float) -> float:
    """Gamma(shape, rate) draw (rate parameterization), strictly positive."""
    shape = _require_finite("shape", shape)
    rate = _require_finite("rate", rate)
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError(f"Gamma parameters must be positive, got ({shape}, {rate})")
    x = rng.gen.gamma(shape, 1.0 / rate)
    return float(max(x, WEIGHT_FLOOR))


def sample_normal(rng: RngStream, mean: float, variance: float) -> float:
    mean = _require_finite("mean", mean)
    variance = _require_finite("variance", variance)
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return float(rng.gen.normal(mean, math.sqrt(variance)))


def clamp_weights(w: np.ndarray) -> np.ndarray:
    """Clamp an array of stick or weight draws into [1e-300, 1 - 1e-16], in
    place. Same values as ``np.clip``, at about half its fixed cost on the
    short vectors of a stick extension."""
    np.maximum(w, WEIGHT_FLOOR, out=w)
    return np.minimum(w, WEIGHT_CEIL, out=w)


def sample_dirichlet(rng: RngStream, concentration, batch: int | None = None) -> np.ndarray:
    """Dirichlet draw via normalized Gamma variates.

    Entries are clamped to [1e-300, 1 - 1e-16], renormalized and clamped
    once more, since renormalizing can push an entry back out of the window
    (a lone weight that rounds to 1.0 does, often when alpha is small). So
    every coordinate lies in the window and the vector sums to 1 within
    1e-12. With ``batch=m`` the result has shape (m, K), one independent
    draw per row; ``batch=1`` gives the same numbers as the unbatched call.
    """
    conc = np.asarray(concentration, dtype=float)
    if conc.ndim != 1 or conc.size < 2:
        raise ValueError("concentration must be a 1-D vector of length >= 2")
    if not np.all(np.isfinite(conc)) or np.any(conc <= 0.0):
        raise ValueError("concentration entries must be positive and finite")
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    size = None if batch is None else (batch, conc.size)
    g = rng.gen.standard_gamma(conc, size=size)
    np.maximum(g, WEIGHT_FLOOR, out=g)
    g /= g.sum(axis=-1, keepdims=True)
    clamp_weights(g)
    g /= g.sum(axis=-1, keepdims=True)
    return clamp_weights(g)


def sample_categorical_logweights(rng: RngStream, logweights) -> int:
    """Index draw from unnormalized log weights.

    Uses max-shifted exponential normalization; shifted weights below the
    exp underflow point contribute exactly zero mass, and a category with
    zero mass is never returned. Scalar implementation on purpose: callers
    pass small per-observation candidate lists and the cost stays
    proportional to their length.

    Returns
    -------
    int
        0-based index into ``logweights``.
    """
    mx = -math.inf
    m = 0
    for w in logweights:
        if w > mx:
            mx = w
        m += 1
    if m == 0 or mx == -math.inf or math.isnan(mx):
        raise NoValidCategoryError("no category with positive weight")
    total = 0.0
    cum = []
    for w in logweights:
        d = w - mx
        total += math.exp(d) if d > LOG_UNDERFLOW else 0.0
        cum.append(total)
    if total <= 0.0:
        raise NoValidCategoryError("all categorical weights underflowed")
    r = rng.gen.random() * total
    for k, c in enumerate(cum):
        if c > r:
            return k
    # r rounded up to total: the last category that adds mass
    for k in range(m - 1, 0, -1):
        if cum[k] > cum[k - 1]:
            return k
    return 0
