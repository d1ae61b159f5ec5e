"""Seedable random streams and the elementary draws used by the samplers.

Every stochastic routine in the package receives an explicit :class:`RngStream`,
a numpy ``Generator`` keyed by a (seed, stream) pair, and draws from it
directly. A pair reproduces a run bit for bit and distinct stream ids give
independent sequences (numpy ``SeedSequence`` spawn-key guarantees).
Beta and Dirichlet outputs are clamped away from 0 and 1 so that downstream
logs and slice intervals stay finite.

A sweep draws a Dirichlet every time, often over a handful of entries, so
the draw keeps its fixed cost low without changing a number: its parameter
check is two array methods (``min``, ``max``), whose NaN result fails the
comparison, and below DIRICHLET_ARRAY_MIN_K entries it draws the Gamma
variates by one scalar call each, which gives what one array call gives
without that call's per-call parameter check and broadcast.

The verification harness draws Dirichlets in batches, one row per
replicate, and gets the numbers one broadcast Gamma call over the batch
gives at less cost per entry. numpy draws Gamma(1) by its exponential, so
the batch fills its runs of unit concentrations (the singleton blocks, and
alpha = 1) with ``standard_exponential``: all in one call when every entry
is a unit, else row by row and run by run when the runs are long
(DIRICHLET_RUN_MIN_LEN). Rows shorter than SHORT_ROW_K are summed column by
column, which numpy's sum over such rows matches bit for bit.

The categorical rule draws nothing: :func:`categorical_index` and
:func:`_categorical_columns` are pure functions of the log weights and the
uniforms they are handed. A caller that picks many times draws its uniforms
in one ``rng.random(n)`` call, which gives the numbers n scalar calls
would; :func:`sample_categorical_logweights` is the wrapper that draws them
for one pick or one batch.
"""
from __future__ import annotations

import math

import numpy as np

from .core import is_integer

# clamp window for stick/weight draws: keeps log(w) finite and 1 - w > 0
WEIGHT_FLOOR = 1e-300
WEIGHT_CEIL = 1.0 - 1e-16

# below this shifted log-weight, exp underflows to exactly 0.0
LOG_UNDERFLOW = -745.0

_MAX_SEED = 2**64

# from this many entries, an unbatched Dirichlet draws its Gamma variates in
# one array call; below it, one scalar call per entry costs less
DIRICHLET_ARRAY_MIN_K = 8

# a batched Dirichlet fills its runs of unit concentrations with exponential
# draws when its calls average at least this many entries; below it, one
# broadcast Gamma call. On one core of a Xeon with numpy 2.4, batches of
# 10^3-10^4 rows, a fill costs about 5 ns an entry against 9-10 ns in
# the broadcast call, but each run of each row costs a call of 1.5-2.5 us,
# so the fills only pay on long runs. With units plus alpha (two runs a row)
# the rows took 2.25 times the broadcast's time at K = 101, 1.14 times at
# K = 401, 0.88 at K = 601 and 0.77 at K = 1001; with four runs a row, 0.97
# at K = 1001. All units are one run over the whole batch, one fill.
DIRICHLET_RUN_MIN_LEN = 256

# rows shorter than this are reduced column by column: numpy reduces a short
# last axis by a loop per row, and below 8 entries its sum is one plain
# left-to-right loop, so a sum column by column gives the same bits
SHORT_ROW_K = 8


class NoValidCategoryError(ValueError):
    """Raised when a categorical draw is requested over log weights whose
    maximum is not finite: none, all minus-infinity or NaN, or a +inf."""


class RngStream(np.random.Generator):
    """Counter-keyed random stream: a numpy ``Generator`` over PCG64 seeded
    from ``SeedSequence(entropy=seed, spawn_key=(stream,))``.

    Parameters
    ----------
    seed : int
        Base seed, 0 <= seed < 2**64. Shared by all streams of one experiment.
    stream : int
        Stream id. Distinct ids yield statistically independent generators
        for the same seed.
    """

    __slots__ = ()

    def __init__(self, seed: int, stream: int = 0) -> None:
        if not (is_integer(seed) and 0 <= seed < _MAX_SEED):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        if not (is_integer(stream) and stream >= 0):
            raise ValueError(f"stream must be an integer >= 0, got {stream!r}")
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
        super().__init__(np.random.PCG64(ss))


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def sample_beta(rng: RngStream, a: float, b: float) -> float:
    """Beta(a, b) draw clamped to [1e-300, 1 - 1e-16]."""
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"Beta shapes must be positive, got ({a}, {b})")
    x = rng.beta(a, b)
    return float(min(max(x, WEIGHT_FLOOR), WEIGHT_CEIL))


def sample_gamma(rng: RngStream, shape: float, rate: float) -> float:
    """Gamma(shape, rate) draw (rate parameterization), strictly positive."""
    shape = _require_finite("shape", shape)
    rate = _require_finite("rate", rate)
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError(f"Gamma parameters must be positive, got ({shape}, {rate})")
    x = rng.gamma(shape, 1.0 / rate)
    return float(max(x, WEIGHT_FLOOR))


def sample_normal(rng: RngStream, mean: float, variance: float) -> float:
    mean = _require_finite("mean", mean)
    variance = _require_finite("variance", variance)
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return float(rng.normal(mean, math.sqrt(variance)))


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
    A batch draws the numbers of one broadcast Gamma call, with its unit
    concentrations drawn as exponential fills where the runs of units are
    long (:func:`_gamma_rows`), and sums rows shorter than SHORT_ROW_K
    column by column.
    """
    conc = np.asarray(concentration, dtype=float)
    if conc.ndim != 1 or conc.size < 2:
        raise ValueError("concentration must be a 1-D vector of length >= 2")
    # a NaN minimum or maximum fails both comparisons
    if not (conc.min() > 0.0 and conc.max() < math.inf):
        raise ValueError("concentration entries must be positive and finite")
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if batch is None:
        if conc.size < DIRICHLET_ARRAY_MIN_K:
            g = np.array([rng.standard_gamma(a) for a in conc.tolist()])
        else:
            g = rng.standard_gamma(conc)
    else:
        g = _gamma_rows(rng, conc, batch)
    np.maximum(g, WEIGHT_FLOOR, out=g)
    g /= _row_sums(g)
    clamp_weights(g)
    g /= _row_sums(g)
    return clamp_weights(g)


def _gamma_rows(rng: RngStream, conc: np.ndarray, batch: int) -> np.ndarray:
    """The (batch, K) Gamma variates ``rng.standard_gamma(conc, size=(batch,
    K))`` gives. numpy draws Gamma(1) by its ziggurat exponential, so an
    exponential fill of a run of unit concentrations consumes the stream as
    the broadcast call does over those entries: all units fill the whole
    batch at once, and rows whose runs average DIRICHLET_RUN_MIN_LEN entries
    or more are drawn row by row, run by run."""
    unit = conc == 1.0
    edges = [0, *(np.flatnonzero(unit[1:] != unit[:-1]) + 1).tolist(), conc.size]
    if len(edges) == 2 and unit[0]:
        return rng.standard_exponential((batch, conc.size))
    if conc.size < DIRICHLET_RUN_MIN_LEN * (len(edges) - 1):
        return rng.standard_gamma(conc, size=(batch, conc.size))
    runs = [(lo, hi, bool(unit[lo])) for lo, hi in zip(edges[:-1], edges[1:])]
    g = np.empty((batch, conc.size))
    for row in g:
        for lo, hi, ones in runs:
            if ones:
                rng.standard_exponential(out=row[lo:hi])
            elif hi - lo == 1:
                # alpha's entry: a scalar call costs 3-8 us less than a
                # one-entry call with ``out`` (10-11 against 13-20 us a
                # row of 1,000 units plus alpha)
                row[lo] = rng.standard_gamma(conc[lo])
            else:
                rng.standard_gamma(conc[lo:hi], out=row[lo:hi])
    return g


def _row_sums(g: np.ndarray):
    """The sum of a vector, or of each row of a batch as a column; rows
    shorter than SHORT_ROW_K are summed column by column, which gives the
    bits ``g.sum(axis=-1)`` gives."""
    if g.ndim == 1:
        return g.sum()
    if g.shape[1] >= SHORT_ROW_K:
        return g.sum(axis=-1, keepdims=True)
    total = g[:, :1].copy()
    for j in range(1, g.shape[1]):
        total += g[:, j:j + 1]
    return total


def sample_categorical_logweights(rng: RngStream, logweights):
    """Index draw from unnormalized log weights: :func:`categorical_index`
    with one ``rng.random()`` uniform, or for a 2-D array of shape (K, m),
    m draws, the candidates of each down axis 0, picked by
    :func:`_categorical_columns` with one ``rng.random(m)`` call. That call
    yields the numbers m scalar calls would, so either form leaves the
    stream where one scalar draw per pick leaves it.

    Returns
    -------
    int or ndarray
        0-based index into ``logweights``; for a (K, m) array, m indices.
    """
    if type(logweights) is np.ndarray and logweights.ndim == 2:
        return _categorical_columns(logweights, rng.random(logweights.shape[1]))
    return categorical_index(logweights, rng.random())


def categorical_index(logweights, u: float) -> int:
    """The index that the uniform ``u`` in [0, 1) picks from unnormalized
    log weights, a list or 1-D array; a pure function of its arguments.

    Uses max-shifted exponential normalization; shifted weights below the
    exp underflow point contribute exactly zero mass, and a category with
    zero mass is never returned. The pick is the first category whose
    running mass sum exceeds u times the total, by a scalar loop whose cost
    stays proportional to the number of candidates: the slice and sequential
    passes call it once per observation with a short candidate list.
    """
    # NaN entries never raise mx, so an empty, all -inf or all-NaN list
    # leaves it at -inf; a finite maximum adds exp(0) = 1 to the total
    mx = -math.inf
    for w in logweights:
        if w > mx:
            mx = w
    if not math.isfinite(mx):
        raise NoValidCategoryError("no category with positive weight")
    total = 0.0
    cum = []
    for w in logweights:
        d = w - mx
        total += math.exp(d) if d > LOG_UNDERFLOW else 0.0
        cum.append(total)
    r = u * total
    for k, c in enumerate(cum):
        if c > r:
            return k
    return _last_with_mass(cum)


def _last_with_mass(cum) -> int:
    # r rounded up to total: the last category that adds mass
    for k in range(len(cum) - 1, 0, -1):
        if cum[k] > cum[k - 1]:
            return k
    return 0


def _categorical_columns(logweights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical pick per column of a (K, m) array of log weights,
    column j by the uniform ``u[j]``.

    Each column follows the rules of :func:`categorical_index`: the shift by
    its maximum (NaN entries ignored), the cut at LOG_UNDERFLOW, a running
    sum down the column (``np.add.accumulate`` adds in order, as the loop
    does), the first entry strictly above u * total, and the last category
    with mass when u * total rounds up to the total. So a column picks what
    the scalar rule picks with the same uniform, up to ``np.exp`` and
    ``math.exp`` differing in the last bit, which changes a pick only when
    the uniform falls within rounding of a cumulative boundary.
    """
    k, m = logweights.shape
    mx = np.fmax.reduce(logweights, axis=0) if k else None
    if k == 0 or not np.isfinite(mx).all():
        raise NoValidCategoryError("no category with positive weight")
    mass = np.subtract(logweights, mx, dtype=float)
    cut = ~(mass > LOG_UNDERFLOW)
    np.exp(mass, out=mass)
    np.copyto(mass, 0.0, where=cut)
    # each column's maximum adds exp(0) = 1, so every total is at least 1
    cum = np.add.accumulate(mass, axis=0, out=mass)
    r = np.multiply(u, cum[-1])
    # the entries at or below r, all before the first one above it
    idx = np.add.reduce(cum <= r, axis=0)
    if idx.max(initial=0) == k:
        for j in np.flatnonzero(idx == k).tolist():
            idx[j] = _last_with_mass(cum[:, j].tolist())
    return idx
