"""Model configuration and the shared state types for the mixture samplers.

The chain state one sweep hands the next is the partition and alpha."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

LABEL_DTYPE = np.int64

LOG_2PI = math.log(2.0 * math.pi)


class InconsistentStateError(RuntimeError):
    """Sampler state violates a structural invariant (labels out of range,
    a slice above every instantiated weight, ...)."""


class RunawayExtensionError(RuntimeError):
    """Component-extension loop exceeded its iteration cap."""

    def __init__(self, umin: float, cap: int):
        self.umin = umin
        self.cap = cap
        super().__init__(
            f"extension loop exceeded {cap} iterations (umin={umin:.3e})")


# Setting rules: a rule is a test and, in words, the values it passes. JSON
# ``true`` and ``false`` load as bools, a subclass of int; no number is a bool.


def is_integer(value) -> bool:
    """A Python or numpy integer, never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A Python or numpy integer or real, never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


FINITE = (lambda v: is_number(v) and -math.inf < v < math.inf, "a finite number")
POSITIVE = (lambda v: is_number(v) and 0.0 < v < math.inf, "a positive finite number")
UNIT = (lambda v: is_number(v) and 0.0 < v < 1.0, "a number in (0, 1)")


def check(value, name: str, rule):
    """``value`` if ``rule`` accepts it, else a ValueError naming ``name``."""
    ok, what = rule
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def check_data(data) -> np.ndarray:
    """``data`` as a float vector if it is a nonempty 1-D vector of finite
    numbers, else a ValueError naming the data."""
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("data must be a nonempty 1-D vector")
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"data must be finite, got {float(y[i])} at index {i}")
    return y


@dataclass(frozen=True)
class ModelConfig:
    """Univariate Normal mixture with fixed observation variance and a
    Normal base measure over atom locations.

    ``alpha_prior_rate`` left as None means "resolve to 3*log(n) when the
    data size is known" (see :func:`resolved_for`). ``alpha_fixed`` disables
    concentration updates entirely.
    """

    sigma2: float = 1.0
    base_mean: float = 0.0
    base_var: float = 1.0
    alpha_prior_shape: float = 3.0
    alpha_prior_rate: float | None = None
    alpha_fixed: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.default is None):
                check(value, f.name, MODEL_RULES[f.name])

    def resolved_for(self, n: int) -> "ModelConfig":
        """Fill the data-size-dependent default prior rate 3*log(n)."""
        if self.alpha_prior_rate is not None or self.alpha_fixed is not None:
            return self
        if n < 2:
            # log(1) = 0 is not a usable rate; fall back to shape/1
            return replace(self, alpha_prior_rate=1.0)
        return replace(self, alpha_prior_rate=3.0 * math.log(n))


# each field's rule; a field whose default is None also accepts None
MODEL_RULES = {"sigma2": POSITIVE, "base_mean": FINITE, "base_var": POSITIVE,
               "alpha_prior_shape": POSITIVE, "alpha_prior_rate": POSITIVE,
               "alpha_fixed": POSITIVE}


@dataclass(frozen=True)
class Partition:
    """Set partition of [n] in canonical form.

    labels[i] in {1..H} in order of first appearance; sizes[h-1] counts the
    members of block h.
    """

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def num_blocks(self) -> int:
        return int(self.sizes.size)

    def validate(self) -> None:
        """Fail unless the labels are in canonical form, the form
        :func:`relabel_compact` gives, and the sizes count them."""
        try:
            canon = relabel_compact(self.labels)
        except ValueError as exc:
            raise InconsistentStateError(str(exc)) from None
        if not np.array_equal(canon.labels, self.labels):
            raise InconsistentStateError("labels not 1..H in order of appearance")
        if not np.array_equal(canon.sizes, self.sizes):
            raise InconsistentStateError("sizes disagree with labels")


# below this many labels, relabel_compact numbers them through a dict
RELABEL_TABLE_MIN_N = 48


def relabel_compact(raw_labels) -> Partition:
    """Canonicalize arbitrary positive labels to order-of-appearance 1..H."""
    part, _ = relabel_compact_with_map(raw_labels)
    return part


def relabel_compact_with_map(raw_labels) -> tuple[Partition, np.ndarray]:
    """As :func:`relabel_compact`, also returning the original label value of
    each new block (new block h came from ``origin[h-1]``).

    Runs in O(n + K) for labels up to K, with no sort: a table indexed by
    label value records each value's first position, and the positions that
    are their value's first appearance give the blocks in order. Fewer than
    RELABEL_TABLE_MIN_N labels, whose numpy calls would cost more than a
    Python pass, and labels above 2n, which would make that table larger
    than the data, are numbered through a dict instead.
    """
    raw = np.asarray(raw_labels, dtype=LABEL_DTYPE)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("labels must be a nonempty 1-D vector")
    n = raw.size
    if n < RELABEL_TABLE_MIN_N:
        values = raw.tolist()
        if min(values) < 1:
            raise ValueError("labels must be positive integers")
        return _relabel_by_dict(values)
    if raw.min() < 1:
        raise ValueError("labels must be positive integers")
    top = int(raw.max())
    if top > 2 * n:
        return _relabel_by_dict(raw.tolist())
    pos = np.arange(1, n + 1, dtype=LABEL_DTYPE)
    table = np.full(top + 1, n + 1, dtype=LABEL_DTYPE)
    np.minimum.at(table, raw, pos)
    origin = raw[table[raw] == pos]
    table[origin] = pos[:origin.size]
    return _partition(table[raw], origin)


def _relabel_by_dict(values: list) -> tuple[Partition, np.ndarray]:
    first = dict.fromkeys(values)  # keys in order of first appearance
    rank = dict(zip(first, range(1, len(first) + 1)))
    labels = np.fromiter(map(rank.__getitem__, values), dtype=LABEL_DTYPE,
                         count=len(values))
    return _partition(labels, np.fromiter(first, dtype=LABEL_DTYPE,
                                          count=len(first)))


def _partition(labels: np.ndarray, origin: np.ndarray) -> tuple[Partition, np.ndarray]:
    sizes = np.bincount(labels, minlength=origin.size + 1)[1:]
    return Partition(labels=labels, sizes=sizes), origin


@dataclass
class MixtureState:
    """The chain state, the partition and alpha: a sweep reads nothing else
    and draws its weights, atoms and slices afresh from the partition."""

    partition: Partition
    alpha: float

    def validate(self) -> None:
        self.partition.validate()
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise InconsistentStateError(f"alpha must be positive: {self.alpha}")


@dataclass(frozen=True)
class TraceRecord:
    """One sweep worth of trace output.

    ``k_total`` is the number of instantiated components the sweep worked
    with (truncation level); ``num_clusters`` the occupied count after the
    sweep. ``candidates`` counts the likelihood terms the allocation scored,
    a work count that does not depend on the hardware: sum over i of
    (K - p_i) for the slice samplers, whose observation i scores the
    components from weight-order position p_i on; sum over i of (H_i + 1)
    for the urn samplers, which score the H_i clusters left when i steps out
    and a new one; n*L for blocked Gibbs. ``elapsed_ns`` covers the sweep
    body including its bookkeeping; it stays the last column of the CSV
    row, the one wall-clock field.
    """

    iteration: int
    k_total: int
    num_clusters: int
    loglik: float
    alpha: float
    candidates: int
    elapsed_ns: int

    CSV_HEADER = "iter,K,H,loglik,alpha,candidates,elapsed_ns"

    def csv_row(self) -> str:
        return (f"{self.iteration},{self.k_total},{self.num_clusters},"
                f"{self.loglik!r},{self.alpha!r},{self.candidates},"
                f"{self.elapsed_ns}")


def log_likelihood(data: np.ndarray, labels: np.ndarray, atoms: np.ndarray,
                   cfg: ModelConfig) -> float:
    """Sum of log Normal(y_i; atom of its block, sigma2)."""
    y = np.asarray(data, dtype=float)
    lab = np.asarray(labels)
    if atoms is None:
        raise InconsistentStateError("no atoms instantiated")
    phi = np.asarray(atoms, dtype=float)
    if lab.size and int(lab.max()) > phi.size:
        raise InconsistentStateError(
            f"label {int(lab.max())} has no atom (only {phi.size} instantiated)")
    resid = y - phi.take(lab - 1)
    return float(-0.5 * (resid @ resid) / cfg.sigma2
                 - 0.5 * y.size * (LOG_2PI + math.log(cfg.sigma2)))


def rand_index(labels_p, labels_q) -> float:
    """Fraction of the n-choose-2 pairs on which two clusterings agree."""
    p = np.asarray(labels_p)
    q = np.asarray(labels_q)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("label vectors must be 1-D with equal length")
    n = p.size
    if n < 2:
        raise ValueError("need at least two items")
    pc = relabel_compact(p).labels - 1
    qc = relabel_compact(q).labels - 1
    hp = int(pc.max()) + 1
    hq = int(qc.max()) + 1
    cont = np.bincount(pc * hq + qc, minlength=hp * hq).reshape(hp, hq)

    def pairs2(v):
        v = v.astype(float)
        return float((v * (v - 1.0)).sum() / 2.0)

    total = n * (n - 1) / 2.0
    same_both = pairs2(cont.ravel())
    same_p = pairs2(cont.sum(axis=1))
    same_q = pairs2(cont.sum(axis=0))
    agreements = total - same_p - same_q + 2.0 * same_both
    return float(agreements / total)
