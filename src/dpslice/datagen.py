"""Synthetic one-dimensional mixture datasets and chain initialization.

Two generators cover the experiment suite: three balanced Normal clusters
at means -3, 0, 3, and a heavy-tailed configuration whose cluster labels
follow a truncated power law with cluster means proportional to the label.
Both return (observations, true labels) and are deterministic given the
stream. Datasets round-trip through a two-column CSV plus a JSON sidecar
carrying the generation parameters.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import FINITE, LABEL_DTYPE, Partition, check, is_integer, relabel_compact
from .randkit import RngStream

THREE_CLUSTER_MEANS = (-3.0, 0.0, 3.0)
ZIPF_MAX_LABEL = 500
ZIPF_EXPONENT = 2.0
# The inter-mean gap for the power-law clusters. Chosen to match the
# three-cluster spacing; a package default, not an external constant.
ZIPF_SEPARATION = 3.0


def gen_three_clusters(rng: RngStream, n: int):
    """n observations from three unit-variance Normal clusters at means
    -3, 0, 3, assigned round-robin so cluster sizes differ by at most one."""
    if n < 3:
        raise ValueError("need n >= 3 for three clusters")
    labels = (np.arange(n, dtype=LABEL_DTYPE) % 3) + 1
    means = np.asarray(THREE_CLUSTER_MEANS)[labels - 1]
    y = rng.normal(means, 1.0)
    return y, labels


def zipf_probabilities(max_label: int = ZIPF_MAX_LABEL,
                       exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    """Normalized truncated power law p(c) proportional to c^-exponent."""
    if max_label < 1:
        raise ValueError("max_label must be >= 1")
    c = np.arange(1, max_label + 1, dtype=float)
    p = c ** (-exponent)
    return p / p.sum()


def gen_perturbed_zipf(rng: RngStream, n: int, max_label: int = ZIPF_MAX_LABEL,
                       exponent: float = ZIPF_EXPONENT,
                       separation: float = ZIPF_SEPARATION):
    """Labels iid from the truncated power law on {1..max_label}; each
    observation is N(separation * label, 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = zipf_probabilities(max_label, exponent)
    labels = (rng.choice(max_label, size=n, p=p) + 1).astype(LABEL_DTYPE)
    y = rng.normal(separation * labels, 1.0)
    return y, labels


def _kmeanspp_centers(y: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    centers = np.empty(k)
    centers[0] = y[rng.integers(y.size)]
    d2 = (y - centers[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass on duplicated points; any choice is optimal
            centers[j:] = centers[0]
            return centers
        centers[j] = y[rng.choice(y.size, p=d2 / total)]
        d2 = np.minimum(d2, (y - centers[j]) ** 2)
    return centers


def kmeans_init(data, rng: RngStream, k: int = 5) -> Partition:
    """One-dimensional k-means: k-means++ seeding, Lloyd iterations capped
    at 100, best of 10 restarts by within-cluster sum of squares. Empty
    clusters are dropped and labels relabeled compactly."""
    y = np.asarray(data, dtype=float)
    if y.ndim != 1:
        raise ValueError("data must be 1-D")
    n = y.size
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if k < 1:
        raise ValueError("k must be >= 1")
    best_inertia = np.inf
    best_assign = None
    for _ in range(10):
        centers = _kmeanspp_centers(y, k, rng)
        assign = np.argmin(np.abs(y[:, None] - centers[None, :]), axis=1)
        for _ in range(100):
            sums = np.bincount(assign, weights=y, minlength=k)
            cnts = np.bincount(assign, minlength=k)
            occupied = cnts > 0
            centers[occupied] = sums[occupied] / cnts[occupied]
            new_assign = np.argmin(np.abs(y[:, None] - centers[None, :]), axis=1)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        inertia = float(((y - centers[assign]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_assign = assign
    return relabel_compact(best_assign + 1)


@dataclass(frozen=True)
class Dataset:
    y: np.ndarray
    labels: np.ndarray
    name: str
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.y.size)


# each dataset kind's generator and the params it takes beyond (rng, n)
GENERATORS = {"three-cluster": (gen_three_clusters, ()),
              "zipf": (gen_perturbed_zipf, ("max_label", "exponent", "separation"))}
DATASET_KINDS = tuple(GENERATORS)
# each dataset kind's smallest n
MIN_N = {"three-cluster": len(THREE_CLUSTER_MEANS), "zipf": 1}


# the rule of each generator param
PARAM_RULES = {"max_label": (lambda v: is_integer(v) and v >= 1, "an integer >= 1"),
               "exponent": FINITE, "separation": FINITE}


def check_dataset(kind: str, n: int, params: dict) -> None:
    """Fail unless ``kind`` is a dataset kind whose generator takes ``n``
    observations and every key of ``params``, each with a value it
    accepts."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; use one of {DATASET_KINDS}")
    if n < MIN_N[kind]:
        raise ValueError(f"dataset kind {kind!r} needs n >= {MIN_N[kind]}, "
                         f"got {n}")
    _, takes = GENERATORS[kind]
    for key, value in params.items():
        if key not in takes:
            raise ValueError(f"dataset kind {kind!r} takes no param {key!r}; "
                             f"its params are {list(takes)}")
        check(value, f"dataset param {key!r}", PARAM_RULES[key])


def make_dataset(kind: str, rng: RngStream, n: int, **params) -> Dataset:
    """Dispatch on dataset kind; extra params go to the generator, which
    must take them."""
    check_dataset(kind, n, params)
    gen, _ = GENERATORS[kind]
    y, labels = gen(rng, n, **params)
    return Dataset(y=y, labels=labels, name=kind, params=dict(params))


def save_dataset(ds: Dataset, csv_path) -> None:
    """Write observations and true labels as CSV; generation parameters go
    to a .json sidecar next to it."""
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "true_label"])
        for yi, li in zip(ds.y, ds.labels):
            w.writerow([repr(float(yi)), int(li)])
    sidecar = csv_path.with_suffix(".json")
    meta = {"name": ds.name, "n": ds.n, "params": ds.params}
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_dataset(csv_path) -> Dataset:
    """Read a dataset CSV (and its sidecar, if any). A file with no header,
    no rows, or a row without a finite observation and a positive integer
    label fails naming the file and the line."""
    csv_path = Path(csv_path)
    ys = []
    labels = []
    with open(csv_path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if header[:2] != ["y", "true_label"]:
            raise ValueError(f"{csv_path}, line 1: expected the header "
                             f"y,true_label, got {header!r}")
        for row in r:
            try:
                y, label = float(row[0]), int(row[1])
                ok = math.isfinite(y) and label >= 1
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"{csv_path}, line {r.line_num}: expected a "
                                 f"finite y and a positive integer label, "
                                 f"got {row!r}")
            ys.append(y)
            labels.append(label)
    if not ys:
        raise ValueError(f"{csv_path}, line {r.line_num + 1}: expected a row "
                         f"of data after the header, got none")
    sidecar = csv_path.with_suffix(".json")
    name = "unknown"
    params: dict = {}
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        name = meta.get("name", name)
        params = meta.get("params", params)
    return Dataset(y=np.asarray(ys), labels=np.asarray(labels, dtype=LABEL_DTYPE),
                   name=name, params=params)
