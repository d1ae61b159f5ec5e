"""Golden regression values: short chains of the five data-conditional
samplers, the Binder search on a fixed snapshot set and the output files of
a small ``dpslice run``.

The default-model values were recorded from the implementation before the
sweeps shared one driver and the Binder routes shared one loss; the
off-default values, before the samplers shared one conjugate update. A draw
that moves in the random stream changes a trace row or the final labels, and
any change to the Binder scoring changes the pick or its loss. Floats enter
the trace digests at ten significant digits, so the values do not depend on
the last bit of a platform's ``log``.

At ``ModelConfig()`` the noise and prior variances are both 1 and the prior
mean is 0, so a posterior formula that swaps the two variances or drops the
prior mean gives the same chains there. The off-default rows run the same
chains with all three set apart.
"""
import hashlib
import json

import numpy as np
import pytest

from dpslice.cli import _binder_from_snapshots, main
from dpslice.core import ModelConfig
from dpslice.diagnostics import binder_point_estimate_sparse
from dpslice.randkit import RngStream
from dpslice.samplers import SamplerKind, run_chain

_GEN = np.random.Generator(np.random.PCG64(2024))
Y = np.concatenate([_GEN.normal(-4.0, 1.0, 10), _GEN.normal(0.0, 1.0, 10),
                    _GEN.normal(4.0, 1.0, 10)])

GOLDEN_CHAINS = [
    ("slice", None, "f9878643db3c9705",
     [1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 2, 4, 3, 3,
      4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("slice-marginal", None, "6ebe92009cae8a4e",
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 3, 2, 2, 1, 2, 2, 1,
      3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
    ("bgs", 5, "c6b121a021a7db51",
     [1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 1, 2, 2, 2,
      3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
    ("crp-atoms", None, "1f6b06892c221a8b",
     [1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 3, 2, 2, 2, 2, 2, 2,
      3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
    ("crp-collapsed", None, "73952daec6add9ae",
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 1, 2, 2, 1, 1, 2,
      3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
]

OFF_DEFAULT = ModelConfig(sigma2=0.7, base_mean=0.5, base_var=3.0)
GOLDEN_CHAINS_OFF_DEFAULT = [
    ("slice", None, "aafcd66de52a71c7",
     [1, 2, 2, 2, 2, 2, 2, 2, 1, 2, 3, 1, 1, 3, 4, 3, 2, 1, 1, 1,
      5, 3, 5, 5, 5, 5, 5, 5, 5, 5]),
    ("slice-marginal", None, "e39baed5e1a2c726",
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 3, 3, 1, 3, 1, 3,
      5, 5, 5, 5, 5, 5, 5, 5, 5, 5]),
    ("bgs", 5, "3a02c3acf5eac07e",
     [1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 2, 2, 2, 2, 2, 2,
      3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
    ("crp-atoms", None, "c9cc0869fb4c1ae0",
     [1, 2, 1, 1, 1, 1, 1, 1, 1, 2, 3, 3, 2, 4, 3, 3, 2, 3, 2, 2,
      4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("crp-collapsed", None, "f6fba473342bef3c",
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 2, 1, 2, 2, 2,
      4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
]


def _trace_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.iteration},{r.k_total},{r.num_clusters},"
                 f"{r.loglik:.10g},{r.alpha:.10g}\n".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("stream,kind,L,digest,labels",
                         [(i, *row) for i, row in enumerate(GOLDEN_CHAINS)],
                         ids=[row[0] for row in GOLDEN_CHAINS])
def test_chain_trace_and_final_labels(stream, kind, L, digest, labels):
    _check_chain(ModelConfig(), stream, kind, L, digest, labels)


@pytest.mark.parametrize("stream,kind,L,digest,labels",
                         [(i, *row) for i, row
                          in enumerate(GOLDEN_CHAINS_OFF_DEFAULT)],
                         ids=[row[0] for row in GOLDEN_CHAINS_OFF_DEFAULT])
def test_chain_trace_and_final_labels_off_default_model(stream, kind, L,
                                                        digest, labels):
    _check_chain(OFF_DEFAULT, stream, kind, L, digest, labels)


def _check_chain(cfg, stream, kind, L, digest, labels):
    result = run_chain(Y, cfg, RngStream(seed=777, stream=stream),
                       SamplerKind(kind), iters=25, burnin=0, L=L,
                       time_budget_s=600.0)
    assert len(result.records) == 25
    assert _trace_digest(result.records) == digest
    assert result.final_state.partition.labels.tolist() == labels


def _snapshots():
    """450 noisy copies of a four-block partition of 120 items."""
    gen = np.random.Generator(np.random.PCG64(99))
    truth = np.repeat([1, 2, 3, 4], 30)
    snaps = []
    for _ in range(450):
        lab = truth.copy()
        flip = gen.random(truth.size) < 0.15
        lab[flip] = gen.integers(1, 7, int(flip.sum()))
        snaps.append(lab)
    return snaps


def test_binder_pick_on_fixed_snapshots():
    snaps = _snapshots()
    # n = 120 takes the matrix route, which scores every one of the 450
    dense, matrix = _binder_from_snapshots(snaps, 120)
    assert matrix is not None
    assert (dense.sample_index, dense.loss) == (152, 830.7911111111111)
    # the contingency route scores 400 evenly spaced candidates
    sparse = binder_point_estimate_sparse(snaps)
    assert (sparse.sample_index, sparse.loss) == (152, 830.7911111111111)


# SHA-256 of the files ``dpslice run`` writes for the CI config (slice,
# three-cluster data, n=40, 10 burn-in and 50 recorded sweeps, seed 12345),
# recorded from the writers that formatted every entry on its own
# (``np.savetxt`` for the co-clustering matrix)
GOLDEN_RUN_FILES = {
    "partitions.csv":
        "806c411dbe0e99cb85ebf75191d4a662fc815be488f977d2bd5a6ae42b02b666",
    "binder.csv":
        "196ae58ef1c0d6b3055b260a345b4759772bd4ed60a87bc45b268c15e15ea775",
    "coclustering.csv":
        "e891b376be04c04ea33a7c11a6be95178128f334a9323a028e16ca6e5e614622",
}


def test_run_output_files(tmp_path):
    conf = {"sampler": "slice", "dataset": {"kind": "three-cluster", "n": 40},
            "iters": 50, "burnin": 10, "time_budget_s": 600}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for name, digest in GOLDEN_RUN_FILES.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
