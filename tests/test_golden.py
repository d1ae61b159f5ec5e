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

from dpslice.bounds import check_merge_chain, simulate_overhead
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


# The harness draws: SHA-256 of the ``k_minus_h`` and ``umin`` bytes of
# ``simulate_overhead``, recorded from the batched Dirichlet that drew every
# batch with one broadcast Gamma call and the slice draw that gathered each
# observation's own weight. The singleton rows at n = 100 are all units
# (alpha = 1) or units plus alpha; the explicit sizes put runs of units
# between larger blocks; ``balanced:7`` has K = 8 entries, the first row
# length whose sums numpy reduces with more than one accumulator; the last
# two rows have runs long enough to be drawn row by row, run by run.
HARNESS_SIZES = [1] * 20 + [4] + [1] * 25 + [2] + [1] * 15 + [7] + [1] * 12 + [3]
LONG_RUN_SIZES = [1] * 700 + [5] + [1] * 600 + [3, 2] + [1] * 500 + [9]
GOLDEN_OVERHEAD = [
    ("singleton", 100, 0.5,
     "4692d4b72ea668316793f88ce5eb38ac63053206f441b97993758e7766e73064",
     "7092c06a24f68aefe38b7193ec56f253ca45fd6ac9839874e36e4b8e44c28ada"),
    ("singleton", 100, 1.0,
     "d2c0eb3f032269381f4cfbd9d3891ad170be3374c1f50860968a2a6459b1deb1",
     "6c55168949cbc8da2bce00e306b6955b0284c41fa2615da8f3c3e758456de8ff"),
    (HARNESS_SIZES, 88, 1.0,
     "816057c91bff8fe7182e968946d272a994ef10fcbf385b4d755d6833e15ad957",
     "d319276217127bc9a0576f94c7ee39f0aa2833825c7456151fc319d44de81956"),
    ("balanced:7", 70, 1.0,
     "067c8fe7bc73e4b41639fa418c199771568c841fec8559b055c17eaea79d8fdb",
     "31b417df66ea78b8c0ac2a52c927cf8c75a402407623dd2c25c095d4fd85712f"),
    ("singleton", 1000, 0.5,
     "b6f13555f169d923070df3693d718b9f8b0256db71da79aaa8f1fb857390daf7",
     "49749c79c12228419c06ade83c07fd1749d2ced449e41c9bc1c33c5d35b16439"),
    (LONG_RUN_SIZES, 1819, 1.0,
     "2dceadd9525934d016a1a84660596370eda3417f7f86290305ccf878f909e1e2",
     "876f5e3a3aed278e5abb72e04447f010090eb663368a2f3d5aef6a2f0028bba5"),
]


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("stream,spec,n,alpha,k_digest,u_digest",
                         [(i, *row) for i, row in enumerate(GOLDEN_OVERHEAD)],
                         ids=["singleton-half", "singleton-one", "explicit",
                              "balanced-7", "singleton-1000",
                              "explicit-long-runs"])
def test_simulate_overhead_bytes(stream, spec, n, alpha, k_digest, u_digest):
    s = simulate_overhead(RngStream(seed=2718, stream=stream), n, spec, alpha,
                          replicates=3000)
    assert (_sha(s.k_minus_h), _sha(s.umin)) == (k_digest, u_digest)


# SHA-256 of the JSON of the n = 6 merge chain's reports; 25,000 replicates
# per partition span three slice chunks, the last one partial
GOLDEN_MERGE_CHAIN = (
    "c264c0f3c2f80c44019bfb0c46a091399ad6f25e93bc857c379323674b5b7e6c")


def test_merge_chain_reports():
    chain = check_merge_chain(RngStream(seed=2718, stream=99), 6,
                              (1e-3, 1e-2, 0.05), 25_000)
    text = json.dumps([rep.to_dict() for rep in chain])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MERGE_CHAIN
