"""The benchmark's four workloads: what each runs, how it is timed, and how
its outputs are checked.

Every workload is one job, repeated by the runner. A job takes the workload
seed and derives its random streams the way the CLI does, so the same seed
gives the same inputs and the same outputs. A job reports its in-process
set-up time (everything before the first chain or Monte Carlo replicate
starts), its time after set-up, the operations it attempted and failed, and
a digest of its outputs with timing fields removed.

Untraced jobs time only coarse calls: each ``run_chain`` call and the first
``simulate_overhead`` call, under the names their callers look up
(:class:`Probe`).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

@dataclass
class ChainTiming:
    kind: str
    L: int | None
    start: float
    end: float
    sweeps: int
    records: list

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class JobResult:
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    setup_s: float | None = None
    wall_s: float | None = None
    total_s: float | None = None
    postprocess_s: float | None = None
    chains: list[ChainTiming] = field(default_factory=list)
    digest: str = ""
    output_bytes: int = 0
    outputs: object = None
    report: dict | None = None
    input_index: int = 0

    @property
    def timed(self) -> bool:
        return self.wall_s is not None


class Probe:
    """Coarse timers for one job: one per ``run_chain`` call and the start of
    the first ``simulate_overhead`` call."""

    def __init__(self, dp, clock=time.perf_counter):
        self.dp = dp
        self.clock = clock
        self.chains: list[ChainTiming] = []
        self.first_replicate: float | None = None
        self._patches: list[tuple] = []

    def _chain_timer(self, run_chain):
        def wrapper(data, cfg, rng, kind, *args, **kwargs):
            start = self.clock()
            result = run_chain(data, cfg, rng, kind, *args, **kwargs)
            end = self.clock()
            self.chains.append(ChainTiming(kind=self.dp.samplers.SamplerKind(kind).value,
                                           L=kwargs.get("L"), start=start, end=end,
                                           sweeps=len(result.records),
                                           records=result.records))
            return result
        return wrapper

    def _first_call(self, fn):
        def wrapper(*args, **kwargs):
            if self.first_replicate is None:
                self.first_replicate = self.clock()
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        cli, samplers = self.dp.cli, self.dp.samplers
        for module, attr, make in ((cli, "run_chain", self._chain_timer),
                                   (samplers, "run_chain", self._chain_timer),
                                   (cli, "simulate_overhead", self._first_call)):
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False


def digest_files(out: Path, strip=None) -> str:
    """SHA-256 over the files of ``out`` in name order; ``strip(name,
    text)`` removes timing fields first."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        text = path.read_text()
        if strip is not None:
            text = strip(path.name, text)
        h.update(path.name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()[:16]


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------


class Workload:
    """A job and the checks of its outputs.

    ``job`` runs the program and times it; ``check`` runs afterwards, with
    tracing off, and fills in the failures, the digest and the output size.
    ``inputs`` is the number of distinct input sets a run cycles through.
    """

    name = ""
    why = ""
    ops_per_job = 1
    inputs = 1

    def prepare(self, workdir: Path) -> None:
        """Write whatever the jobs read; called once per run."""

    def job(self, dp, seed: int, workdir: Path, probe: Probe) -> JobResult:
        raise NotImplementedError

    def check(self, dp, seed: int, workdir: Path, res: JobResult) -> None:
        raise NotImplementedError


def input_seed(seed: int, index: int, inputs: int) -> int:
    """Seed of input set ``index`` of a run at workload seed ``seed``. A
    workload with one input set uses the workload seed itself."""
    if inputs == 1:
        return seed
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0])


class _CliWorkload(Workload):
    """A workload that is one ``dpslice`` command run through ``cli.main``."""

    command = ""
    report_file = ""

    def __init__(self, conf: dict):
        self.conf = conf

    def prepare(self, workdir: Path) -> None:
        (workdir / "config.json").write_text(json.dumps(self.conf))

    def job(self, dp, seed, workdir, probe):
        out = fresh_dir(workdir / "out")
        t0 = probe.clock()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dp.cli.main([self.command, "--config", str(workdir / "config.json"),
                              "--seed", str(seed), "--out", str(out),
                              "--threads", "1"])
        t1 = probe.clock()
        res = JobResult(attempted=self.ops_per_job, failed=0, chains=probe.chains,
                        outputs=rc)
        first = probe.first_replicate if self.command == "verify" else (
            probe.chains[0].start if probe.chains else None)
        if first is not None:
            res.setup_s = first - t0
            res.wall_s = t1 - first
            res.total_s = t1 - t0
        if probe.chains:
            res.postprocess_s = t1 - probe.chains[-1].end
        return res

    def check(self, dp, seed, workdir, res):
        out = workdir / "out"
        path = out / self.report_file
        report = json.loads(path.read_text()) if path.exists() else None
        res.report = report
        res.failures = self.failures(dp, seed, res.outputs, report)
        res.failed = min(len(res.failures), self.ops_per_job)
        res.digest = digest_files(out, _strip_timing)
        res.output_bytes = output_bytes(out)


def _strip_timing(name: str, text: str) -> str:
    """Drop the wall-clock fields of ``dpslice run`` outputs."""
    if name == "trace.csv":
        return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    if name == "summary.json":
        summary = json.loads(text)
        summary.pop("timing", None)
        return json.dumps(summary, sort_keys=True)
    return text


class DeskRun(_CliWorkload):
    """``dpslice run`` with the README configuration (slice, zipf, n=600),
    burn-in and recorded sweeps cut from 1,000 each to 200 each."""

    name = "desk-run-n600"
    why = ("the job users run; the only workload where diagnostics (ESS, "
           "co-clustering, Binder) and cli output files carry weight")
    command = "run"
    report_file = "summary.json"

    def __init__(self, n: int = 600, sweeps: int = 200, inputs: int = 10):
        # the time of one job depends on its data set; cycling through
        # several per run keeps the run's median from following one of them
        super().__init__({"sampler": {"kind": "slice"},
                          "dataset": {"kind": "zipf", "n": n},
                          "iters": sweeps, "burnin": sweeps, "alpha_fixed": None,
                          "time_budget_s": 60})
        self.inputs = inputs

    def failures(self, dp, seed, rc, summary):
        """Exit code 0, a feasible chain, and a Binder estimate closer to the
        truth (by Rand index) than the k-means start the chain began from."""
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if summary is None or summary["infeasible"]:
            return problems + ["chain infeasible or no summary.json"]
        RngStream = dp.randkit.RngStream
        ds = dp.datagen.make_dataset("zipf", RngStream(seed=seed, stream=0),
                                     self.conf["dataset"]["n"])
        init = dp.datagen.kmeans_init(ds.y, RngStream(seed=seed, stream=1), k=5)
        rand_init = dp.core.rand_index(init.labels, ds.labels)
        rand = summary["rand_binder_vs_truth"]
        if not rand > rand_init:
            problems.append(f"Rand(Binder, truth) {rand:.4f} does not beat the "
                            f"k-means start's {rand_init:.4f}")
        return problems


class OracleN6(_CliWorkload):
    """``dpslice oracle`` at n=6 through ``cli.main``: 203 enumerated
    partitions, the four exact chains and blocked Gibbs at L=2 and L=6."""

    name = "oracle-n6"
    why = ("n=6 sweeps are almost pure fixed cost (relabel, Dirichlet, alpha, "
           "log-likelihood); the criterion-1 path")
    command = "oracle"
    report_file = "oracle.json"
    ops_per_job = 6

    def __init__(self, sweeps: int = 5_000, burnin: int = 200):
        super().__init__({"oracle": {"n": 6, "sweeps": sweeps, "burnin": burnin,
                                     "tv_limit": 0.1}})

    def failures(self, dp, seed, rc, report):
        """One per failed row: an exact sampler with TV at or over the
        limit, or blocked Gibbs at L=2 with any mass on H > 2."""
        if report is None or len(report["rows"]) != self.ops_per_job:
            return [f"exit code {rc}, no complete oracle.json"] * self.ops_per_job
        problems = []
        for row in report["rows"]:
            name = row["sampler"] if row["L"] is None else f"bgs-{row['L']}"
            if row["exact_target"] and not row["tv"] < report["tv_limit"]:
                problems.append(f"{name}: TV {row['tv']:.4f} >= {report['tv_limit']}")
            elif row["L"] == 2 and row["truncated_mass_empirical"] != 0.0:
                problems.append(f"{name}: mass {row['truncated_mass_empirical']} on H > 2")
        if not problems and rc != 0:
            problems.append(f"exit code {rc} although every row passed")
        return problems


class VerifyOverhead(_CliWorkload):
    """``dpslice verify`` through ``cli.main`` on its default grid: alpha in
    {0.5, 1, 5}, n in {100, 1000, 10^4}, two deltas, the tail check, the
    merge chain and the Poisson law, at reduced replicate counts."""

    name = "verify-overhead"
    why = ("weights, slices and stick extension once per replicate with n up "
           "to 10^4; the bounds harness, no chains")
    command = "verify"
    report_file = "verify.json"
    # 9 cells x 2 deltas, one tail check, five merges, one Poisson law
    ops_per_job = 9 * 2 + 1 + 5 + 1

    def __init__(self, replicates: int = 1_000, merge_replicates: int = 100_000,
                 poisson_replicates: int = 20_000):
        super().__init__({"verify": {"replicates": replicates,
                                     "merge": {"replicates": merge_replicates},
                                     "poisson": {"replicates": poisson_replicates}}})

    def failures(self, dp, seed, rc, report):
        """One per failed check; ``all_pass`` and the exit code must agree."""
        if report is None:
            return [f"exit code {rc}, no verify.json"] * self.ops_per_job
        checks = verify_checks(report)
        problems = [f"check {i} failed: {json.dumps(c, sort_keys=True)[:160]}"
                    for i, c in enumerate(checks) if not c["passed"]]
        if len(checks) != self.ops_per_job:
            problems.append(f"{len(checks)} checks reported, expected {self.ops_per_job}")
        if report["all_pass"] != (not problems):
            problems.append(f"all_pass is {report['all_pass']}")
        if rc != (0 if report["all_pass"] else 1):
            problems.append(f"exit code {rc} disagrees with all_pass")
        return problems


def verify_checks(report: dict) -> list[dict]:
    """Every pass/fail check of a verify report, in report order."""
    checks = [rec for cell in report["cells"] for rec in cell["overhead"]]
    checks += [cell["tails"] for cell in report["cells"] if cell["tails"]]
    checks += report.get("merge_chain", [])
    if "poisson" in report:
        checks.append(report["poisson"])
    return checks


class SweepsLarge(Workload):
    """One ``run_chain`` per sampler, set up the way the CLI's benchmark
    cell is: three-cluster data, k-means initialisation, stream ids
    10000 + n, 20000 + n and 100 + chain index."""

    name = "sweeps-large"
    why = ("per-observation allocation loops dominate at n=3000 (bgs at "
           "L=n=600); fixed per-sweep cost is a few percent")

    def __init__(self, n: int = 3_000, bgs_n: int = 600, sweeps: dict | None = None):
        sweeps = sweeps or {"slice": 20, "slice-marginal": 15,
                            "crp-atoms": 15, "crp-collapsed": 12, "bgs": 3}
        self.chains = [(kind, bgs_n if kind == "bgs" else n,
                        bgs_n if kind == "bgs" else None, count)
                       for kind, count in sweeps.items()]
        self.ops_per_job = len(self.chains)

    def job(self, dp, seed, workdir, probe):
        RngStream = dp.randkit.RngStream
        t0 = probe.clock()
        data = {}
        for n in sorted({n for _, n, _, _ in self.chains}):
            ds = dp.datagen.make_dataset("three-cluster",
                                         RngStream(seed=seed, stream=10_000 + n), n)
            init = dp.datagen.kmeans_init(ds.y, RngStream(seed=seed, stream=20_000 + n),
                                          k=min(5, n))
            data[n] = (ds, init)
        results = []
        for index, (kind, n, L, sweeps) in enumerate(self.chains):
            ds, init = data[n]
            labels = init.labels
            if L is not None and init.num_blocks > L:
                labels = dp.core.relabel_compact((np.arange(n) % L) + 1).labels
            cfg = dp.core.ModelConfig().resolved_for(n)
            try:
                results.append(dp.samplers.run_chain(
                    ds.y, cfg, RngStream(seed=seed, stream=100 + index), kind,
                    iters=sweeps, burnin=0, init_labels=labels, L=L,
                    time_budget_s=600.0))
            except Exception as exc:  # a raising chain is a failed operation
                results.append(exc)
        t1 = probe.clock()
        res = JobResult(attempted=self.ops_per_job, failed=0, chains=probe.chains,
                        outputs=results)
        if probe.chains:
            res.setup_s = probe.chains[0].start - t0
            res.wall_s = t1 - probe.chains[0].start
            res.total_s = t1 - t0
        return res

    def check(self, dp, seed, workdir, res):
        h = hashlib.sha256()
        for (kind, _, L, _), result in zip(self.chains, res.outputs):
            problems = check_chain(L, result)
            if problems:
                res.failed += 1
                res.failures.extend(f"{kind}: {p}" for p in problems)
                continue
            for rec in result.records:
                h.update(f"{rec.iteration},{rec.k_total},{rec.num_clusters},"
                         f"{rec.loglik!r},{rec.alpha!r}\n".encode())
            h.update(result.final_state.partition.labels.tobytes())
        res.digest = h.hexdigest()[:16]


def check_chain(L: int | None, result) -> list[str]:
    """No exception, feasible, K >= H on every sweep, H <= L for blocked
    Gibbs, and a final state that passes ``MixtureState.validate``."""
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    problems = []
    if result.infeasible:
        problems.append("infeasible")
    if any(r.k_total < r.num_clusters for r in result.records):
        problems.append("K < H on some sweep")
    if L is not None and any(r.num_clusters > L for r in result.records):
        problems.append(f"H > L={L} on some sweep")
    try:
        result.final_state.validate()
    except Exception as exc:
        problems.append(f"final state invalid: {exc}")
    return problems


WORKLOADS = {w.name: w for w in (DeskRun, SweepsLarge, OracleN6, VerifyOverhead)}
