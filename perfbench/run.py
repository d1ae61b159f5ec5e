"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or any checkout of it). The package is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.

``--trace 0`` repeats the workload's job until ``--seconds`` are spent and
prints the end-to-end metrics (medians over the jobs). ``--trace 1`` runs
the job once untraced and once traced and prints the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process, one after the
other. Outputs and span files go to ``.perfbench-out/``.
"""
from __future__ import annotations

import os

# one thread per process for any BLAS the package touches, as with --threads 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.tracer import Profile, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, JobResult, Probe, input_seed  # noqa: E402

DEFAULT_SEED = 12345
MIN_JOBS = 2
# stop starting jobs once the next one would end past this many seconds
MAX_MEASURE_S = 120.0
IMPORT_SAMPLES = 3
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

IMPORT_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dpslice.cli
elapsed = time.perf_counter() - t
print(elapsed, dpslice.__file__)
"""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package source)."""


def import_package():
    """Import dpslice from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "dpslice" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'dpslice'}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"dpslice.{name}") for name in layers.MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"dpslice imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def import_seconds() -> float:
    """Time ``import dpslice.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"fresh-process import failed: {proc.stderr.strip()}")
    seconds, origin = proc.stdout.split(maxsplit=1)
    if SRC.resolve() not in Path(origin.strip()).resolve().parents:
        raise SetupError(f"fresh process imported dpslice from {origin.strip()}")
    return float(seconds)


# ---------------------------------------------------------------------------
# environment fingerprint


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the machine ran just
    then. Reported beside the metrics, never folded into them."""
    start = time.perf_counter()
    total = 0.0
    for i in range(500_000):
        total += i * 0.5
    return (time.perf_counter() - start) * 1e3


def fingerprint() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "commit": _git_commit(),
            "loadavg_before": list(os.getloadavg()),
            "calibration_ms_before": calibration_ms()}


# ---------------------------------------------------------------------------
# running jobs


def run_job(workload, dp, seed: int, workdir: Path, tracer: Tracer | None = None) -> JobResult:
    """One job, then its checks with tracing off. An exception fails every
    operation of the job."""
    try:
        if tracer is not None:
            layers.install(tracer, dp)
        try:
            with Probe(dp) as probe:
                res = workload.job(dp, seed, workdir, probe)
        finally:
            if tracer is not None:
                tracer.unpatch()
        workload.check(dp, seed, workdir, res)
        return res
    except Exception:
        return JobResult(attempted=workload.ops_per_job, failed=workload.ops_per_job,
                         failures=[traceback.format_exc(limit=4)])


def measure(workload, dp, seed: int, seconds: float, workdir: Path) -> list[JobResult]:
    """Cycle through the workload's input sets, whole cycles only, until the
    next cycle would end past ``seconds``; at least MIN_JOBS jobs."""
    jobs, cycle_times = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for index in range(workload.inputs):
            res = run_job(workload, dp, input_seed(seed, index, workload.inputs), workdir)
            res.input_index = index
            # drop what the metrics do not need, so that the kept results do
            # not grow the process that peak_rss_mb measures
            res.outputs = None
            for chain in res.chains:
                chain.records = []
            jobs.append(res)
        cycle_times.append(time.perf_counter() - t)
        projected = time.perf_counter() - start + statistics.median(cycle_times)
        if projected > MAX_MEASURE_S or (len(jobs) >= MIN_JOBS and projected > seconds):
            return jobs


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def sampler_throughputs(jobs) -> dict:
    """Median over jobs of each sampler's sweeps per second of run_chain
    time, pooled over that job's chains of the sampler."""
    per_kind: dict[str, list[float]] = {}
    for job in jobs:
        pooled: dict[str, list] = {}
        for chain in job.chains:
            entry = pooled.setdefault(chain.kind, [0, 0.0])
            entry[0] += chain.sweeps
            entry[1] += chain.seconds
        for kind, (sweeps, secs) in pooled.items():
            per_kind.setdefault(kind, []).append(sweeps / secs)
    return {kind: statistics.median(v) for kind, v in per_kind.items()}


def output_digest(jobs) -> tuple[str, bool]:
    """One digest over the outputs of each input set, in input order, and
    whether every repeat of an input set gave the same outputs."""
    by_input: dict[int, set] = {}
    for job in jobs:
        by_input.setdefault(job.input_index, set()).add(job.digest)
    first = "".join(min(d) for _, d in sorted(by_input.items()))
    digest = hashlib.sha256(first.encode()).hexdigest()[:16]
    return digest, all(len(d) == 1 for d in by_input.values())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_end_to_end(workload, dp, seed, seconds, workdir, info):
    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    jobs = measure(workload, dp, seed, seconds, workdir)
    timed = [j for j in jobs if j.timed]
    metrics = {
        "setup_s": _median(imports) + _median(j.setup_s for j in timed),
        "wall_s": _median(j.wall_s for j in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    throughputs = sampler_throughputs(timed)
    walls = sorted(j.wall_s for j in timed)
    lines = [
        f"  setup_s      {metrics['setup_s']:.4f} s   (median import "
        f"{_median(imports):.4f} s of {len(imports)} fresh processes + median "
        f"in-process set-up {_median(j.setup_s for j in timed):.4f} s of {len(timed)} jobs)",
        f"  wall_s       {metrics['wall_s']:.4f} s   (median of {len(timed)} jobs; "
        f"range {walls[0]:.4f}-{walls[-1]:.4f})" if walls else "  wall_s       no timed job",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
    ]
    for kind in layers.SAMPLERS:
        if kind in throughputs:
            lines.append(f"  {kind}.sweeps_per_s  {throughputs[kind]:.4f} 1/s   "
                         f"(median over {len(timed)} jobs, whole chains)")
    posts = [j.postprocess_s for j in timed if j.postprocess_s is not None]
    if posts:
        lines.append(f"  postprocess_s  {_median(posts):.4f} s   (median of {len(posts)} jobs)")
    rands = [j.report["rand_binder_vs_truth"] for j in jobs
             if j.report and "rand_binder_vs_truth" in j.report]
    if rands:
        lines.append(f"  rand_binder   median {_median(rands):.4f}, min {min(rands):.4f}; "
                     f"{sum(r >= 0.85 for r in rands)} of {len(rands)} jobs reach the "
                     f"criterion-8 floor 0.85 (reported, not counted as failures)")
    info.update(jobs=len(jobs), import_samples=imports,
                wall_samples=[j.wall_s for j in timed],
                setup_samples=[j.setup_s for j in timed],
                sweeps_per_s=throughputs, postprocess_s=_median(posts, None))
    return metrics, jobs, lines


def report_per_layer(workload, dp, seed, workdir, info):
    seed = input_seed(seed, 0, workload.inputs)
    untraced = run_job(workload, dp, seed, workdir)
    tracer = Tracer()
    traced = run_job(workload, dp, seed, workdir, tracer)
    jobs = [untraced, traced]
    tracer.write_csv(workdir.parent / f"spans-seed{seed}.csv")
    if not (untraced.timed and traced.timed):
        return {name: 0.0 for name in layers.PER_LAYER}, jobs, ["  no timed job"]
    metrics, notes = layers.per_layer_metrics(Profile(tracer), untraced, traced)
    lines = [f"  {name:<44} {_fmt(value):>14} {layers.PER_LAYER[name]}"
             for name, value in metrics.items()]
    lines += [f"  note: {note}" for note in notes]
    lines.append(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s on an "
                 f"untraced wall_s of {untraced.wall_s:.4f} s; module self times "
                 f"cover {metrics['trace.coverage']:.4f} of the traced job")
    same = untraced.digest == traced.digest
    lines.append(f"  tracing left the outputs {'unchanged' if same else 'CHANGED'} "
                 f"(digest {untraced.digest} vs {traced.digest})")
    info["spans"] = len(tracer.spans)
    return metrics, jobs, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    dp = import_package()
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "fingerprint": fingerprint()}
    workdir = OUT / name / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(workdir)
    if trace:
        metrics, jobs, lines = report_per_layer(workload, dp, seed, workdir, info)
    else:
        metrics, jobs, lines = report_end_to_end(workload, dp, seed, seconds, workdir, info)
    info["fingerprint"]["loadavg_after"] = list(os.getloadavg())
    info["fingerprint"]["calibration_ms_after"] = calibration_ms()
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    failures = [f for j in jobs for f in j.failures]
    digest, repeats_agree = output_digest(jobs)
    info.update(digest=digest, repeats_agree=repeats_agree, failures=failures,
                metrics=metrics)

    print(f"workload {name} seed {seed} trace {int(trace)}: {len(jobs)} jobs")
    for line in lines:
        print(line)
    print(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.4f}   "
          f"(operations: chains, verify checks or oracle rows)")
    for failure in failures[:10]:
        print(f"  FAILED: {failure.strip()}")
    print(f"  output digest {digest} over {workload.inputs} input set(s); repeated "
          f"jobs {'gave identical outputs' if repeats_agree else 'DIFFERED'}")
    print(f"  fingerprint {json.dumps(info['fingerprint'], sort_keys=True)}")
    result_path = OUT / name / f"result-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(info, indent=2, sort_keys=True, default=str) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": (layers.PER_LAYER if trace else END_TO_END)[k]}
                        for k, v in metrics.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; metrics keyed workload/metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
