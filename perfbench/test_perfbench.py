"""Self-tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q

They cover the tail-percentile rule, self-time arithmetic, failure
counting, the metric list against BENCHMARK.json, and on small traced jobs
the coverage of self times and the repeatability of the hardware-independent
counts.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import layers, run
from perfbench.tracer import Profile, Tracer
from perfbench.workloads import (
    DeskRun,
    OracleN6,
    SweepsLarge,
    VerifyOverhead,
    Workload,
    check_chain,
    input_seed,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def dp():
    return run.import_package()


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("n, expected", [
    (19, ("50", 10, 9)),      # too few for any: the median
    (20, ("50", 10, 10)),
    (100, ("90", 90, 10)),
    (999, ("90", 900, 99)),   # p99 would leave only 9 beyond
    (1000, ("99", 990, 10)),
    (10_000, ("99.9", 9990, 10)),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    assert layers.tail_percentile(values) == expected


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        layers.tail_percentile([])


# ---------------------------------------------------------------------------
# self time


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


def _toy_module(clock):
    mod = types.SimpleNamespace()

    def draw(k):
        clock.t += 3
        return k

    def allocate():
        clock.t += 5
        mod.draw(1)
        mod.draw(2)
        clock.t += 1

    def sweep():
        clock.t += 2
        mod.allocate()
        clock.t += 4

    def broken():
        clock.t += 7
        raise RuntimeError("boom")

    mod.draw, mod.allocate, mod.sweep, mod.broken = draw, allocate, sweep, broken
    return mod


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    mod = _toy_module(clock)
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "draw", "randkit.categorical", leaf=True,
                 work=lambda a, k, r: a[0])
    tracer.patch(mod, "allocate", "samplers.allocate")
    tracer.patch(mod, "sweep", "samplers.slice.sweep")
    mod.sweep()
    mod.sweep()
    tracer.unpatch()
    assert mod.sweep.__name__ == "sweep"  # originals restored

    prof = Profile(tracer)
    st = prof.stats
    assert st["samplers.slice.sweep"].total_ns == 2 * 18
    assert st["samplers.slice.sweep"].self_ns == 2 * 6
    assert st["samplers.allocate"].self_ns == 2 * 6
    assert st["randkit.categorical"].self_ns == 2 * 6
    assert st["randkit.categorical"].calls == 4
    assert st["randkit.categorical"].work == 2 * 3
    # self times telescope to the root spans' duration
    assert prof.root_ns == 36
    assert sum(prof.module_self_ns().values()) == prof.root_ns
    assert prof.module_self_ns() == {"samplers": 24, "randkit": 12}
    assert prof.leaf_by_sampler("randkit.categorical") == {"slice": [4, 12, 6]}


def test_span_is_recorded_and_stack_unwound_on_exception():
    clock = FakeClock()
    mod = _toy_module(clock)
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "broken", "core.broken")
    tracer.patch(mod, "draw", "randkit.categorical", leaf=True)
    with pytest.raises(RuntimeError):
        mod.broken()
    mod.draw(0)
    tracer.unpatch()
    prof = Profile(tracer)
    assert prof.stats["core.broken"].total_ns == 7
    # the leaf after the failed span is attributed to the root, not to it
    assert list(tracer.leaves["randkit.categorical"]) == [0]


# ---------------------------------------------------------------------------
# failure counting


def _oracle_report(tvs=(0.02, 0.03, 0.05, 0.04), mass_l2=0.0):
    rows = [{"sampler": s, "L": None, "tv": tv, "exact_target": True,
             "truncated_mass_empirical": None}
            for s, tv in zip(("slice", "slice-marginal", "crp-atoms",
                              "crp-collapsed"), tvs)]
    rows += [{"sampler": "bgs", "L": 2, "tv": 0.3, "exact_target": False,
              "truncated_mass_empirical": mass_l2},
             {"sampler": "bgs", "L": 6, "tv": 0.5, "exact_target": False,
              "truncated_mass_empirical": 0.0}]
    return {"rows": rows, "tv_limit": 0.1}


def test_oracle_failures_are_counted_per_row():
    w = OracleN6()
    assert w.failures(None, 1, 0, _oracle_report()) == []
    assert len(w.failures(None, 1, 1, _oracle_report(tvs=(0.02, 0.1, 0.05, 0.2)))) == 2
    assert len(w.failures(None, 1, 0, _oracle_report(mass_l2=0.001))) == 1
    # every row passed but the command said otherwise
    assert len(w.failures(None, 1, 1, _oracle_report())) == 1
    assert len(w.failures(None, 1, 2, None)) == w.ops_per_job


def _verify_report(failing=(), all_pass=None):
    checks = [{"passed": i not in failing} for i in range(VerifyOverhead.ops_per_job)]
    cells = [{"overhead": checks[2 * c:2 * c + 2], "tails": None} for c in range(9)]
    cells[4]["tails"] = checks[18]
    return {"cells": cells, "merge_chain": checks[19:24], "poisson": checks[24],
            "all_pass": not failing if all_pass is None else all_pass}


def test_verify_failures_are_counted_per_check():
    w = VerifyOverhead()
    assert w.failures(None, 1, 0, _verify_report()) == []
    assert len(w.failures(None, 1, 1, _verify_report(failing=(3, 24)))) == 2
    # a failed check behind an all_pass of true counts, and so does the mismatch
    assert len(w.failures(None, 1, 0, _verify_report(failing=(5,), all_pass=True))) == 2
    assert len(w.failures(None, 1, 2, None)) == w.ops_per_job


def test_desk_run_failures(dp):
    w = DeskRun()
    assert w.failures(dp, 1, 2, None) == ["exit code 2", "chain infeasible or no summary.json"]
    assert len(w.failures(dp, 1, 0, {"infeasible": True})) == 1
    assert len(w.failures(dp, 1, 0, {"infeasible": False, "rand_binder_vs_truth": 0.2})) == 1
    assert w.failures(dp, 1, 0, {"infeasible": False, "rand_binder_vs_truth": 0.99}) == []


def _chain(records, validate=None):
    state = types.SimpleNamespace(validate=validate or (lambda: None))
    return types.SimpleNamespace(records=records, infeasible=False, final_state=state)


def test_chain_checks():
    rec = lambda k, h: types.SimpleNamespace(k_total=k, num_clusters=h)  # noqa: E731
    assert check_chain(None, _chain([rec(5, 3), rec(4, 4)])) == []
    assert check_chain(None, _chain([rec(3, 4)])) == ["K < H on some sweep"]
    assert check_chain(2, _chain([rec(2, 3)])) == ["K < H on some sweep", "H > L=2 on some sweep"]
    assert check_chain(None, RuntimeError("x")) == ["raised RuntimeError: x"]

    def invalid():
        raise ValueError("off simplex")
    assert check_chain(None, _chain([rec(2, 2)], invalid)) == ["final state invalid: off simplex"]


def test_a_raising_job_fails_all_its_operations(dp, tmp_path):
    class Raising(Workload):
        ops_per_job = 4

        def job(self, dp, seed, workdir, probe):
            raise RuntimeError("broken program")

    res = run.run_job(Raising(), dp, 1, tmp_path)
    assert (res.attempted, res.failed, res.timed) == (4, 4, False)
    assert "broken program" in res.failures[0]
    assert dp.cli.run_chain is dp.samplers.run_chain  # the probe is removed


def test_input_seeds():
    assert input_seed(7, 0, 1) == 7
    seeds = {input_seed(s, i, 6) for s in range(20) for i in range(6)}
    assert len(seeds) == 120
    assert input_seed(7, 3, 6) == input_seed(7, 3, 6)


# ---------------------------------------------------------------------------
# the metric list


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: w.why for name, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert {m["name"] for m in BENCHMARK["per_layer"]
            if m["better"] == "higher"} == layers.HIGHER_IS_BETTER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# ---------------------------------------------------------------------------
# small traced jobs


SMALL = [
    SweepsLarge(n=300, bgs_n=60, sweeps={k: 4 for k in layers.SAMPLERS}),
    OracleN6(sweeps=150, burnin=10),
    DeskRun(n=120, sweeps=20, inputs=1),
    VerifyOverhead(replicates=30, merge_replicates=2_000, poisson_replicates=500),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_counts_repeat_and_self_times_cover_the_job(dp, workload, tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    workload.prepare(workdir)
    first, _, _ = run.report_per_layer(workload, dp, 3, workdir, {})
    second, jobs, _ = run.report_per_layer(workload, dp, 3, workdir, {})
    counts = lambda m: {k: m[k] for k in layers.HARDWARE_INDEPENDENT}  # noqa: E731
    assert counts(first) == counts(second)
    untraced, traced = jobs
    assert untraced.digest == traced.digest, "tracing changed the outputs"
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "wall_s")
    assert abs(1.0 - second["trace.coverage"]) <= bound
    assert second["bench.self_ms"] >= 0.0


def test_sweeps_large_counts_what_it_runs(dp, tmp_path):
    w = SMALL[0]
    metrics, jobs, _ = run.report_per_layer(w, dp, 3, tmp_path, {})
    assert all(j.failed == 0 for j in jobs)
    for kind in layers.SAMPLERS:
        assert metrics[f"samplers.{kind}.sweeps"] == 4
    assert metrics["samplers.bgs.candidates_per_obs"] == 60  # every one of L
    assert metrics["samplers.crp-atoms.occupied_share"] == 1.0


# ---------------------------------------------------------------------------
# a checkout without the package


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "oracle-n6", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench-out").exists()
