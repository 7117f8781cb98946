"""Tests of the benchmark's own helpers, plus a tiny smoke run of each workload.

Run from the repository root with: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import LAYER_METRICS, outer_time, self_times
from speed import REFERENCE_S
from stats import tail_latency
from workloads import Certify, Cli, Instance, Reduce, _kernel_cmd, _split_cmd

ROOT = Path(run.__file__).resolve().parent.parent


# -- the ">= 10 samples beyond" percentile rule -------------------------------


def test_tail_needs_more_than_ten_samples():
    assert tail_latency(range(10)) is None
    assert tail_latency([5.0] * 11) == (5.0, 100 / 11, 11)


def test_tail_leaves_exactly_ten_samples_beyond():
    value, percentile, count = tail_latency(list(reversed(range(100))))
    assert (value, percentile, count) == (89, 90.0, 100)
    value, percentile, count = tail_latency(range(25))
    assert value == 14 and count == 25
    assert sum(1 for x in range(25) if x > value) == 10


def test_timed_phase_length_depends_only_on_seconds():
    # ceil(11 / 3) cycles give the tail its 11 samples even for a tiny run
    assert run.cycles_for(Reduce(), 0) == 4
    assert run.cycles_for(Reduce(), 10 * Reduce().nominal_cycle_s) == 10


def test_speed_factor_scales_to_the_reference_probe_time():
    speed = run.SpeedLog()
    speed.samples = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert speed.factor() == 0.5


# -- self time from nested spans ----------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 8.0, 0, 0),
        ("e", 6.0, 9.0, 0, 0),  # overlaps d: the union is counted, not the sum
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.0, 2.0, 1.0, 3.0, 3.0]


def test_outer_time_counts_recursion_once():
    spans = [
        ("f", 0.0, 4.0, -1, 0),
        ("g", 0.5, 3.5, 0, 0),
        ("f", 1.0, 3.0, 1, 0),
        ("f", 5.0, 6.0, -1, 1),
    ]
    assert outer_time(spans, "f") == 5.0
    assert outer_time(spans, "g") == 3.0


# -- digest checks --------------------------------------------------------------


class Echo:
    """A workload whose output is its payload and whose check always passes."""

    name = "echo"

    def call(self, inst, ctx):
        return inst.payload[0]

    def outcome(self, output):
        return output, True


def test_digest_mismatch_counts_as_failure():
    good, bad = b"answer", b"other answer"
    session = run.Session(Echo(), [run.digest(good), run.digest(good)])
    assert session.run_op(Instance("x", (good,)), 0, 0)[1]
    assert not session.run_op(Instance("x", (bad,)), 1, 1)[1]
    assert (session.attempted, session.failed) == (2, 1)
    assert "digest mismatch" in session.errors[0]


def test_unrecorded_instance_falls_back_to_exact_checks():
    session = run.Session(Echo(), [])
    assert session.run_op(Instance("x", (b"a",)), 0, 0)[1]
    # the same instance must give the same bytes within a run
    assert not session.run_op(Instance("x", (b"b",)), 0, 0)[1]
    assert session.failed == 1


# -- smoke runs of each workload at tiny sizes -----------------------------------

TINY = [
    Reduce(sizes=(5, 6), trace_cycles=1),
    Certify(sizes=(5, 6), trace_cycles=1),
    Cli(mix=(_kernel_cmd, _split_cmd), trace_cycles=1, kmin="split", kmax="kernel-k12"),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_smoke_timed_run(workload):
    session = run.Session(workload, [])
    run.warm_up(session, workload, seed=3)
    samples = run.timed_run(session, workload, seed=3, seconds=0, speed=run.SpeedLog())
    assert len(samples) > 10 and len(samples) % workload.cycle == 0
    assert all(ok for *_, ok in samples)
    assert session.failed == 0


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_smoke_traced_counts_repeat(workload):
    runs = []
    for _ in range(2):
        session = run.Session(workload, [])
        values, _ = run.traced(session, workload, seed=3, import_s=0.1)
        assert session.failed == 0
        runs.append(values)
    assert set(runs[0]) == {name for name, _, _ in LAYER_METRICS}
    counts = [name for name, unit, _ in LAYER_METRICS if unit in ("count", "bits")]
    assert {n: runs[0][n] for n in counts} == {n: runs[1][n] for n in counts}
    assert runs[0]["kernels.poly_mul.calls"] > 0


# -- the contract around the command ---------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == {"reduce", "certify", "cli"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
