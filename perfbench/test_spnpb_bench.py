"""Tests of the benchmark itself: smoke runs of the command, and determinism.

The smoke runs use ``--smoke`` (a few epochs and ticks) so the harness is
exercised on every test run and cannot rot unnoticed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spnpb_bench
from spnpb import experiments, simulator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(cwd, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spnpb_bench.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = run_command(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == spnpb_bench.WORKLOADS


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(tmp_path, "train-grid", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_gives_identical_inputs_and_quality():
    sizes = spnpb_bench.SMOKE
    assert (spnpb_bench.set_up(3, sizes).fingerprint()
            == spnpb_bench.set_up(3, sizes).fingerprint())
    a = spnpb_bench.run_gated("control-ramp", 3, 0.0, sizes)
    b = spnpb_bench.run_gated("control-ramp", 3, 0.0, sizes)
    assert a.correct and b.correct
    for name in ("heldout_nll", "tracking_rmse", "replay_nll"):
        assert a.metrics[name] == b.metrics[name]
    # the hooks are gone once the run returns
    assert experiments.sim_step is simulator.sim_step
    assert experiments.Controller.__name__ == "Controller"


def test_different_seed_changes_the_inputs():
    sizes = spnpb_bench.SMOKE
    one = spnpb_bench.set_up(1, sizes)
    two = spnpb_bench.set_up(2, sizes)
    assert one.fingerprint() != two.fingerprint()
    assert spnpb_bench.control_seed(1, 0) != spnpb_bench.control_seed(2, 0)
    assert spnpb_bench.adapt_seed(1, 0) != spnpb_bench.adapt_seed(2, 0)
