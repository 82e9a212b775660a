"""End to end through the driver: six workloads, bounded failure, and the
refusal to run without a program to measure."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.harness import TMP_DIR, contract_line, run_child
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_each_workload(name):
    result = run_child(name, seed=5, scale=0.02, reps=2, seconds=0.0,
                       trace=False)
    assert "problem" not in result, result
    assert result["correct"], result["checks"]
    assert result["reps"] == 2 and len(result["diagnostics"]["walls_s"]) == 2
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {n: u for n, u, _b, _bound in END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    line = json.loads(contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert not os.path.exists(TMP_DIR)


def test_tiny_traced_run_reports_every_layer_metric():
    result = run_child("counter_write", seed=5, scale=0.02, reps=0,
                       seconds=0.0, trace=True)
    assert result["correct"], result["checks"]
    assert result["checks"]["trace_passive"]
    assert result["checks"]["self_times_telescope"]
    assert list(result["metrics"]) == [n for n, _u, _b in PER_LAYER]
    assert result["metrics"]["switch.mirror.copies"]["value"] > 0
    # Absent layers read 0, not an error.
    assert result["metrics"]["fastpath.hits"]["value"] == 0
    assert result["metrics"]["shard.frames"]["value"] == 0


def test_a_stalled_child_is_killed_and_reported_failed():
    t0 = time.perf_counter()
    result = run_child("flow_churn_shard2", seed=5, scale=1.0, reps=0,
                       seconds=10.0, trace=False, time_limit_s=1.0)
    assert time.perf_counter() - t0 < 10.0
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1
    assert "time limit" in result["problem"]
    # The whole process group went with it (spawned shard workers too).
    out = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True)
    assert "bench child --workload flow_churn_shard2" not in out.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "nat_steady_ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no program to measure" in proc.stderr
