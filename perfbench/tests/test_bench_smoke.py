import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import harness
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SECOND_SEED = 2
SCALE = 0.15


def metric_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_reduced(name):
    result, failures = harness.run(name, SECOND_SEED, 0.0, False, time.perf_counter(), SCALE)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == metric_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert failures == [] and result["correct"]


def test_traced_run_reports_every_layer_metric():
    result, failures = harness.run("loop-reverse", SECOND_SEED, 0.0, True, time.perf_counter(), SCALE)
    assert failures == [] and result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == metric_units("per_layer")
    assert result["metrics"]["imu.reintegration_ratio"]["value"] > 1.0
    assert result["metrics"]["estimator.icp_solves"]["value"] > 0


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "loc-nonrigid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
