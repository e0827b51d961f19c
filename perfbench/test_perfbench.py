"""Tests of the benchmark's output, not of gnla's speed.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload once with and once without tracing, at the shortest
length (two rounds, or one per process when traced): about two minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that read 0 on a healthy run of every workload
ZERO_WHEN_HEALTHY = {"cli.main.nonzero_exits"}


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def check_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(results, workload):
    result = results[workload, 0]
    check_metrics(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(results, workload):
    check_metrics(results[workload, 1], SPEC["per_layer"])
    assert results[workload, 1]["metrics"]["trace.coverage"]["value"] > 0


def test_every_layer_metric_is_exercised(results):
    seen = {name for (_, trace), result in results.items() if trace
            for name, metric in result["metrics"].items() if metric["value"] != 0}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names - seen == ZERO_WHEN_HEALTHY


def test_layer_map_covers_per_layer():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as fh:
        layer_map = json.load(fh)
    assert set(layer_map["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"train.samples_per_s"}
    for moves in layer_map["per_layer"].values():
        for move in moves:
            assert move["metric"] in end_to_end and move["workload"] in WORKLOADS


def test_fails_without_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
