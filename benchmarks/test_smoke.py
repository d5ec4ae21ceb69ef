"""Smoke test of the benchmark at tiny sizes.

Run from the repository root (it is outside the default ``tests`` path):

    python -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_timed_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                            "--trace", "0"]))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(run(["--workload", "triangles", "--seed", "3", "--seconds", "0.2",
                            "--trace", "1"]))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["core.contains.calls"]["value"] > 0
    assert metrics["core.metric_at.calls"]["value"] == 0
    assert 0.9 <= metrics["trace.accounted_share"]["value"] <= 1.0 + 1e-9


def test_same_seed_same_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    for spec in workloads.IN_PROCESS.values():
        first = list(islice(spec.stream(7), 40))
        again = list(islice(spec.stream(7), 40))
        assert repr(first) == repr(again)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(["--workload", "triangles", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
