"""Smoke test of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``
(it is not part of the tier-1 suite, whose testpaths is ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, bench_dir: Path = HERE) -> list[dict]:
    """Run the benchmark; returns the JSON result line of each workload."""
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def test_every_workload_passes_and_prints_the_end_to_end_metrics():
    results = _run("--ops", "5")
    assert len(results) == len(workloads.WORKLOADS)
    names = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    for result in results:
        assert result["attempted"] == 5
        assert result["failed"] == 0 and result["correct"]
        assert set(result["metrics"]) == names


def test_traced_run_prints_the_per_layer_metrics():
    results = _run("--ops", "3", "--trace")
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert result["failed"] == 0
        assert set(result["metrics"]) == names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_plan(workload):
    assert workloads.plan(workload, 7, 60) == workloads.plan(workload, 7, 60)
    assert workloads.plan(workload, 7, 60) != workloads.plan(workload, 8, 60)


def test_a_corrupted_golden_entry_is_reported_as_a_failure(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench_copy)
    (tmp_path / "src").symlink_to(ROOT / "src")
    document = json.loads(workloads.GOLDEN_PATH.read_text())
    warmup = workloads.warmup_case("sim-small")
    timed = next(case for case in workloads.plan("sim-small", 1, 3)
                 if case.golden_key != warmup.golden_key)
    document["cases"][timed.golden_key]["output"] = ["corrupted"]
    (bench_copy / "golden.json").write_text(json.dumps(document))

    [result] = _run("--workload", "sim-small", "--seed", "1", "--ops", "3",
                    bench_dir=bench_copy)
    assert result["failed"] == 1
    assert result["correct"] is False
