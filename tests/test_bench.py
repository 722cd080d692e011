"""Benchmark-harness tests: git stamping, result merging, wall clock.

The git-revision stamp must *degrade*, never crash: ``force bench``
run from a tarball install (no git, no checkout) records
``git_revision: null`` with a warning and keeps benchmarking.
"""

import json
import subprocess
from pathlib import Path

from repro import bench


class TestGitRevision:
    def test_stamps_current_checkout(self):
        revision = bench.git_revision()
        expected = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(bench.__file__).resolve().parents[2],
            capture_output=True, text=True).stdout.strip()
        assert revision == expected
        assert revision     # non-empty in this checkout

    def test_degrades_outside_a_repo(self, tmp_path, capsys):
        revision = bench.git_revision(root=tmp_path)
        assert revision is None
        captured = capsys.readouterr()
        assert "git_revision: null" in captured.err
        assert "warning" in captured.err

    def test_degrades_when_git_is_missing(self, monkeypatch, capsys):
        def no_git(*args, **kwargs):
            raise OSError("No such file or directory: 'git'")

        monkeypatch.setattr(bench.subprocess, "run", no_git)
        assert bench.git_revision() is None
        assert "git_revision: null" in capsys.readouterr().err

    def test_degrades_on_git_timeout(self, monkeypatch, capsys):
        def hangs(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, 10)

        monkeypatch.setattr(bench.subprocess, "run", hangs)
        assert bench.git_revision() is None
        assert "git_revision: null" in capsys.readouterr().err

    def test_entry_records_null_not_crash(self, monkeypatch):
        monkeypatch.setattr(bench, "git_revision", lambda root=None: None)
        entry = bench.make_entry("probe")
        assert entry["git_revision"] is None
        # and a JSON round trip keeps the null
        assert json.loads(json.dumps(entry))["git_revision"] is None

    def test_entry_uses_explicit_revision(self):
        entry = bench.make_entry("probe", revision="abc1234")
        assert entry["git_revision"] == "abc1234"


class TestMergeResults:
    def test_merge_overwrites_by_name(self, tmp_path):
        path = tmp_path / "results.json"
        bench.merge_results(path, [bench.make_entry(
            "a", revision="r1"), bench.make_entry("b", revision="r1")])
        bench.merge_results(path, [bench.make_entry("a", revision="r2")])
        doc = json.loads(path.read_text())
        by_name = {e["name"]: e for e in doc["results"]}
        assert by_name["a"]["git_revision"] == "r2"
        assert by_name["b"]["git_revision"] == "r1"

    def test_corrupt_history_never_blocks(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{not json")
        bench.merge_results(path, [bench.make_entry("a", revision="r")])
        doc = json.loads(path.read_text())
        assert [e["name"] for e in doc["results"]] == ["a"]


class TestWallSpeedup:
    def test_suite_includes_wall_speedup(self):
        assert "bench_wall_speedup" in dict(bench.SUITE)

    def test_quick_entry_shape(self):
        outcome = bench.bench_wall_speedup(True)
        assert outcome["params"]["backend"] == "process"
        assert outcome["params"]["cpu_count"] >= 1
        data = outcome["data"]
        assert data["wall_1"] > 0 and data["wall_4"] > 0
        assert data["wall_speedup"] > 0
        # honestly derived, not asserted >= 1: a single-CPU host
        # legitimately reports < 1.0 and cpu_count explains why
        assert data["wall_speedup"] == round(
            data["wall_1"] / data["wall_4"], 2)

    def test_report_renders_wall_speedup_line(self):
        report = {
            "quick": True, "git_revision": None, "output": "x.json",
            "fallbacks": {},
            "results": [
                {"name": "bench_codegen_throughput",
                 "data": {"kind": "micro-kernel", "tiers": {
                     "interp": {"stmt_per_s": 10,
                                "speedup_vs_interp": 1.0},
                     "source": {"stmt_per_s": 900,
                                "speedup_vs_interp": 90.0}},
                     "kernelized_doalls": 2,
                     "codegen_fell_back": False,
                     "corpus_fallbacks": {}}},
                {"name": "bench_selfsched_dispatch",
                 "data": {"policies": {
                     "self": {"chunks": 64}, "chunked16": {"chunks": 4},
                     "guided": {"chunks": 8}},
                     "lock_acquisition_ratio_chunk16": 16.0}},
                {"name": "bench_sum_critical_sim",
                 "data": {"self": {"lock_acquisitions": 9,
                                   "makespan": 100},
                          "chunked16": {"lock_acquisitions": 3,
                                        "makespan": 50}}},
                {"name": "bench_askfor_tree", "wall_s": 0.01,
                 "params": {"nproc": 4}},
                {"name": "bench_wall_speedup",
                 "params": {"n": 96, "cpu_count": 1},
                 "data": {"wall_speedup": 0.8}},
                {"name": "bench_analyzer_throughput",
                 "data": {"statements_per_s": 5000, "doalls": 4,
                          "kernel_eligible_doalls": 3}},
                {"name": "bench_trace_overhead",
                 "data": {"sim_trace": {"min_ratio": 1.0},
                          "native_metrics": {"min_ratio": 1.01},
                          "native_trace": {"min_ratio": 1.02}}},
                {"name": "bench_checkpoint_overhead",
                 "data": {"idle": {"min_ratio": 0.99},
                          "every_barrier": {"min_ratio": 9.5},
                          "snapshot_bytes": 196971,
                          "snapshots_per_run": 17}},
                {"name": "bench_tune_quality",
                 "data": {"recommended": "blocked",
                          "measured_best": "blocked",
                          "agreement": True, "regret": 1.0}},
            ],
        }
        text = bench.render_bench_report(report)
        codegen_lines = [line for line in text.splitlines()
                         if line.startswith("codegen micro-kernel")]
        assert len(codegen_lines) == 1, text
        assert "2 DOALL(s) vectorized" in codegen_lines[0]
        assert "source 900 (90.0x)" in codegen_lines[0]
        assert "no tree-walker fallbacks" in codegen_lines[0]
        assert "FELL BACK" not in text
        assert "FALLBACKS" not in text
        assert "wall_speedup" in text
        assert "0.80x" in text
        assert "1 CPU(s)" in text
        assert "3/4 corpus DOALLs proven race-free" in text
        assert "checkpoint overhead: idle 0.99x" in text
        assert "196971 B/snapshot" in text
        assert "trace overhead" in text
        assert "recommended blocked" in text
        assert "agree" in text


class TestObservabilityEntries:
    def test_suite_includes_new_entries(self):
        names = dict(bench.SUITE)
        assert "bench_trace_overhead" in names
        assert "bench_tune_quality" in names


class TestCodegenThroughput:
    def test_suite_includes_codegen_entry(self):
        assert "bench_codegen_throughput" in dict(bench.SUITE)

    def test_quick_entry_shape(self):
        outcome = bench.bench_codegen_throughput(True)
        data = outcome["data"]
        assert data["kind"] == "micro-kernel"
        assert set(data["tiers"]) == {"interp", "source"}
        # the perf gate CI greps for: no fallback
        assert data["codegen_fell_back"] is False
        # the example corpus runs generated code throughout
        assert data["corpus_fallbacks"] == {}

    def test_jacobi_records_kernelized_doalls(self):
        data = bench.bench_codegen_throughput(True)["data"]
        # both Jacobi sweeps lowered to kernels
        assert data["kernelized_doalls"] == 2
        # warm source tier beats the tree-walker by a wide margin even
        # on the quick kernel (acceptance asks for 50x on the full one)
        assert data["tiers"]["source"]["speedup_vs_interp"] > 10

    def test_tune_quality_quick_shape(self):
        outcome = bench.bench_tune_quality(True)
        data = outcome["data"]
        assert data["recommended"] in ("cyclic", "blocked", "self")
        assert data["measured_best"] in data["measured_makespans"]
        assert data["regret"] >= 1.0
        assert data["agreement"] == \
            (data["recommended"] == data["measured_best"])
