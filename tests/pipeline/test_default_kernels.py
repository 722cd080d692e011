"""Analyzer-proven DOALL kernels on every default ``force run``.

On the source-codegen tier ``force_run`` computes the program's facts
in-process (one analysis per distinct Force source) and lowers the
DOALLs they prove race-free to numpy kernels.  The kernels replay the
generic loop's cost events, so a default run must be indistinguishable
from the tree-walking oracle: same output, makespan and lock
statistics, on every machine and process count.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro.analysis.facts as analysis_facts
import repro.pipeline.run as pipeline_run
from repro.core import programs
from repro.m4 import MacroError
from repro.machines import get_machine
from repro.machines.catalog import MACHINES
from repro.pipeline.compile import force_translate
from repro.pipeline.run import force_run, program_facts

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"

#: the paper's six simulated machines (python-host runs natively)
SIM_MACHINES = [key for key in MACHINES if key != "python-host"]

#: corpus programs with a confirmed race (``force check`` exits 1)
RACY = {"racy_stencil.frc", "helper_race.frc", "missing_barrier.frc",
        "priv_temp.frc", "twin_writers.frc"}

CORPUS = sorted([*EXAMPLES.glob("*.frc"),
                 *(EXAMPLES / "adversarial").glob("*.frc")])
RUNNABLE = [path for path in CORPUS if path.name != "racy_stencil.frc"]


def lock_stats(result):
    stats = result.stats
    return (stats.lock_acquisitions, stats.contended_acquisitions,
            stats.spin_cycles, stats.context_switches)


@pytest.fixture()
def facts_table(monkeypatch):
    """An empty in-process facts table, restored after the test."""
    table: dict = {}
    monkeypatch.setattr(pipeline_run, "_FACTS", table)
    return table


@pytest.fixture()
def analysed(monkeypatch):
    """Every source the in-process analysis is run on, in order."""
    sources: list[str] = []
    real = analysis_facts.source_facts

    def counting(source, *args, **kwargs):
        sources.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(analysis_facts, "source_facts", counting)
    return sources


class TestDifferentialSweep:
    @pytest.mark.parametrize("path", RUNNABLE, ids=lambda p: p.name)
    def test_default_run_matches_the_oracle(self, path):
        source = path.read_text(encoding="utf-8")
        racy = path.name in RACY
        for key in SIM_MACHINES:
            translation = force_translate(source, get_machine(key))
            for nproc in range(1, 5):
                oracle = force_run(translation, nproc, codegen="interp")
                default = force_run(translation, nproc)
                where = f"{path.name} on {key} with nproc {nproc}"
                assert default.output == oracle.output, where
                assert default.makespan == oracle.makespan, where
                assert lock_stats(default) == lock_stats(oracle), where
                assert default.stats.per_process_clock == \
                    oracle.stats.per_process_clock, where
                if racy:
                    assert default.kernelized_doalls == {}, where
                if path.name == "jacobi.frc":
                    assert default.kernelized_doalls == \
                        {"JACOBI": [10, 20]}, where

    def test_racy_stencil_still_fails_to_translate(self):
        source = (EXAMPLES / "racy_stencil.frc").read_text()
        for key in SIM_MACHINES:
            with pytest.raises(MacroError, match="unbalanced quotes"):
                force_translate(source, get_machine(key))
        # its facts, computed from the source alone, prove nothing
        doalls = program_facts(source)["files"][0]["doalls"]
        assert doalls and not any(d["race_free"] for d in doalls)

    def test_refusals_are_reported(self):
        for sample, expected in (
                ("lu_decomposition",
                 {"LUDEC": {10: "body not a run of assignments"}}),
                ("matrix_scale",
                 {"MSCALE": {20: "target not a 1-D element"}})):
            translation = force_translate(programs.render(sample),
                                          get_machine("sequent-balance"))
            result = force_run(translation, 2)
            assert result.kernelized_doalls == {}
            assert result.kernel_refused == expected


class TestFactsTable:
    def _jacobi(self, key="sequent-balance"):
        return force_translate(programs.render("jacobi", n=16),
                               get_machine(key))

    def test_one_analysis_per_source(self, facts_table, analysed):
        for key in ("sequent-balance", "hep", "cray-2"):
            for nproc in (1, 3):
                result = force_run(self._jacobi(key), nproc)
                assert result.kernelized_doalls == {"JACOBI": [10, 20]}
        assert len(analysed) == 1 and len(facts_table) == 1

    def test_explicit_facts_override(self, facts_table, analysed):
        translation = self._jacobi()
        nothing = force_run(translation, 3, facts={})
        assert nothing.kernel_eligible == {}
        assert nothing.kernelized_doalls == {}
        doc = {"version": 1, "files": [{"doalls": [
            {"routine": "JACOBI", "label": 10, "race_free": True}]}]}
        one = force_run(translation, 3, facts=doc)
        assert one.kernelized_doalls == {"JACOBI": [10]}
        assert analysed == [] and facts_table == {}
        oracle = force_run(translation, 3, codegen="interp")
        for result in (nothing, one):
            assert result.output == oracle.output
            assert result.makespan == oracle.makespan
            assert lock_stats(result) == lock_stats(oracle)

    def test_other_tiers_never_analyse(self, facts_table, analysed):
        translation = self._jacobi()
        for codegen in ("interp", "closure"):
            force_run(translation, 2, codegen=codegen)
        force_run(translation, 2, compiled=False)
        from repro.pipeline.native import native_run
        native = force_translate(programs.render("jacobi", n=16),
                                 get_machine("python-host"))
        native_run(native, 2, backend="thread", deadline=60)
        assert analysed == [] and facts_table == {}

    def test_failing_analysis_proves_nothing(self, facts_table,
                                             monkeypatch):
        def broken(source, *args, **kwargs):
            raise RuntimeError("analysis bug")

        monkeypatch.setattr(analysis_facts, "source_facts", broken)
        translation = self._jacobi()
        result = force_run(translation, 3)
        assert result.kernelized_doalls == {}
        assert list(facts_table.values()) == [{}]
        oracle = force_run(translation, 3, codegen="interp")
        assert result.output == oracle.output
        assert result.makespan == oracle.makespan

    def test_source_without_routines_proves_nothing(self):
        assert analysis_facts.source_facts("      END\n") == {}

    def test_table_is_bounded(self, facts_table, analysed, monkeypatch):
        monkeypatch.setattr(pipeline_run, "_MAX_FACTS", 1)
        first = force_run(self._jacobi(), 2)
        other = force_translate(programs.render("jacobi", n=24),
                                get_machine("sequent-balance"))
        force_run(other, 2)
        again = force_run(other, 2)
        assert len(facts_table) == 1
        # the source past the bound is analysed on every run
        assert len(analysed) == 3
        assert again.kernelized_doalls == first.kernelized_doalls

    def test_import_builds_and_loads_nothing(self):
        probe = ("import sys, repro.pipeline.run as run; "
                 "assert run._FACTS == {}; "
                 "assert not [m for m in sys.modules "
                 "if m.startswith('repro.analysis')]")
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={"PYTHONPATH": str(REPO / "src")})
