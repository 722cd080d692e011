"""The per-process library snapshot behind ``build_processor``.

Each translation expands its program on a clone of one loaded and
validated engine per machine-dependent definition set.  These tests pin
that no translation can see another's writes, that a cold table is
filled once under concurrency, and that a clone starts from exactly the
state a freshly loaded engine would have.

``force_translate`` keeps its own table of finished expansions in front
of this one; every test here runs with that table empty and unfillable,
so each translation really reaches ``build_processor``.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.pipeline.compile as pipeline_compile
from repro.core import HEP, MACHINES, SEQUENT_BALANCE, programs
from repro.m4 import M4Processor
from repro.macros import build_processor, loader
from repro.pipeline import force_translate

# Writes every kind of engine state a program can reach: definitions,
# definition stacks, the current diversion, a diversion buffer and the
# quote characters.
POLLUTION = ("define(`mi_lock', `HACKED')"
             "pushdef(`force_environment', `SHADOWED')"
             "undefine(`barrier_begin')"
             "define(`brand_new', `NEW')"
             "divert(4)stale text`'divert(1)"
             "changequote([, ])")


def _fresh(machine) -> M4Processor:
    """The engine build_processor would return with no table at all."""
    return loader._load_library(machine, loader.machdep_definitions(machine),
                                loader.machindep_definitions())


@pytest.fixture(autouse=True)
def no_expansions(monkeypatch):
    """An empty expansion table that keeps nothing, restored after."""
    monkeypatch.setattr(pipeline_compile, "_EXPANSIONS", {})
    monkeypatch.setattr(pipeline_compile, "_MAX_EXPANSIONS", 0)


@pytest.fixture()
def cold_table(monkeypatch):
    """An empty snapshot table, restored after the test."""
    table: dict = {}
    monkeypatch.setattr(loader, "_LIBRARY_STATES", table)
    return table


@pytest.fixture()
def library_loads(monkeypatch):
    """Machine keys of every full two-layer library load, in order."""
    loads: list[str] = []
    real_load = loader._load_library

    def counting_load(machine, *texts):
        loads.append(machine.key)
        return real_load(machine, *texts)

    monkeypatch.setattr(loader, "_load_library", counting_load)
    return loads


class TestIsolation:
    @pytest.mark.parametrize("key", list(MACHINES))
    def test_clone_state_equals_a_fresh_load(self, key):
        machine = MACHINES[key]
        m4, fresh = build_processor(machine), _fresh(machine)
        assert m4._macros == fresh._macros
        assert (m4._open, m4._close) == (fresh._open, fresh._close)
        assert m4._diversions == fresh._diversions
        assert m4._current_diversion == fresh._current_diversion

    def test_polluted_engine_leaves_next_translation_identical(self):
        source = programs.render("sum_critical")
        reference = force_translate(source, SEQUENT_BALANCE).fortran
        polluted = build_processor(SEQUENT_BALANCE)
        polluted.process(POLLUTION)
        assert polluted.process("brand_new") == ""   # diverted to 1
        assert force_translate(source, SEQUENT_BALANCE).fortran == reference
        clean = build_processor(SEQUENT_BALANCE)
        assert clean.process("brand_new [x] divnum undivert(4)") == \
            "brand_new [x] 0 "

    def test_polluting_program_leaves_next_translation_identical(self):
        source = programs.render("dot_product")
        reference = force_translate(source, HEP).fortran
        polluting = ("define(`mi_lock', `HACKED')dnl\n"
                     "pushdef(`mi_unlock', `SHADOWED')dnl\n"
                     "divert(5)stale text\ndivert(0)dnl\n" + source)
        dirty = force_translate(polluting, HEP).fortran
        assert "HACKED" in dirty and "SHADOWED" in dirty
        assert force_translate(source, HEP).fortran == reference

    def test_dispatch_defines_stay_in_their_translation(self):
        source = programs.render("subroutine_call")
        reference = force_translate(source, SEQUENT_BALANCE).fortran
        chunked = force_translate(source, SEQUENT_BALANCE, sched="chunked",
                                  chunk=4).fortran
        assert chunked != reference
        assert force_translate(source, SEQUENT_BALANCE).fortran == reference


class TestTable:
    def test_snapshot_is_never_handed_out(self):
        first, second = build_processor(HEP), build_processor(HEP)
        assert first is not second
        snapshots = list(loader._LIBRARY_STATES.values())
        assert all(first is not s and second is not s for s in snapshots)

    def test_one_entry_per_definition_set(self, cold_table, library_loads):
        for _ in range(2):
            for sched, chunk in ((None, None), ("chunked", 4),
                                 ("guided", None)):
                force_translate(programs.render("sum_critical"), HEP,
                                sched=sched, chunk=chunk)
        # the policy variants are layered on the one full library load
        assert library_loads == [HEP.key] and len(cold_table) == 3

    def test_table_is_bounded(self, cold_table, monkeypatch):
        monkeypatch.setattr(loader, "_MAX_LIBRARY_STATES", 2)
        source = programs.render("sum_critical")
        outputs = {chunk: force_translate(source, HEP, sched="chunked",
                                          chunk=chunk).fortran
                   for chunk in (2, 3, 4)}
        assert len(cold_table) == 2
        assert force_translate(source, HEP, sched="chunked",
                               chunk=4).fortran == outputs[4]

    def test_filled_by_the_first_translation(self, cold_table):
        build_processor(HEP)
        assert list(cold_table) == [(loader.machdep_definitions(HEP),
                                     loader.machindep_definitions(), None)]

    def test_import_builds_nothing(self):
        probe = ("import repro.core, repro.pipeline\n"
                 "from repro.macros import loader\n"
                 "assert loader._LIBRARY_STATES == {}\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_concurrent_cold_fill_builds_once(self, cold_table,
                                              library_loads):
        source = programs.render("askfor_tree")
        start = threading.Barrier(8)
        results: list[str] = []
        errors: list[Exception] = []

        def translate():
            try:
                start.wait(timeout=30)
                results.append(force_translate(source, SEQUENT_BALANCE)
                               .fortran)
            except Exception as exc:   # surfaced by the asserts below
                errors.append(exc)

        threads = [threading.Thread(target=translate) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)    # interleave the fills finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 and len(set(results)) == 1
        assert library_loads == [SEQUENT_BALANCE.key]
        assert results[0] == force_translate(source, SEQUENT_BALANCE).fortran
