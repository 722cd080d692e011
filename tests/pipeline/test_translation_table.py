"""The per-process expansion table behind ``force_translate``.

A translation is a pure function of the program text, the machine's
definition text, the machine-independent library and the dispatch
defines, so ``force_translate`` expands each distinct combination once
and serves repeats from a table keyed by a digest of all four.  These
tests pin that every key input forces a miss, that a hit still hands
each caller its own result, that failures are never stored, that the
table is bounded and lazily filled, and that a cold concurrent fill is
harmless.
"""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.pipeline.compile as pipeline_compile
from repro.core import HEP, SEQUENT_BALANCE, programs
from repro.m4 import MacroError
from repro.macros.machdep import MACHDEP_MODULES
from repro.pipeline import force_translate

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture()
def table(monkeypatch):
    """An empty expansion table, restored after the test."""
    entries: dict = {}
    monkeypatch.setattr(pipeline_compile, "_EXPANSIONS", entries)
    return entries


@pytest.fixture()
def expansions(monkeypatch):
    """Program texts handed to the sed stage, i.e. one per table miss."""
    seen: list[str] = []
    real_sed = pipeline_compile.translate_force_source

    def counting_sed(source):
        seen.append(source)
        return real_sed(source)

    monkeypatch.setattr(pipeline_compile, "translate_force_source",
                        counting_sed)
    return seen


class TestKey:
    def test_repeat_is_a_hit(self, table, expansions):
        source = programs.render("sum_critical")
        first = force_translate(source, HEP)
        second = force_translate(source, HEP)
        assert len(expansions) == 1 and len(table) == 1
        assert second.fortran == first.fortran
        assert second.sed_output == first.sed_output
        assert second.force_source is source

    def test_program_text_is_in_the_key(self, table, expansions):
        source = programs.render("sum_critical")
        edited = "C     an edited comment\n" + source
        plain = force_translate(source, HEP).fortran
        changed = force_translate(edited, HEP).fortran
        assert expansions == [source, edited] and len(table) == 2
        assert "an edited comment" in changed
        assert "an edited comment" not in plain

    def test_machine_definitions_are_in_the_key(self, table, expansions,
                                                monkeypatch):
        source = programs.render("dot_product")
        hep = force_translate(source, HEP).fortran
        # a port whose definition text changes must not see the old
        # expansion, although the machine key is the same
        monkeypatch.setitem(MACHDEP_MODULES, HEP.key,
                            MACHDEP_MODULES[SEQUENT_BALANCE.key])
        swapped = force_translate(source, HEP).fortran
        assert len(expansions) == 2 and len(table) == 2
        assert swapped != hep
        assert swapped == force_translate(source, SEQUENT_BALANCE).fortran

    def test_dispatch_defines_are_in_the_key(self, table, expansions):
        source = programs.render("subroutine_call")
        outputs = {
            (sched, chunk): force_translate(source, SEQUENT_BALANCE,
                                            sched=sched,
                                            chunk=chunk).fortran
            for sched, chunk in ((None, None), ("chunked", 4),
                                 ("guided", None), ("chunked", 2))}
        assert len(expansions) == 4 and len(table) == 4
        assert len(set(outputs.values())) == 4
        # a bare --chunk 4 means chunked 4: the same defines, one entry
        bare = force_translate(source, SEQUENT_BALANCE, chunk=4).fortran
        assert bare == outputs[("chunked", 4)]
        assert len(expansions) == 4


class TestResults:
    def test_replaced_machine_gets_its_own_model(self, table, expansions):
        source = programs.render("sum_critical")
        slower = dataclasses.replace(
            HEP, costs=dataclasses.replace(HEP.costs, lock_acquire=99))
        plain = force_translate(source, HEP)
        replaced = force_translate(source, slower)
        assert len(expansions) == 1
        assert plain.machine is HEP and replaced.machine is slower
        assert replaced.fortran == plain.fortran

    def test_directive_list_is_private(self, table):
        source = programs.render("dot_product")
        first = force_translate(source, HEP)
        assert first.shared_directives
        expected = list(first.shared_directives)
        first.shared_directives.append("BOGUS")
        first.shared_directives.pop(0)
        second = force_translate(source, HEP)
        assert second.shared_directives == expected
        assert second.shared_directives is not first.shared_directives

    def test_failure_is_never_stored(self, table, expansions):
        source = (EXAMPLES / "racy_stencil.frc").read_text()
        messages = []
        for _ in range(3):
            with pytest.raises(MacroError) as info:
                force_translate(source, SEQUENT_BALANCE)
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert len(expansions) == 3 and table == {}


class TestTable:
    def test_table_is_bounded(self, table, monkeypatch):
        monkeypatch.setattr(pipeline_compile, "_MAX_EXPANSIONS", 2)
        source = programs.render("sum_critical")
        outputs = {chunk: force_translate(source, HEP, sched="chunked",
                                          chunk=chunk).fortran
                   for chunk in (2, 3, 4)}
        assert len(table) == 2
        assert force_translate(source, HEP, sched="chunked",
                               chunk=4).fortran == outputs[4]
        assert len(table) == 2

    def test_import_builds_nothing(self):
        probe = ("import repro.core, repro.pipeline\n"
                 "import repro.pipeline.compile as c\n"
                 "assert c._EXPANSIONS == {}\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_concurrent_cold_translations_agree(self, table):
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
        assert len(table) == 1
        table.clear()
        assert force_translate(source, SEQUENT_BALANCE).fortran == results[0]
