"""Source-codegen tier specifics: caching, facts gating, provenance.

The differential contract (codegen vs closures vs tree-walker) lives
in ``test_compiled_vs_interp.py``; this file covers what is unique to
the generated-source tier — the artifact cache keyed on the facts
digest, the per-process code-object table keyed on the generated
source, the numpy kernel gate, provenance comments, and the
stale-facts refusal in the CLI.
"""

import json

import pytest

from repro._util.text import strip_margin
from repro.fortran import codegen
from repro.fortran.interp import Cost, Interpreter, drain
from repro.fortran.parser import parse_source

KERNEL_SOURCE = strip_margin("""\
      PROGRAM KERN
      REAL U(10), V(10)
      INTEGER I
      DO 5 I = 1, 10
      U(I) = I * 1.0
5     CONTINUE
      DO 10 I = 2, 9
      V(I) = 0.5 * U(I-1) + 0.5 * U(I+1)
10    CONTINUE
      WRITE(*,*) NINT(V(5))
      END
""")


def kern_facts(race_free=True):
    return {"version": 1, "files": [{"doalls": [
        {"routine": "KERN", "label": 10, "race_free": race_free},
    ]}]}


def run_source_tier(program, facts=None):
    """Run on the codegen tier; return (interp, statements, cost_events).

    A repeated ``Cost`` counts as ``repeat`` events, as the scheduler
    applies it."""
    interp = Interpreter(program, codegen="source", facts=facts)
    statements = 0
    events = 0
    for event in interp.run_program():
        if isinstance(event, Cost):
            statements += event.statements * event.repeat
            events += event.repeat
    return interp, statements, events


class TestFactsDigest:
    def test_no_facts_sentinel(self):
        assert codegen.facts_digest(None) == "no-facts"

    def test_digest_is_key_order_independent(self):
        a = {"files": [{"doalls": []}], "version": 1}
        b = {"version": 1, "files": [{"doalls": []}]}
        assert codegen.facts_digest(a) == codegen.facts_digest(b)

    def test_different_facts_different_digest(self):
        assert codegen.facts_digest(kern_facts(True)) != \
            codegen.facts_digest(kern_facts(False))


class TestArtifactCacheKeyedOnFacts:
    def test_facts_change_invalidates_cached_artifact(self):
        # one parse => one unit object => one WeakKeyDictionary slot;
        # the no-facts artifact must not be reused once a facts doc
        # proves the loop race-free (it was generated without kernels)
        program = parse_source(KERNEL_SOURCE)
        plain, plain_stmts, plain_events = run_source_tier(program)
        assert plain.codegen_kernelized == {}
        gated, gated_stmts, gated_events = run_source_tier(
            program, facts=kern_facts())
        assert gated.codegen_kernelized == {"KERN": [10]}
        # identical semantics, different artifact: the kernel replays
        # the generic loop's cost events, so both totals agree
        assert gated_stmts == plain_stmts
        assert gated_events == plain_events
        assert plain.output == gated.output

    def test_same_facts_digest_reuses_artifact(self):
        program = parse_source(KERNEL_SOURCE)
        run_source_tier(program, facts=kern_facts())
        cached = codegen._CACHE.get(program.unit("KERN"))
        before = len(cached)
        # a structurally equal facts doc (fresh dict) hits the cache
        run_source_tier(program, facts=kern_facts())
        assert len(cached) == before

    def test_unproven_loop_is_not_kernelized(self):
        program = parse_source(KERNEL_SOURCE)
        interp, _, _ = run_source_tier(program,
                                       facts=kern_facts(race_free=False))
        assert interp.codegen_kernelized == {}


@pytest.fixture()
def code_table(monkeypatch):
    """An empty code-object table, restored after the test."""
    table: dict = {}
    monkeypatch.setattr(codegen, "_CODE_OBJECTS", table)
    return table


@pytest.fixture()
def compiled_sources(monkeypatch):
    """Every source text codegen hands to ``compile()``, in order."""
    sources: list[str] = []

    def counting_compile(source, *args, **kwargs):
        sources.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    return sources


def lock_stats(result):
    stats = result.stats
    return (stats.lock_acquisitions, stats.contended_acquisitions,
            stats.spin_cycles, stats.context_switches)


class TestCodeObjectTable:
    def test_runs_compile_each_distinct_source_once(self, code_table,
                                                    compiled_sources):
        from repro.core import HEP, force_run, programs
        from repro.pipeline import force_translate
        translation = force_translate(programs.render("subroutine_call"),
                                      HEP)
        first = force_run(translation, 3)
        compiled = len(compiled_sources)
        second = force_run(translation, 3)
        # the second run re-parses and re-emits, but compiles nothing
        assert len(compiled_sources) == compiled
        assert len(set(compiled_sources)) == compiled == len(code_table)
        assert set(first.codegen_sources.values()) <= set(compiled_sources)
        assert second.codegen_sources == first.codegen_sources
        oracle = force_run(translation, 3, codegen="interp")
        for result in (first, second):
            assert result.compile_fallbacks == {}
            assert result.output == oracle.output
            assert result.makespan == oracle.makespan
            assert lock_stats(result) == lock_stats(oracle)

    def test_reparsed_unit_shares_the_code_object(self, code_table):
        first, _, _ = run_source_tier(parse_source(KERNEL_SOURCE))
        second, _, _ = run_source_tier(parse_source(KERNEL_SOURCE))
        fns = [interp._codegen._units["KERN"]._fn for interp in
               (first, second)]
        # one code object, but each run binds it in its own namespace
        assert fns[0] is not fns[1]
        assert fns[0].__code__ is fns[1].__code__
        assert fns[0].__globals__ is not fns[1].__globals__
        assert len(code_table) == 1

    def test_cost_scale_and_facts_get_their_own_entries(self, code_table):
        plain, _, _ = run_source_tier(parse_source(KERNEL_SOURCE))
        gated, _, _ = run_source_tier(parse_source(KERNEL_SOURCE),
                                      facts=kern_facts())
        scaled = Interpreter(parse_source(KERNEL_SOURCE), codegen="source",
                             cost_scale=3)
        drain(scaled.run_program())
        sources = [interp.codegen_sources()["KERN"]
                   for interp in (plain, gated, scaled)]
        assert len(set(sources)) == 3 and len(code_table) == 3
        assert gated.codegen_kernelized == {"KERN": [10]}
        assert plain.output == gated.output == scaled.output

    def test_table_is_bounded(self, code_table, compiled_sources,
                              monkeypatch):
        monkeypatch.setattr(codegen, "_MAX_CODE_OBJECTS", 1)
        plain, _, _ = run_source_tier(parse_source(KERNEL_SOURCE))
        gated, _, _ = run_source_tier(parse_source(KERNEL_SOURCE),
                                      facts=kern_facts())
        again, _, _ = run_source_tier(parse_source(KERNEL_SOURCE),
                                      facts=kern_facts())
        assert len(code_table) == 1
        # the entry past the bound is compiled on every use, and still
        # runs exactly as the stored one would
        assert len(compiled_sources) == 3
        assert gated.output == again.output == plain.output
        assert again.codegen_kernelized == {"KERN": [10]}


SHARED_TERMINAL_SOURCE = strip_margin("""\
      PROGRAM KERN
      REAL U(10), V(10)
      INTEGER I, J
      DO 5 I = 1, 10
      U(I) = I * 1.0
5     CONTINUE
      DO 10 J = 1, 3
      DO 10 I = 2, 9
      V(I) = U(I) * 2.0 + J
10    CONTINUE
      WRITE(*,*) V(5), J, I
      END
""")


class TestKernelsMatchTheOracle:
    """A kernel once yielded one aggregate cost for the whole loop;
    the scheduler breaks clock ties by push order, so another process
    won a tie and locks were taken in a different order.  Kernels now
    replay the generic loop's events."""

    @pytest.mark.parametrize("machine, nproc, n, makespan", [
        ("sequent-balance", 3, 24, 62455),
        ("hep", 4, 16, 9603),
    ])
    def test_jacobi_matches_the_oracle(self, machine, nproc, n,
                                       makespan):
        from repro.core import programs
        from repro.machines import get_machine
        from repro.pipeline import force_translate
        from repro.pipeline.run import force_run
        translation = force_translate(programs.render("jacobi", n=n),
                                      get_machine(machine))
        oracle = force_run(translation, nproc, codegen="interp")
        assert oracle.makespan == makespan
        default = force_run(translation, nproc)
        plain = force_run(translation, nproc, facts={})
        assert default.kernelized_doalls == {"JACOBI": [10, 20]}
        assert plain.kernelized_doalls == {}
        for result in (default, plain):
            assert result.output == oracle.output
            assert result.makespan == oracle.makespan
            assert lock_stats(result) == lock_stats(oracle)
            assert result.stats.per_process_clock == \
                oracle.stats.per_process_clock
        assert default.stats.events == plain.stats.events
        assert default.stats.statements == plain.stats.statements

    def test_loop_sharing_its_terminal_is_refused(self):
        # the kernel would jump past the shared terminal and skip the
        # enclosing loop's advance
        interp, statements, events = run_source_tier(
            parse_source(SHARED_TERMINAL_SOURCE), facts=kern_facts())
        assert interp.codegen_kernelized == {}
        assert interp.codegen_kernel_refused == \
            {"KERN": {10: "terminal shared with another DO"}}
        oracle = Interpreter(parse_source(SHARED_TERMINAL_SOURCE),
                             codegen="interp")
        oracle_events = list(oracle.run_program())
        assert interp.output == oracle.output == ["13.0 4 10"]
        # the tree walker yields one event per statement
        assert statements == len(oracle_events)
        _, _, plain_events = run_source_tier(
            parse_source(SHARED_TERMINAL_SOURCE))
        assert events == plain_events

    def test_kernel_replays_one_event_per_iteration(self):
        interp, _, _ = run_source_tier(parse_source(KERNEL_SOURCE),
                                       facts=kern_facts())
        assert interp.codegen_kernelized == {"KERN": [10]}
        events = [event for event in
                  Interpreter(parse_source(KERNEL_SOURCE),
                              codegen="source",
                              facts=kern_facts()).run_program()
                  if isinstance(event, Cost)]
        repeated = [event for event in events if event.repeat > 1]
        # DO 10 I = 2, 9: the first of 8 trips is its own event
        assert [(e.statements, e.repeat) for e in repeated] == [(2, 7)]


class TestProvenanceComments:
    def test_generated_source_maps_back_to_fortran_lines(self):
        program = parse_source(KERNEL_SOURCE)
        interp, _, _ = run_source_tier(program)
        source = interp.codegen_sources()["KERN"]
        # WRITE sits on line 10 of the Fortran unit; its generated
        # statement carries that provenance marker
        assert "# L10" in source
        assert "unit KERN" in source


class TestStaleFactsRefusal:
    def _fresh(self, monkeypatch, stamped, current):
        from repro._util import gitrev
        from repro.pipeline.cli import _fresh_facts
        monkeypatch.setattr(gitrev, "git_revision",
                            lambda root=None, warn=True: current)
        doc = kern_facts()
        if stamped is not None:
            doc["git_revision"] = stamped
        return _fresh_facts(doc, "facts.json"), doc

    def test_matching_revision_accepted(self, monkeypatch, capsys):
        accepted, doc = self._fresh(monkeypatch, "abc1234", "abc1234")
        assert accepted is doc
        assert capsys.readouterr().err == ""

    def test_mismatch_warns_and_drops(self, monkeypatch, capsys):
        accepted, _ = self._fresh(monkeypatch, "abc1234", "fff9999")
        assert accepted is None
        err = capsys.readouterr().err
        assert "stale facts" in err
        assert "abc1234" in err and "fff9999" in err

    def test_unstamped_doc_accepted(self, monkeypatch, capsys):
        accepted, doc = self._fresh(monkeypatch, None, "abc1234")
        assert accepted is doc

    def test_no_git_accepted(self, monkeypatch, capsys):
        accepted, doc = self._fresh(monkeypatch, "abc1234", None)
        assert accepted is doc

    def test_build_facts_stamps_revision(self):
        from repro.analysis.facts import build_facts
        doc = build_facts([])
        assert "git_revision" in doc
        # JSON round trip keeps the stamp (None outside a checkout)
        assert json.loads(json.dumps(doc))["git_revision"] \
            == doc["git_revision"]


class TestTierSelection:
    def test_env_var_interp(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "interp")
        interp = Interpreter(parse_source(KERNEL_SOURCE))
        assert interp.codegen_tier == "interp"

    def test_bad_tier_rejected(self):
        from repro._util.errors import FortranError
        with pytest.raises(FortranError, match="unknown codegen tier"):
            Interpreter(parse_source(KERNEL_SOURCE), codegen="llvm")

    def test_no_jit_overrides_tier(self):
        interp = Interpreter(parse_source(KERNEL_SOURCE),
                             compiled=False, codegen="source")
        assert interp.codegen_tier == "interp"
