"""Source-codegen tier specifics: caching, facts gating, provenance.

The differential contract (codegen vs tree-walker) lives
in ``test_compiled_vs_interp.py``; this file covers what is unique to
the generated-source tier — the artifact cache keyed on the facts
digest, its reuse through the parser's per-process unit table, the
numpy kernel gate, provenance comments, and the stale-facts refusal in
the CLI.
"""

import json

import pytest

from repro._util.text import strip_margin
from repro.fortran import codegen, parser
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
def compiled_sources(monkeypatch):
    """Every source text codegen hands to ``compile()``, in order."""
    sources: list[str] = []

    def counting_compile(source, *args, **kwargs):
        sources.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    return sources


@pytest.fixture()
def front_end_work(monkeypatch):
    """Counts of units built, statements parsed and units emitted."""
    counts = {"units": 0, "statements": 0, "emits": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(parser, "_build_unit",
                        counting("units", parser._build_unit))
    monkeypatch.setattr(parser, "_parse_statement",
                        counting("statements", parser._parse_statement))
    monkeypatch.setattr(codegen._Emitter, "emit",
                        counting("emits", codegen._Emitter.emit))
    return counts


def lock_stats(result):
    stats = result.stats
    return (stats.lock_acquisitions, stats.contended_acquisitions,
            stats.spin_cycles, stats.context_switches)


class TestUnitTable:
    def test_rerun_parses_emits_and_compiles_nothing(
            self, unit_tables, front_end_work, compiled_sources):
        from repro.core import HEP, force_run, programs
        from repro.pipeline import force_translate
        translation = force_translate(programs.render("subroutine_call"),
                                      HEP)
        first = force_run(translation, 3)
        work = dict(front_end_work)
        compiled = len(compiled_sources)
        assert work["units"] and work["statements"] and work["emits"]
        second = force_run(translation, 3)
        # the second run re-parses the text, but every unit is a table
        # hit whose artifact is cached: no parse, no emission, no
        # compile()
        assert front_end_work == work
        assert len(compiled_sources) == compiled
        assert len(set(compiled_sources)) == compiled
        assert set(first.codegen_sources.values()) <= set(compiled_sources)
        assert second.codegen_sources == first.codegen_sources
        oracle = force_run(translation, 3, codegen="interp")
        for result in (first, second):
            assert result.compile_fallbacks == {}
            assert result.output == oracle.output
            assert result.makespan == oracle.makespan
            assert lock_stats(result) == lock_stats(oracle)

    def test_reparse_returns_the_identical_unit_and_artifact(
            self, unit_tables):
        parsed = [parse_source(KERNEL_SOURCE) for _ in range(2)]
        assert parsed[0] is not parsed[1]
        unit = parsed[0].unit("KERN")
        assert parsed[1].unit("KERN") is unit
        assert list(unit_tables.values()) == [unit]
        interps = [run_source_tier(program)[0] for program in parsed]
        artifacts = [interp._codegen.emitted["KERN"] for interp in interps]
        fns = [interp._codegen._units["KERN"]._fn for interp in interps]
        # one artifact, one generated function, shared by both runs
        assert artifacts[0] is artifacts[1]
        assert fns[0] is fns[1]
        assert codegen._CACHE[unit] == [artifacts[0]]
        assert interps[0].output == interps[1].output

    def test_cost_scale_and_facts_get_their_own_artifacts(
            self, unit_tables, compiled_sources):
        plain, _, _ = run_source_tier(parse_source(KERNEL_SOURCE))
        gated, _, _ = run_source_tier(parse_source(KERNEL_SOURCE),
                                      facts=kern_facts())
        scaled = Interpreter(parse_source(KERNEL_SOURCE), codegen="source",
                             cost_scale=3)
        drain(scaled.run_program())
        sources = [interp.codegen_sources()["KERN"]
                   for interp in (plain, gated, scaled)]
        unit = parse_source(KERNEL_SOURCE).unit("KERN")
        assert len(set(sources)) == 3 and len(compiled_sources) == 3
        assert len(codegen._CACHE[unit]) == 3
        assert gated.codegen_kernelized == {"KERN": [10]}
        assert plain.output == gated.output == scaled.output

    def test_unit_past_the_bound_is_parsed_per_use(
            self, unit_tables, compiled_sources, monkeypatch):
        monkeypatch.setattr(parser, "_MAX_UNITS", 0)
        monkeypatch.setattr(parser, "_MAX_TEMPLATES", 0)
        loose = [parse_source(KERNEL_SOURCE) for _ in range(2)]
        assert loose[0].unit("KERN") is not loose[1].unit("KERN")
        assert unit_tables == {} and parser._TEMPLATES == {}
        runs = [run_source_tier(program, facts=kern_facts())
                for program in loose]
        # a unit past the bound is emitted and compiled on every use
        assert len(compiled_sources) == 2
        monkeypatch.setattr(parser, "_MAX_UNITS", 512)
        monkeypatch.setattr(parser, "_MAX_TEMPLATES", 4096)
        stored = run_source_tier(parse_source(KERNEL_SOURCE),
                                 facts=kern_facts())
        assert len(unit_tables) == 1
        # ... and still runs exactly as the stored one does
        for interp, statements, events in runs:
            assert interp.output == stored[0].output
            assert (statements, events) == stored[1:]
            assert interp.codegen_kernelized == {"KERN": [10]}
            assert interp.codegen_sources() == stored[0].codegen_sources()


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


class TestGeneratedNames:
    def test_temporaries_never_shadow_the_frame_views(self):
        # the computed GOTO takes temporary 1, so the DO's first bound
        # is temporary 2 under the prefix "_f"; it once reused the name
        # of the 2-D fast-view list and the store below it crashed
        program = parse_source(strip_margin("""\
              PROGRAM P
              REAL A(2, 2)
              INTEGER I, K
              K = 1
              GO TO (5, 5), K
        5     DO 10 I = 1, 2
              A(I, 1) = 1.5
        10    CONTINUE
              WRITE(*,*) A(2, 1)
              END
        """))
        interp, _, _ = run_source_tier(program)
        assert interp.output == ["1.5"]
        assert interp.compile_fallbacks == {}


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
    def test_bad_tier_rejected(self):
        from repro._util.errors import FortranError
        with pytest.raises(FortranError, match="unknown codegen tier"):
            Interpreter(parse_source(KERNEL_SOURCE), codegen="llvm")

    def test_retired_tier_switches_rejected(self, tmp_path, capsys):
        # --codegen {source,interp} / codegen= are the only tier switches
        from repro._util.errors import FortranError
        from repro.pipeline.cli import main
        with pytest.raises(FortranError) as excinfo:
            Interpreter(parse_source(KERNEL_SOURCE), codegen="closure")
        assert "source" in str(excinfo.value)
        assert "interp" in str(excinfo.value)
        path = tmp_path / "prog.frc"
        path.write_text(strip_margin("""\
            Force CLIP of NP ident ME
            Shared INTEGER TOTAL
            End declarations
            Join
                  END
        """))
        for flags in (["--codegen", "closure"], ["--no-jit"]):
            assert main(["run", str(path), *flags]) == 2, flags
        err = capsys.readouterr().err
        assert "invalid choice: 'closure'" in err
        assert "unrecognized arguments: --no-jit" in err
