"""Units and statements shared between programs.

The parser hands out one :class:`~repro.fortran.parser.ProgramUnit` per
distinct unit text (header, body and line numbers) and builds every
statement from a per-text template, so programs share parse trees, and
through codegen's per-unit cache, generated code.  These tests pin what
that sharing must not change: each program runs its own callees, no
run writes to a shared node, and errors cite the line of the program
that raised them.
"""

from pathlib import Path

import pytest

from repro._util.errors import FortranError
from repro._util.text import strip_margin
from repro.core import programs
from repro.fortran import ast_nodes as ast
from repro.fortran.interp import Interpreter, drain
from repro.fortran.parser import parse_source
from repro.machines import HEP, MACHINES
from repro.pipeline.compile import force_translate
from repro.pipeline.run import force_run

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
#: the runnable example corpus (racy_stencil does not translate)
RUNNABLE = sorted(p.name for p in EXAMPLES.glob("*.frc")
                  if p.name != "racy_stencil.frc")
SIMULATED = [machine for key, machine in MACHINES.items()
             if key != "python-host"]
TIERS = ("interp", "source")


def lock_stats(result):
    stats = result.stats
    return (stats.lock_acquisitions, stats.contended_acquisitions,
            stats.spin_cycles, stats.context_switches)


class TestSharedCallerUnit:
    def test_each_program_runs_its_own_callee(self):
        # The default and guided expansions of one program share the
        # byte-identical caller unit DRIVERP, but not its callee ADDUP.
        # Generated code cached on DRIVERP must call the ADDUP of the
        # program that runs it, not of the program that emitted it.
        source = programs.render("subroutine_call")
        translations = [force_translate(source, HEP),
                        force_translate(source, HEP, sched="guided")]
        parsed = [parse_source(t.fortran) for t in translations]
        assert parsed[0].unit("DRIVERP") is parsed[1].unit("DRIVERP")
        assert parsed[0].unit("ADDUP") is not parsed[1].unit("ADDUP")
        oracles = [force_run(t, 3, codegen="interp") for t in translations]
        assert oracles[0].makespan != oracles[1].makespan
        for translation, oracle in zip(translations, oracles):
            result = force_run(translation, 3)
            assert result.compile_fallbacks == {}
            assert result.output == oracle.output
            assert result.makespan == oracle.makespan
            assert lock_stats(result) == lock_stats(oracle)


def _fingerprint_stmt(stmt):
    """Class and every slot value of a statement (nested logical-IF
    bodies included); ``Write.compiled_format`` is the one lazy field
    and is left out."""
    values = []
    for cls in type(stmt).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot == "compiled_format":
                continue
            value = getattr(stmt, slot)
            if isinstance(value, ast.Stmt):
                value = (id(value), _fingerprint_stmt(value))
            values.append((slot, repr(value)))
    return type(stmt).__name__, tuple(values)


def fingerprint(unit):
    return (unit.kind, unit.name, tuple(unit.params), unit.result_type,
            tuple(sorted(unit.label_index.items())),
            tuple((id(stmt), _fingerprint_stmt(stmt))
                  for stmt in unit.statements))


class TestSharedNodesStayUnchanged:
    def test_runs_write_to_no_tabled_unit(self, unit_tables):
        translations = [
            force_translate((EXAMPLES / name).read_text(encoding="utf-8"),
                            machine)
            for name in RUNNABLE for machine in SIMULATED]
        assert len(translations) == 2 * 6
        for translation in translations:
            program = parse_source(translation.fortran)
            assert all(unit in unit_tables.values()
                       for unit in program.units.values())
        before = {key: fingerprint(unit)
                  for key, unit in unit_tables.items()}
        for translation in translations:
            for tier in TIERS:
                result = force_run(translation, 4, codegen=tier)
                assert result.compile_fallbacks == {}
        after = {key: fingerprint(unit) for key, unit in unit_tables.items()
                 if key in before}
        assert after == before

    def test_same_statement_text_shares_its_expressions(self, unit_tables):
        first = parse_source(strip_margin("""\
              PROGRAM ONE
              REAL A(4), X
              A(2) = X * 2.0 + A(1)
              END
        """))
        second = parse_source(strip_margin("""\
              SUBROUTINE TWO(X)
              REAL A(4), X
              INTEGER I
              I = 1
              A(2) = X * 2.0 + A(1)
              END
        """))
        one = first.unit("ONE").statements[1]
        two = second.unit("TWO").statements[3]
        assert isinstance(one, ast.Assign) and isinstance(two, ast.Assign)
        assert one is not two
        assert (one.line, two.line) == (3, 5)
        assert one.target is two.target
        assert one.expr is two.expr

    @pytest.mark.parametrize("tier", TIERS)
    def test_logical_if_bodies_are_not_shared(self, tier, unit_tables):
        # the same GO TO text jumps to a different index in each unit
        program = parse_source(strip_margin("""\
              PROGRAM MAIN
              INTEGER I
              I = 3
              IF (I .GT. 2) GO TO 10
              WRITE(*,*) 'NOT TAKEN'
        10    WRITE(*,*) 'MAIN'
              CALL SUB
              END
              SUBROUTINE SUB
              INTEGER I
              I = 3
              I = I + 1
              IF (I .GT. 2) GO TO 10
              WRITE(*,*) 'NOT TAKEN'
              WRITE(*,*) 'NOT TAKEN'
        10    WRITE(*,*) 'SUB'
              END
        """))
        jumps = [program.unit(name).statements[index]
                 for name, index in (("MAIN", 2), ("SUB", 3))]
        assert jumps[0].cond is jumps[1].cond
        assert jumps[0].body is not jumps[1].body
        assert [jump.body.target for jump in jumps] == [4, 6]
        interp = Interpreter(program, codegen=tier)
        drain(interp.run_program())
        assert interp.output == ["MAIN", "SUB"]


def _with_statement_at(text, line):
    """A main program whose statement ``text`` sits on ``line``.  The
    padding is comment lines, so the programs differ only in line
    numbers."""
    return ("      PROGRAM MAIN\n"
            "      INTEGER I\n"
            + "C     padding\n" * (line - 3)
            + f"      {text}\n"
            "      END\n")


class TestErrorsCiteTheirOwnLine:
    @pytest.mark.parametrize("tier", TIERS)
    def test_parse_error(self, tier, unit_tables):
        for line in (3, 6, 3):
            with pytest.raises(FortranError) as excinfo:
                Interpreter(parse_source(_with_statement_at("I = = 1", line)),
                            codegen=tier)
            assert excinfo.value.line == line
            assert f"line {line}:" in str(excinfo.value)
        assert unit_tables == {}

    @pytest.mark.parametrize("tier", TIERS)
    def test_runtime_error(self, tier, unit_tables):
        for line in (3, 6, 3):
            program = parse_source(_with_statement_at("CALL NOSUCH", line))
            interp = Interpreter(program, codegen=tier)
            with pytest.raises(FortranError) as excinfo:
                drain(interp.run_program())
            assert excinfo.value.line == line
            assert "no subroutine named NOSUCH" in str(excinfo.value)
            assert interp.compile_fallbacks == {}
        assert len(unit_tables) == 2
