"""Differential harness: the compiled execution tier vs the tree-walker.

The source-codegen tier (``fortran/codegen.py``) must be
*bit-identical* to the tree-walking interpreter it replaces: same
output lines, same simulated schedules (cost events feed the
discrete-event scheduler, so makespan and lock statistics are part of
the contract), same final COMMON storage, and same errors on bad
programs.  The tree-walker is the oracle; any divergence here is a
compiler bug by definition.

The seeded mini-fuzzer at the bottom generates straight-line units
(assignment soup over scalars and arrays, then WRITE everything) so
tier agreement is checked beyond the hand-picked corpus.
"""

import random
from pathlib import Path

import pytest

from repro._util.errors import FortranError
from repro._util.text import strip_margin
from repro.fortran.interp import Cell, Cost, Interpreter, drain
from repro.fortran.parser import parse_source
from repro.machines import get_machine
from repro.pipeline.compile import force_translate
from repro.pipeline.run import force_run

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: analyzer demos that deliberately do not translate
NON_RUNNABLE = {"racy_stencil.frc"}

RUNNABLE = sorted(p.name for p in EXAMPLES.glob("*.frc")
                  if p.name not in NON_RUNNABLE)

#: the two execution tiers, oracle first
TIERS = ("interp", "source")


def run_tiers(source, input_data=None, tiers=TIERS):
    """Run one Fortran program on each tier; return the interpreters.

    The cost totals (statements, cycles) are attached to each
    interpreter as ``cost_totals`` — the codegen tier batches events,
    so per-event comparison is meaningless but the totals are part of
    the bit-identical contract.
    """
    interps = []
    for tier in tiers:
        program = parse_source(strip_margin(source))
        interp = Interpreter(program, codegen=tier)
        if input_data is not None:
            interp.set_input(input_data)
        statements = cycles = 0
        for event in interp.run_program():
            if isinstance(event, Cost):
                statements += event.statements
                cycles += event.cycles
        interp.cost_totals = (statements, cycles)
        interps.append(interp)
    return interps


def common_state(interp):
    """Snapshot of every COMMON block's final storage."""
    state = {}
    for name, block in interp.commons._blocks.items():
        values = []
        for slot in block:
            if isinstance(slot, Cell):
                values.append(slot.value)
            else:
                values.append(slot.data.tolist())
        state[name] = values
    return state


class TestExamplesBitIdentical:
    @pytest.mark.parametrize("example", RUNNABLE)
    @pytest.mark.parametrize("machine_key", ["sequent-balance", "hep"])
    @pytest.mark.parametrize("nproc", [1, 4])
    def test_example_identical(self, example, machine_key, nproc):
        source = (EXAMPLES / example).read_text(encoding="utf-8")
        translation = force_translate(source, get_machine(machine_key))
        tree = force_run(translation, nproc, codegen="interp")
        comp = force_run(translation, nproc, codegen="source")
        assert comp.output == tree.output
        assert comp.output_records == tree.output_records
        assert comp.makespan == tree.makespan
        assert comp.stats.statements == tree.stats.statements
        assert comp.stats.lock_acquisitions == \
            tree.stats.lock_acquisitions
        assert comp.stats.contended_acquisitions == \
            tree.stats.contended_acquisitions
        assert comp.stats.spin_cycles == tree.stats.spin_cycles
        assert comp.stats.context_switches == \
            tree.stats.context_switches
        assert comp.compile_fallbacks == {}

    @pytest.mark.parametrize("example", RUNNABLE)
    def test_example_identical_under_chunked_sched(self, example):
        source = (EXAMPLES / example).read_text(encoding="utf-8")
        machine = get_machine("sequent-balance")
        translation = force_translate(source, machine,
                                      sched="chunked", chunk=8)
        tree = force_run(translation, 4, codegen="interp")
        comp = force_run(translation, 4, codegen="source")
        assert comp.output == tree.output
        assert comp.makespan == tree.makespan
        assert comp.compile_fallbacks == {}


FEATURE_PROGRAMS = {
    "do_negative_step_and_goto": """\
      PROGRAM MAIN
      INTEGER I, S
      S = 0
      DO 10 I = 9, 1, -2
      S = S + I
10    CONTINUE
      IF (S .NE. 25) GO TO 90
      WRITE(*,*) 'OK', S
      GO TO 99
90    WRITE(*,*) 'BAD', S
99    CONTINUE
      END
    """,
    "common_aliasing_across_units": """\
      PROGRAM MAIN
      INTEGER N, A(4)
      COMMON /BLK/ N, A
      INTEGER I
      N = 3
      DO 10 I = 1, 4
      A(I) = I * I
10    CONTINUE
      CALL BUMP
      WRITE(*,*) N, A(1), A(4)
      END
      SUBROUTINE BUMP
      INTEGER N, A(4)
      COMMON /BLK/ N, A
      N = N + 1
      A(1) = A(1) + 100
      A(4) = A(4) + 100
      END
    """,
    "function_calls_and_elseif": """\
      PROGRAM MAIN
      INTEGER I, K, CLS
      K = 0
      DO 10 I = 1, 10
      K = K + CLS(I)
10    CONTINUE
      WRITE(*,*) K
      END
      INTEGER FUNCTION CLS(X)
      INTEGER X
      IF (X .LT. 3) THEN
      CLS = 1
      ELSE IF (X .LT. 7) THEN
      CLS = 10
      ELSE
      CLS = 100
      END IF
      END
    """,
    "computed_goto_dispatch": """\
      PROGRAM MAIN
      INTEGER I, T
      T = 0
      DO 40 I = 1, 4
      GO TO (10, 20, 30), I
      T = T + 1000
      GO TO 40
10    T = T + 1
      GO TO 40
20    T = T + 10
      GO TO 40
30    T = T + 100
40    CONTINUE
      WRITE(*,*) T
      END
    """,
    "format_write_in_loop": """\
      PROGRAM MAIN
      INTEGER I
      REAL X
      DO 10 I = 1, 3
      X = I * 1.5
      WRITE(*,100) I, X
100   FORMAT('I=', I3, 2X, F6.2)
10    CONTINUE
      END
    """,
    "read_into_array": """\
      PROGRAM MAIN
      INTEGER A(3), I, S
      READ(*,*) A(1), A(2), A(3)
      S = 0
      DO 10 I = 1, 3
      S = S + A(I)
10    CONTINUE
      WRITE(*,*) S
      END
    """,
    "mixed_arithmetic_and_intrinsics": """\
      PROGRAM MAIN
      REAL X
      INTEGER I
      X = -7.6
      I = (-7) / 2
      WRITE(*,*) ABS(X), I, MOD(17, 5), MAX(2, 9), NINT(2.6)
      WRITE(*,*) 2 ** 10, 2.0 ** (-2)
      END
    """,
}

FEATURE_INPUT = {"read_into_array": "4 5 6\n"}


class TestFeatureProgramsIdentical:
    @pytest.mark.parametrize("name", sorted(FEATURE_PROGRAMS))
    def test_feature_identical(self, name):
        tree, comp = run_tiers(
            FEATURE_PROGRAMS[name],
            input_data=FEATURE_INPUT.get(name))
        assert comp.output == tree.output
        assert common_state(comp) == common_state(tree)
        assert comp.cost_totals == tree.cost_totals


ERROR_PROGRAMS = {
    "string_arithmetic": """\
      PROGRAM MAIN
      WRITE(*,*) 'A' + 1
      END
    """,
    "fell_off_the_end": """\
      PROGRAM MAIN
      INTEGER I
      I = 1
      GO TO 10
10    CONTINUE
      END
    """,
    "bad_format_descriptor": """\
      PROGRAM MAIN
      WRITE(*,100) 1
100   FORMAT(Q7)
      END
    """,
}


class TestErrorsIdentical:
    @pytest.mark.parametrize("name", sorted(ERROR_PROGRAMS))
    def test_same_error_on_every_tier(self, name):
        source = ERROR_PROGRAMS[name]
        messages = []
        for tier in TIERS:
            program = parse_source(strip_margin(source))
            interp = Interpreter(program, codegen=tier)
            if name == "fell_off_the_end":
                # this one terminates normally on END; skip the error
                # comparison and just check all tiers complete alike
                drain(interp.run_program())
                messages.append("completed")
                continue
            with pytest.raises(FortranError) as excinfo:
                drain(interp.run_program())
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1, messages


# ----------------------------------------------------------------------
# seeded mini-fuzzer: straight-line assignment soup
# ----------------------------------------------------------------------
#: integer scalars the fuzzer may assign; ``I`` is reserved as the
#: (never reassigned) in-bounds array index
_FUZZ_INTS = ("J", "K", "L")
_FUZZ_REALS = ("X", "Y", "Z")


def _fuzz_leaf(rng, kind):
    if kind == "int":
        choices = [str(rng.randint(-9, 9)),
                   rng.choice(_FUZZ_INTS), "I",
                   f"A({rng.randint(1, 5)})", "A(I)"]
    else:
        choices = [f"{rng.randint(-9, 9)}.{rng.randint(0, 99):02d}",
                   rng.choice(_FUZZ_REALS),
                   f"B({rng.randint(1, 5)})", "B(I)"]
    return rng.choice(choices)


def _fuzz_expr(rng, kind, depth):
    if depth <= 0 or rng.random() < 0.35:
        return _fuzz_leaf(rng, kind)
    roll = rng.random()
    a = _fuzz_expr(rng, kind, depth - 1)
    if roll < 0.15:
        return f"(-({a}))"
    b = _fuzz_expr(rng, kind, depth - 1)
    if roll < 0.70:
        op = rng.choice("+-*")
        return f"({a} {op} {b})"
    if kind == "int":
        return rng.choice([f"MOD({a}, 7)", f"MAX({a}, {b})",
                           f"MIN({a}, {b})", f"({a} / 3)"])
    return rng.choice([f"ABS({a})", f"MAX({a}, {b})",
                       f"MIN({a}, {b})", f"({a} / 4.0)"])


def _fuzz_program(rng):
    """One straight-line unit: init everything, mutate, WRITE it all.

    Integer assignments are wrapped in MOD so chained multiplies
    cannot explode into huge bignums; ``I`` stays fixed so ``A(I)``
    subscripts are always in bounds.  Divisions only ever use nonzero
    literals.  Any remaining float corner (inf propagation, negative
    zero) must simply agree across the two tiers.
    """
    lines = ["      PROGRAM FUZZ",
             "      INTEGER I, J, K, L, A(5)",
             "      REAL X, Y, Z, B(5)",
             f"      I = {rng.randint(1, 5)}"]
    for n, var in enumerate(_FUZZ_INTS):
        lines.append(f"      {var} = {n + 2}")
    for n, var in enumerate(_FUZZ_REALS):
        lines.append(f"      {var} = {n}.5")
    for slot in range(1, 6):
        lines.append(f"      A({slot}) = {rng.randint(-9, 9)}")
        lines.append(f"      B({slot}) = {rng.randint(-9, 9)}.25")
    for _ in range(rng.randint(8, 18)):
        if rng.random() < 0.5:
            target = rng.choice(_FUZZ_INTS + (f"A({rng.randint(1, 5)})",
                                              "A(I)"))
            rhs = f"MOD({_fuzz_expr(rng, 'int', 2)}, 9973)"
        else:
            target = rng.choice(_FUZZ_REALS + (f"B({rng.randint(1, 5)})",
                                               "B(I)"))
            rhs = _fuzz_expr(rng, "real", 2)
        lines.append(f"      {target} = {rhs}")
    lines.append("      WRITE(*,*) I, J, K, L")
    lines.append("      WRITE(*,*) X, Y, Z")
    lines.append("      WRITE(*,*) A(1), A(2), A(3), A(4), A(5)")
    lines.append("      WRITE(*,*) B(1), B(2), B(3), B(4), B(5)")
    lines.append("      END")
    return "\n".join(lines) + "\n"


class TestStraightLineFuzz:
    """~50 generated units; every tier must agree bit-for-bit."""

    @pytest.mark.parametrize("seed", range(50))
    def test_tiers_agree(self, seed):
        source = _fuzz_program(random.Random(20260809 + seed))
        results = []
        for tier in TIERS:
            program = parse_source(source)
            interp = Interpreter(program, codegen=tier)
            statements = cycles = 0
            error = None
            try:
                for event in interp.run_program():
                    if isinstance(event, Cost):
                        statements += event.statements
                        cycles += event.cycles
            except FortranError as exc:
                error = str(exc)
            results.append((tier, interp.output, statements, cycles,
                            error))
            if tier != "interp":
                assert interp.compile_fallbacks == {}, \
                    (tier, interp.compile_fallbacks, source)
        baseline = results[0][1:]
        for tier, *rest in results[1:]:
            assert tuple(rest) == baseline, (tier, source)
