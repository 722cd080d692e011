"""Generated code's array-element fast paths against the tree walker.

Generated code reads and writes in-bounds elements of 1-D and 2-D
numeric arrays straight from numpy storage (``_ld1``/``_st1`` and
``_ld2``/``_st2``); every other access falls through to
``FArray.get``/``set``.  Each program here runs as a Force program on
both tiers, and must agree with the oracle on output, final COMMON
storage, makespan and lock statistics, or raise the same error.
"""

import pytest

from repro._util.errors import FortranError
from repro.fortran.interp import Cell, Interpreter
from repro.machines import HEP, SEQUENT_BALANCE
from repro.pipeline import run as run_module
from repro.pipeline.compile import force_translate
from repro.pipeline.run import force_run

TIERS = ("interp", "source")


def _common_state(interp):
    """Every COMMON block's final storage, shared and private."""
    provider = interp.commons
    blocks = dict(provider._blocks)
    blocks.update(provider._private)
    state = {}
    for key, block in blocks.items():
        state[key] = [slot.value if isinstance(slot, Cell)
                      else slot.data.tolist() for slot in block]
    return state


def _record_interpreters(monkeypatch):
    """The interpreters ``force_run`` builds from now on, in order."""
    made = []

    class Recording(Interpreter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(run_module, "Interpreter", Recording)
    return made


def _run(monkeypatch, source, machine, tier):
    """One simulated run; the outcome a test compares across tiers."""
    made = _record_interpreters(monkeypatch)
    translation = force_translate(source, machine)
    try:
        result = force_run(translation, 3, codegen=tier)
    except FortranError as exc:
        return ("raised", str(exc))
    stats = result.stats
    return (result.output, _common_state(made[-1]), result.makespan,
            stats.statements, stats.lock_acquisitions,
            stats.contended_acquisitions, stats.spin_cycles,
            stats.context_switches, result.compile_fallbacks)


def _both_tiers(monkeypatch, source, machine=SEQUENT_BALANCE):
    oracle, generated = (_run(monkeypatch, source, machine, tier)
                         for tier in TIERS)
    assert generated == oracle
    return oracle


#: 2-D element programs; every one also takes a lock per process
PROGRAMS = {
    "lower_bounds_not_one": """\
Force LB of NP ident ME
Shared REAL A(0:4, -2:3), S
Private INTEGER I, J
End declarations
Presched DO 10 I = 0, 4
      DO 20 J = -2, 3
      A(I, J) = FLOAT(I * 10 + J) + 0.5
20    CONTINUE
10 End presched DO
Barrier
      S = 0.0
End barrier
Presched DO 30 J = -2, 3
      Critical LCK
      S = S + A(0, J) + A(4, J) * 2.0
      End critical
30 End presched DO
Barrier
      WRITE(*,*) "S", S, A(0, -2), A(4, 3), A(2, 0)
End barrier
Join
      END
""",
    "real_subscripts": """\
Force RS of NP ident ME
Shared REAL A(3, 4), X, Y
End declarations
Barrier
      X = 2.7
      Y = 3.9
      A(X, Y) = 5.5
      A(1.2, 4.99) = A(2.1, 3.0) + 1.0
      WRITE(*,*) "A", A(2, 3), A(1, 4), A(X + 0.5, Y - 1.5)
End barrier
Critical LCK
      A(1, 1) = A(1, 1) + 1.0
End critical
Join
      END
""",
    "integer_array_stores_real": """\
Force IR of NP ident ME
Shared INTEGER K(3, 3)
Shared REAL R
Private INTEGER I
End declarations
Barrier
      R = 7.9
      K(1, 2) = R
      K(2, 2) = -R
      K(3, 3) = 4
      K(2, 1) = K(1, 2) * 2.5
End barrier
Presched DO 10 I = 1, 3
      Critical LCK
      K(I, 1) = K(I, 1) + I
      End critical
10 End presched DO
Barrier
      WRITE(*,*) "K", K(1, 2), K(2, 2), K(3, 3), K(2, 1), K(3, 1)
End barrier
Join
      END
""",
    "dummy_views_caller_storage": """\
Force DV of NP ident ME
Shared REAL V(12), W(0:5)
Private INTEGER I
End declarations
Barrier
      CALL FILL(V, 3, 4)
      CALL FILL0(W, 2, 3)
      WRITE(*,*) "V", V(1), V(3), V(4), V(12), W(0), W(5)
End barrier
Presched DO 10 I = 1, 12
      Critical LCK
      V(I) = V(I) + 1.0
      End critical
10 End presched DO
Join
      END
      SUBROUTINE FILL(B, M, N)
      INTEGER M, N, I, J
      REAL B(M, N)
      DO 20 J = 1, N
      DO 10 I = 1, M
      B(I, J) = FLOAT(I + 10 * J)
10    CONTINUE
20    CONTINUE
      B(M, N) = B(1, 1) + B(M, 1)
      END
      SUBROUTINE FILL0(B, M, N)
      INTEGER M, N, I, J
      REAL B(0:M-1, N)
      DO 20 J = 1, N
      DO 10 I = 0, M - 1
      B(I, J) = FLOAT(I - J)
10    CONTINUE
20    CONTINUE
      END
""",
    "character_and_logical_arrays": """\
Force CL of NP ident ME
Shared CHARACTER*4 C(2, 2)
Shared LOGICAL L(2, 3)
Shared INTEGER N
End declarations
Barrier
      C(1, 2) = "AB"
      C(2, 1) = C(1, 2)
      L(1, 3) = .TRUE.
      L(2, 1) = L(1, 3) .AND. .TRUE.
      N = 0
End barrier
Critical LCK
      IF (L(2, 1)) N = N + 1
End critical
Barrier
      WRITE(*,*) "C", C(2, 1), C(1, 2), L(1, 3), L(2, 2), N
End barrier
Join
      END
""",
}

#: programs the oracle rejects: each raises its FortranError on both
#: tiers, with the same text
ERRORS = {
    "load_out_of_bounds_first_dimension": ("REAL A(0:4, -2:3)",
                                           "X = A(5, 0)"),
    "load_out_of_bounds_second_dimension": ("REAL A(0:4, -2:3)",
                                            "X = A(0, -3)"),
    "store_out_of_bounds_first_dimension": ("REAL A(0:4, -2:3)",
                                            "A(-1, 0) = 1.0"),
    "store_out_of_bounds_second_dimension": ("REAL A(0:4, -2:3)",
                                             "A(4, 4) = 1.0"),
    "one_subscript_load_of_a_2d_array": ("REAL A(8, 8)", "X = A(5)"),
    "one_subscript_store_into_a_2d_array": ("REAL A(8, 8)",
                                            "A(5) = 1.0"),
    "two_subscript_load_of_a_1d_array": ("REAL A(8)", "X = A(1, 2)"),
    "two_subscript_store_into_a_1d_array": ("REAL A(8)",
                                            "A(1, 2) = 1.0"),
    "logical_array_stores_a_number": ("LOGICAL A(2, 2)",
                                      "A(1, 1) = 1.0"),
    "character_array_stores_a_number": ("CHARACTER*4 A(2, 2)",
                                        "A(2, 2) = 3"),
    "integer_array_stores_a_string": ("INTEGER A(2, 2)",
                                      'A(2, 1) = "Q"'),
}


def _error_program(declaration, statement):
    return f"""\
Force ER of NP ident ME
Shared {declaration}, X
End declarations
Barrier
      {statement}
End barrier
Join
      END
"""


class TestTwoDimensionalElements:
    @pytest.mark.parametrize("machine", [SEQUENT_BALANCE, HEP],
                             ids=lambda m: m.key)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_the_oracle(self, monkeypatch, name, machine):
        outcome = _both_tiers(monkeypatch, PROGRAMS[name], machine)
        assert outcome[0] != "raised", outcome
        assert outcome[-1] == {}            # no unit fell back
        assert outcome[4] > 0               # the program took its lock

    @pytest.mark.parametrize("name", sorted(ERRORS))
    def test_errors_match_the_oracle(self, monkeypatch, name):
        outcome = _both_tiers(monkeypatch, _error_program(*ERRORS[name]))
        assert outcome[0] == "raised"

    def test_rank_mismatch_texts(self, monkeypatch):
        load = _both_tiers(monkeypatch, _error_program(
            *ERRORS["one_subscript_load_of_a_2d_array"]))
        store = _both_tiers(monkeypatch, _error_program(
            *ERRORS["two_subscript_store_into_a_1d_array"]))
        assert "array rank 2 referenced with 1 subscripts" in load[1]
        assert "array rank 1 referenced with 2 subscripts" in store[1]

    def test_kernel_guard_never_reads_a_2d_view(self, monkeypatch):
        # a race-free DOALL writing A(I): the kernel recognizer sees a
        # 1-D element, so only the runtime guard keeps the 2-D array
        # (second lower bound 0) off the numpy slice path
        source = """\
Force KG of NP ident ME
Shared REAL A(4, 0:3), B(4)
Private INTEGER I
End declarations
Presched DO 10 I = 1, 4
      A(I) = B(I) + 1.0
10 End presched DO
Join
      END
"""
        outcome = _both_tiers(monkeypatch, source)
        assert outcome == ("raised",
                           "array rank 2 referenced with 1 subscripts")

    def test_fast_views_are_kept_apart_by_rank(self, monkeypatch):
        made = _record_interpreters(monkeypatch)
        frames = []
        original = Interpreter._make_frame

        def keep(self, unit, args, process=None):
            frame = original(self, unit, args, process)
            frames.append(frame)
            return frame

        monkeypatch.setattr(Interpreter, "_make_frame", keep)
        force_run(force_translate(PROGRAMS["dummy_views_caller_storage"],
                                  SEQUENT_BALANCE), 1, codegen="source")
        fill = [f for f in frames if f.unit.name == "FILL"][0]
        names = made[-1]._codegen_unit(fill.unit).slot_names
        views = dict(zip(names, zip(fill.fast, fill.fast2)))
        one, two = views["B"]
        assert one is None and two[1:] == (1, 3, 1, 4, False)
        assert views["M"] == (None, None)
