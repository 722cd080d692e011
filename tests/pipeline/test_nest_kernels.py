"""DOALL nests lowered to 2-D numpy slabs against the tree walker.

A race-free DOALL whose body is a run of assignments followed by one
inner DO of assignments runs as whole-slab numpy operations, one per
statement in source order, and replays the generic loop's cost events.
Each program here runs on every simulated machine at one to four
processes and must agree with the oracle (``codegen="interp"``) on
output, final COMMON storage, makespan, lock statistics and the
per-process clocks, and with the kernel-free source tier on the event
and statement counts.  Shapes the recognizer or the runtime guard must
send down the generic path do so with the same results, or the same
error.
"""

import pytest

from repro._util.errors import FortranError
from repro.core import programs
from repro.fortran.interp import Cell, Interpreter
from repro.machines import get_machine
from repro.machines.catalog import MACHINES
from repro.pipeline import run as run_module
from repro.pipeline.compile import force_translate
from repro.pipeline.run import force_run

SIM_MACHINES = [key for key in MACHINES if key != "python-host"]

#: nests the kernel path must lower (unit name -> kernelized labels)
KERNELIZED = {
    "lu_step": (programs.render("lu_decomposition", n=7),
                {"LUDEC": [10]}),
    "row_scale_and_rank_one": ("""\
Force RS of NP ident ME
Shared REAL B(6, 5), R(6, 1), U(6, 1), V(1, 5), C(6, 5)
Private INTEGER I, J
End declarations
Barrier
      DO 2 J = 1, 5
      V(1, J) = 0.5 * J
      DO 1 I = 1, 6
      B(I, J) = FLOAT(I * 7 + J)
      C(I, J) = FLOAT(I - J) / 3.0
1     CONTINUE
2     CONTINUE
      DO 3 I = 1, 6
      R(I, 1) = 1.0 / FLOAT(I)
      U(I, 1) = FLOAT(I) + 0.25
3     CONTINUE
End barrier
Presched DO 10 I = 1, 6
      DO 20 J = 1, 5
      B(I, J) = B(I, J) * R(I, 1)
20    CONTINUE
10 End presched DO
Presched DO 30 I = 1, 6
      DO 40 J = 1, 5
      C(I, J) = C(I, J) - U(I, 1) * V(1, J)
40    CONTINUE
30 End presched DO
      WRITE(*,*) "RS", ME, I, J
Barrier
      WRITE(*,*) "B", B(1, 1), B(6, 5), "C", C(2, 3), C(6, 1)
End barrier
Join
      END
""", {"RS": [10, 30]}),
    "lower_bounds_steps_transpose": ("""\
Force LB of NP ident ME
Shared REAL A(0:5, -2:3), T(-2:3, 0:5), S
Private INTEGER I, J
End declarations
Barrier
      S = 0.75
      DO 2 J = -2, 3
      DO 1 I = 0, 5
      A(I, J) = FLOAT(I * 10 + J) + 0.5
1     CONTINUE
2     CONTINUE
End barrier
Presched DO 10 I = 0, 5
      A(I, -2) = A(I, -2) * S + 1.0
      DO 20 J = 3, -1, -1
      A(I, J) = A(I, J) * 0.5 + A(I, -2) / S + I * 0.25 - J
      T(J, I) = A(I, J) + 1.0
20    CONTINUE
10 End presched DO
      WRITE(*,*) "LB", ME, I, J
Barrier
      WRITE(*,*) "A", A(0, -2), A(5, 3), A(2, -1), "T", T(3, 5), T(-1, 0)
End barrier
Join
      END
""", {"LB": [10]}),
    "empty_inner_loop": ("""\
Force EI of NP ident ME
Shared REAL A(4, 4)
Shared INTEGER M
Private INTEGER I, J
End declarations
Barrier
      M = 2
      DO 2 J = 1, 4
      DO 1 I = 1, 4
      A(I, J) = FLOAT(I + J)
1     CONTINUE
2     CONTINUE
End barrier
Presched DO 10 I = 1, 4
      A(I, 1) = A(I, 1) + 2.0
      DO 20 J = M + 1, M
      A(I, J) = 0.0
20    CONTINUE
10 End presched DO
      WRITE(*,*) "EI", ME, I, J
Barrier
      WRITE(*,*) "A", A(1, 1), A(4, 1), A(4, 4)
End barrier
Join
      END
""", {"EI": [10]}),
}

#: nests the recognizer refuses (unit name -> {label: reason})
REFUSED = {
    "integer_array": ("""\
Force IA of NP ident ME
Shared INTEGER N(4, 4)
Private INTEGER I, J
End declarations
Presched DO 10 I = 1, 4
      DO 20 J = 1, 4
      N(I, J) = I * 10 + J
20    CONTINUE
10 End presched DO
Barrier
      WRITE(*,*) "N", N(1, 1), N(4, 3)
End barrier
Join
      END
""", {"IA": {10: "N not a REAL array"}}),
    "inner_bounds_follow_the_row": ("""\
Force TR of NP ident ME
Shared REAL A(4, 4)
Private INTEGER I, J
End declarations
Presched DO 10 I = 1, 4
      DO 20 J = I, 4
      A(I, J) = 1.5 * J
20    CONTINUE
10 End presched DO
Barrier
      WRITE(*,*) "A", A(1, 1), A(2, 4), A(4, 1)
End barrier
Join
      END
""", {"TR": {10: "inner DO bounds not loop-invariant"}}),
}

#: a nest the analysis would call racy: row L lies inside the written
#: rows.  Facts that call it race-free get it past the recognizer, and
#: the runtime guard must still send it down the generic path.
OVERLAP = """\
Force OV of NP ident ME
Shared REAL A(6, 5)
Shared INTEGER L
Private INTEGER I, J
End declarations
Barrier
      L = 3
      DO 2 J = 1, 5
      DO 1 I = 1, 6
      A(I, J) = FLOAT(I * I + J)
1     CONTINUE
2     CONTINUE
End barrier
Presched DO 10 I = 1, 6
      DO 20 J = 1, 5
      A(I, J) = A(I, J) - A(L, J)
20    CONTINUE
10 End presched DO
Barrier
      WRITE(*,*) "A", A(1, 1), A(3, 2), A(4, 5), A(6, 3)
End barrier
Join
      END
"""

#: LU's step on a matrix whose pivot is zero: the generic path raises
ZERO_PIVOT = """\
Force ZP of NP ident ME
Shared REAL A(4, 4)
Private INTEGER I, J, K
End declarations
Barrier
      DO 2 J = 1, 4
      DO 1 I = 1, 4
      A(I, J) = FLOAT(I + J)
1     CONTINUE
2     CONTINUE
      A(1, 1) = 0.0
End barrier
      K = 1
Presched DO 10 I = K + 1, 4
      A(I, K) = A(I, K) / A(K, K)
      DO 20 J = K + 1, 4
      A(I, J) = A(I, J) - A(I, K) * A(K, J)
20    CONTINUE
10 End presched DO
Join
      END
"""


def race_free(routine, *labels):
    return {"version": 1, "files": [{"doalls": [
        {"routine": routine, "label": label, "race_free": True}
        for label in labels]}]}


def common_state(interp):
    """Every COMMON block's final storage, shared and private."""
    provider = interp.commons
    blocks = dict(provider._blocks)
    blocks.update(provider._private)
    return {key: [slot.value if isinstance(slot, Cell)
                  else slot.data.tolist() for slot in block]
            for key, block in blocks.items()}


@pytest.fixture()
def made(monkeypatch):
    """The interpreters ``force_run`` builds from now on, in order."""
    interps = []

    class Recording(Interpreter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            interps.append(self)

    monkeypatch.setattr(run_module, "Interpreter", Recording)
    return interps


def outcome(result, interp):
    stats = result.stats
    return (result.output, common_state(interp), result.makespan,
            stats.lock_acquisitions, stats.contended_acquisitions,
            stats.spin_cycles, stats.context_switches,
            stats.per_process_clock)


def sweep(made, source, facts=None):
    """Run ``source`` everywhere on both tiers; yield the default
    runs after checking each against the oracle and the kernel-free
    source tier."""
    for key in SIM_MACHINES:
        translation = force_translate(source, get_machine(key))
        for nproc in range(1, 5):
            where = f"{key} with nproc {nproc}"
            oracle = force_run(translation, nproc, codegen="interp")
            expected = outcome(oracle, made[-1])
            default = force_run(translation, nproc, facts=facts)
            assert outcome(default, made[-1]) == expected, where
            plain = force_run(translation, nproc, facts={})
            assert plain.kernelized_doalls == {}
            assert (default.stats.events, default.stats.statements) == \
                (plain.stats.events, plain.stats.statements), where
            yield default


@pytest.mark.parametrize("name", sorted(KERNELIZED))
def test_nest_kernelizes_and_matches_the_oracle(made, name):
    source, kernelized = KERNELIZED[name]
    for result in sweep(made, source):
        assert result.kernelized_doalls == kernelized
        assert result.kernel_refused == {}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_nest_runs_generic(made, name):
    source, refused = REFUSED[name]
    for result in sweep(made, source):
        assert result.kernelized_doalls == {}
        assert result.kernel_refused == refused


def test_guard_refuses_a_read_inside_the_written_rows(made):
    for result in sweep(made, OVERLAP, facts=race_free("OV", 10)):
        # the recognizer lowers it; only the runtime guard says no
        assert result.kernelized_doalls == {"OV": [10]}
        assert result.kernel_refused == \
            {"OV": {10: "runtime guard: write overlaps another access"}}


def test_zero_pivot_raises_the_generic_error():
    for key in SIM_MACHINES:
        translation = force_translate(ZERO_PIVOT, get_machine(key))
        for nproc in (1, 3):
            texts = []
            for tier in ("interp", "source"):
                with pytest.raises(FortranError) as caught:
                    force_run(translation, nproc, codegen=tier)
                texts.append(str(caught.value))
            assert texts[0] == texts[1]
            assert "division by zero" in texts[0]
    result = force_run(force_translate(ZERO_PIVOT.replace(
        "A(1, 1) = 0.0", "A(1, 1) = 2.0"), get_machine("hep")), 3)
    assert result.kernelized_doalls == {"ZP": [10]}
