"""The analyzer's statement model: accesses, guards and affine forms
read from the trees the Fortran front end builds.

The expected accesses and guards were captured from the regex
statement classifier the analyzer used before it read statements with
:mod:`repro.fortran.parser`.  Names are upper case (the analyzer
upper-cased the old classifier's names too).  Where the two differ on
purpose, the case says why.
"""

import pytest

from repro._util.errors import FortranError
from repro._util.text import strip_margin
from repro.analysis import check_source
from repro.analysis.construct_parser import (
    MacroStmt,
    Routine,
    iter_constructs,
    parse_program,
)
from repro.analysis.facts import source_facts
from repro.analysis.phases import partition
from repro.fortran.accesses import (
    affine,
    affine_difference,
    guard,
    statement_accesses,
    unit_term,
)
from repro.fortran.parser import (
    parse_expression,
    parse_expression_list,
    parse_statement,
)
from repro.pipeline import run as pipeline_run

#: (statement, [(name, subscript, "w"/"r")], logical-IF guard text)
TABLE = [
    # labels and lower case: subscripts keep the source's spelling
    ("10    a(i) = b(i-1) + c",
     [("A", "i", "w"), ("I", None, "r"), ("B", "i-1", "r"),
      ("I", None, "r"), ("C", None, "r")],
     None),
    ("   20 X = Y",
     [("X", None, "w"), ("Y", None, "r")],
     None),
    # nested logical IF: conditions are read first, guards conjoin
    ("IF (ME .EQ. 1) IF (K .GT. 0) S = T(K)",
     [("ME", None, "r"), ("K", None, "r"), ("S", None, "w"),
      ("T", "K", "r"), ("K", None, "r")],
     "ME .EQ. 1 .AND. K .GT. 0"),
    ("if (me .eq. 1) s(me) = 0",
     [("ME", None, "r"), ("S", "me", "w"), ("ME", None, "r")],
     "me .eq. 1"),
    # .EQ. between subscripted references inside the condition
    ("IF (A(I) .EQ. B(J)) X = C(I, J)",
     [("A", "I", "r"), ("I", None, "r"), ("B", "J", "r"),
      ("J", None, "r"), ("X", None, "w"), ("C", "I, J", "r"),
      ("I", None, "r"), ("J", None, "r")],
     "A(I) .EQ. B(J)"),
    # .EQ. inside a subscript: the old classifier blanked dot-operators
    # out of the displayed subscript ("IDX(K   1)"); the source slice
    # keeps them
    ("S = T(IDX(K .EQ. 1))",
     [("S", None, "w"), ("T", "IDX(K .EQ. 1)", "r"),
      ("IDX", "K .EQ. 1", "r"), ("K", None, "r")],
     None),
    # block IF / ELSE IF / ELSE / END IF: only the conditions are read
    ("IF (A(I) .GT. 0) THEN", [("A", "I", "r"), ("I", None, "r")], None),
    ("ELSE IF (B .LT. ME) THEN",
     [("B", None, "r"), ("ME", None, "r")], None),
    ("ELSEIF (B(K) .LT. 2) THEN", [("B", "K", "r"), ("K", None, "r")],
     None),
    ("ELSE", [], None),
    ("END IF", [], None),
    ("ENDIF", [], None),
    # string literals that contain variable names are not references
    ("WRITE(*,*) 'TOTAL =', TOTAL", [("TOTAL", None, "r")], None),
    ('WRITE(*,*) "S(I)", S(I)', [("S", "I", "r"), ("I", None, "r")],
     None),
    ("X = Y ** 2 + Z(I) ** K",
     [("X", None, "w"), ("Y", None, "r"), ("Z", "I", "r"),
      ("I", None, "r"), ("K", None, "r")],
     None),
    # CALL arguments are reads; the old classifier also read the words
    # CALL and FLUSH of an argument-less CALL
    ("CALL SUB(A, B(I), K + 1)",
     [("A", None, "r"), ("B", "I", "r"), ("I", None, "r"),
      ("K", None, "r")],
     None),
    ("CALL FLUSH", [], None),
    # READ writes its targets; the old classifier also marked the
    # subscript's I as written, but READ only reads it
    ("READ(*,*) N, A(I)",
     [("N", None, "w"), ("A", "I", "w"), ("I", None, "r")], None),
    ("WRITE(*,*) A(I), B",
     [("A", "I", "r"), ("I", None, "r"), ("B", None, "r")], None),
    ("PRINT *, X, Y(J)",
     [("X", None, "r"), ("Y", "J", "r"), ("J", None, "r")], None),
    # DO headers read their bounds; an END DO loop's header is now read
    # like a labelled one (the old classifier read DO and J as names)
    ("DO 10 I = 1, N", [("N", None, "r")], None),
    ("DO 20 J = K, M(2), 2", [("K", None, "r"), ("M", "2", "r")], None),
    ("DO J = 1, N", [("N", None, "r")], None),
    ("END DO", [], None),
    ("CONTINUE", [], None),
    ("GO TO 10", [], None),
    # computed GO TO reads its selector (the old classifier read GOTO)
    ("GOTO (10, 20), K", [("K", None, "r")], None),
    ("RETURN", [], None),
    ("STOP", [], None),
    ("END", [], None),
    ("INTEGER I, J(10)", [], None),
    ("REAL X", [], None),
    # a REAL literal's exponent is not a variable (the old one read E3)
    ("X = .NOT. L .AND. M(I) .GE. 1.5E3",
     [("X", None, "w"), ("L", None, "r"), ("M", "I", "r"),
      ("I", None, "r")],
     None),
    ("A(I, J + 1) = A(I, J) * 2",
     [("A", "I, J + 1", "w"), ("I", None, "r"), ("J", None, "r"),
      ("A", "I, J", "r"), ("I", None, "r"), ("J", None, "r")],
     None),
    ("A( I ) = B( I + 1 )",
     [("A", " I ", "w"), ("I", None, "r"), ("B", " I + 1 ", "r"),
      ("I", None, "r")],
     None),
]


@pytest.mark.parametrize("text,accesses,guard_text", TABLE,
                         ids=[case[0].strip() for case in TABLE])
def test_statement_accesses(text, accesses, guard_text):
    refs, guards = statement_accesses(*parse_statement(text))
    assert [(r.name, r.subscript, "w" if r.is_write else "r")
            for r in refs] == accesses
    joined = " .AND. ".join(g.text for g in guards) if guards else None
    assert joined == guard_text


class TestGuards:
    @pytest.mark.parametrize("text,cond,names", [
        ("IF (A(I) .GT. 0) THEN", "A(I) .GT. 0", {"A", "I"}),
        ("ELSE IF (B .LT. ME) THEN", "B .LT. ME", {"B", "ME"}),
        ("  30 if ( me.eq.np ) x = 1", " me.eq.np ", {"ME", "NP"}),
        # a name inside a string literal is not mentioned
        ("IF (NAME .EQ. 'ME') X = 1", "NAME .EQ. 'ME'", {"NAME"}),
    ])
    def test_condition_text_and_names(self, text, cond, names):
        node, source = parse_statement(text)
        found = guard(node, source)
        assert found.text == cond
        assert found.names == names


class TestForceOperands:
    """Forcecall actuals and Produce/Consume operands, parsed from the
    sed-stage macro arguments."""

    def test_forcecall_actual_forms(self):
        # the macro node the construct parser makes for these actuals
        actuals = "A, A(I), I+1, B(J, K+1)"
        routine = Routine(name="P", kind="main", np_var="NP",
                          ident_var="ME", line=1, body=[MacroStmt(
                              2, "forcecall", ["SUB", actuals],
                              ([], parse_expression_list(actuals)))])
        rp = partition(routine)
        assert rp.calls[0].args == ("A", "A(I)", "I+1", "B(J, K+1)")
        # A passes an address; A(I) and B(J, K+1) read their subscripts;
        # I+1 is evaluated at the call site
        assert [(e.name, e.subscript, e.is_write) for e in rp.accesses] \
            == [("I", None, False), ("I", None, False),
                ("J", None, False), ("K", None, False)]

    def test_produce_consume_copy_putwork(self):
        program = parse_program(strip_margin("""
            Force P of NP ident ME
            Async REAL Q(4), R
            Private REAL X(4), Y, W
            Private INTEGER I, J, K, N
            Taskq WQ(8)
            End declarations
            Produce Q(I) = W + F(2)
              Consume Q(J) into X(K)
              Copy R into Y
            Putwork WQ = N - 1
            Join
                  END
        """))
        rp = partition(program.routines[0])
        assert [(e.site.line, e.name, e.subscript, e.is_write)
                for e in rp.accesses] == [
            (7, "W", None, False), (7, "F", "2", False),
            (7, "I", None, False),
            (8, "X", "K", True), (8, "K", None, False),
            (8, "J", None, False),
            (9, "Y", None, True),
            (10, "N", None, False)]


class TestExpressionActuals:
    def test_formal_bound_to_an_expression_keeps_its_precedence(self):
        # PUT writes A(2*(K+1)); read as the text A(2*K+1) it looked
        # odd-indexed and so disjoint from the caller's even A(2*K)
        (diag,) = check_source(strip_margin("""
            Force SUBST of NP ident ME
            Shared REAL A(40), B(40)
            Private INTEGER K
            End declarations
            Presched DO 10 K = 1, 10
                  B(K) = A(2*K)
            Forcecall PUT(K+1)
            10 End presched DO
            Join
                  END
            Forcesub PUT(J) of NP ident ME
            Shared REAL A(40)
            End declarations
                  A(2*J) = 1.0
                  RETURN
                  END
        """))
        assert diag.code == "F001"
        assert diag.witness.first.variable == "A(2*(K+1))"
        assert diag.witness.second.variable == "A(2*K)"


class TestAffine:
    @pytest.mark.parametrize("text,form", [
        ("I", {"I": 1}),
        ("I + 1", {"I": 1, "": 1}),
        ("2*I + J - 1", {"I": 2, "J": 1, "": -1}),
        ("N - I", {"N": 1, "I": -1}),
        ("-(I - 1)", {"I": -1, "": 1}),
        ("3*(K+1)", {"K": 3, "": 3}),
        ("I*J", None),
        ("I/2", None),
        ("MOD(I, 2)", None),
        ("1.5", None),
        ("2**I", None),
    ])
    def test_forms(self, text, form):
        assert affine(parse_expression(text)) == form

    def test_difference(self):
        k1 = affine(parse_expression("K + 1"))
        assert affine_difference(k1, affine(parse_expression("K"))) == 1
        assert affine_difference(k1, affine(parse_expression("J"))) is None

    @pytest.mark.parametrize("text,offset", [
        ("I", 0), ("I + 1", 1), ("I - 2", -2), ("3 + I", 3),
        ("2*I", None), ("I + J", None), ("1 - I", None), ("I + 1.0", None),
    ])
    def test_kernel_index_offset(self, text, offset):
        term = unit_term(parse_expression(text))
        assert (None if term is None else term[1]) == offset
        assert term is None or term[0] == "I"

    @pytest.mark.parametrize("text,term", [
        ("K", ("K", 0)), ("K + 1", ("K", 1)), ("7", (None, 7)),
        ("2 - 3", (None, -1)), ("K - K", None), ("N*K", None),
    ])
    def test_kernel_unit_term(self, text, term):
        assert unit_term(parse_expression(text)) == term


TRAILING_UNIT = """
    Force HOST of NP ident ME
    Shared REAL V(12)
    Private INTEGER I
    End declarations
    Presched DO 10 I = 1, 12
          V(I) = I
    10 End presched DO
    Barrier
          CALL HELP(3)
          WRITE(*,*) "V", V(12)
    End barrier
    Join
          END
          SUBROUTINE HELP(N)
          REAL V
          V = N
          END
"""


class TestTrailingPlainUnit:
    """A plain SUBROUTINE after the Force routine's END is not Force
    code: its local V is not the Shared V."""

    def test_not_analyzed_as_replicated_code(self):
        source = strip_margin(TRAILING_UNIT)
        assert check_source(source) == []
        (routine,) = parse_program(source).routines
        assert routine.body[-1].text == "END"

    def test_runs_cleanly(self):
        from repro.core import HEP, force_run
        from repro.pipeline import force_translate
        result = force_run(
            force_translate(strip_margin(TRAILING_UNIT), HEP), 2)
        assert result.output == ["V 12.0"]


REJECTED = """
    Force BAD of NP ident ME
    Shared REAL V(12)
    Private INTEGER I
    End declarations
    Presched DO 10 I = 1, 12
          V(I) = (I
    10 End presched DO
    Join
          END
"""


class TestRejectedStatements:
    def test_reported_as_f002_with_the_front_end_message(self):
        (diag,) = check_source(strip_margin(REJECTED))
        assert diag.code == "F002" and diag.is_error
        assert diag.line == 6
        assert "expected ')'" in diag.message

    def test_no_doall_is_race_free(self):
        (entry,) = source_facts(strip_margin(REJECTED))["files"]
        assert [d["race_free"] for d in entry["doalls"]] == [False]

    def test_bad_force_operand_is_reported(self):
        (diag,) = check_source(strip_margin("""
            Force BAD of NP ident ME
            Async REAL Q
            End declarations
            Produce Q = 1 +
            Join
                  END
        """))
        assert (diag.code, diag.line) == ("F002", 4)


CONTINUED = """
    Force CONT of NP ident ME
    Shared REAL A(12), X(12)
    Private INTEGER I
    End declarations
    Presched DO 10 I = 1, 11
          A(I) = I
          X(I) = A(I) + &
                 A({sub})
          X(I) = X(I) *
         &       2
    10 End presched DO
    Join
          END
"""

ONE_LINE = """
    Force CONT of NP ident ME
    Shared REAL A(12), X(12)
    Private INTEGER I
    End declarations
    Presched DO 10 I = 1, 11
          A(I) = I
          X(I) = A(I) + A({sub})
          X(I) = X(I) * 2
    10 End presched DO
    Join
          END
"""


class TestContinuations:
    """A trailing-& or leading-& continuation is read as one statement
    at its first line, as ``force run`` reads it."""

    @pytest.mark.parametrize("sub, race_free", [("I", True), ("I+1", False)])
    def test_same_verdict_as_on_one_line(self, sub, race_free):
        continued = strip_margin(CONTINUED.format(sub=sub))
        one_line = strip_margin(ONE_LINE.format(sub=sub))
        assert check_source(continued) == check_source(one_line)
        assert len(check_source(continued)) == (0 if race_free else 1)
        for source in (continued, one_line):
            (entry,) = source_facts(source)["files"]
            assert [d["race_free"] for d in entry["doalls"]] == [race_free]

    def test_merged_statement_text(self):
        source = strip_margin(CONTINUED.format(sub="I"))
        (routine,) = parse_program(source).routines
        (doall,) = iter_constructs(routine)
        texts = [(s.line, s.text) for s in doall.body]
        assert texts == [(6, "A(I) = I"), (7, "X(I) = A(I) + A(I)"),
                         (9, "X(I) = X(I) * 2")]

    def test_unfinished_continuation_is_rejected(self):
        (diag,) = check_source(strip_margin("""
            Force CONT of NP ident ME
            Shared REAL X
            End declarations
            Barrier
                  X = 1 + &
            End barrier
            Join
                  END
        """))
        assert (diag.code, diag.line) == ("F002", 5)


class TestProgramFacts:
    """``force run`` computes facts once per source; an analysis that
    rejects the source proves nothing, and an analysis bug fails."""

    SOURCE = strip_margin("""
        Force PF of NP ident ME
        Shared REAL V(8)
        Private INTEGER I
        End declarations
        Presched DO 10 I = 1, 8
              V(I) = 2.0 * I
        10 End presched DO
        Barrier
              WRITE(*,*) "V", V(8)
        End barrier
        Join
              END
    """)

    def _run(self, monkeypatch, exc):
        from repro.analysis import facts
        from repro.core import HEP, force_run
        from repro.pipeline import force_translate

        def refuse(source, filename="<source>"):
            raise exc

        monkeypatch.setattr(pipeline_run, "_FACTS", {})
        monkeypatch.setattr(facts, "source_facts", refuse)
        return force_run(force_translate(self.SOURCE, HEP), 2)

    def test_rejected_source_gets_no_facts_and_still_runs(
            self, monkeypatch):
        result = self._run(monkeypatch, FortranError("rejected"))
        assert pipeline_run._FACTS and \
            list(pipeline_run._FACTS.values()) == [{}]
        assert result.output == ["V 16.0"]

    def test_analysis_bug_propagates(self, monkeypatch):
        with pytest.raises(KeyError):
            self._run(monkeypatch, KeyError("walker bug"))
