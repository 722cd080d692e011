"""Construct-tree parser tests (sed-stage output → tree + symbols)."""

from repro._util.text import strip_margin
from repro.analysis.construct_parser import (
    KNOWN_MACROS,
    Construct,
    MacroStmt,
    Stmt,
    parse_macro_call,
    parse_program,
    walk_statements,
)
from repro.analysis.symbols import split_decl_list


def parse(src):
    return parse_program(strip_margin(src))


class TestMacroCallParsing:
    def test_no_args(self):
        assert parse_macro_call("barrier_begin()") == ("barrier_begin", [])

    def test_quoted_args(self):
        assert parse_macro_call("force_main(`CLIP',`NP',`ME')") == \
            ("force_main", ["CLIP", "NP", "ME"])

    def test_args_with_inner_parens(self):
        assert parse_macro_call("produce(`Q(I)',`W + F(2)')") == \
            ("produce", ["Q(I)", "W + F(2)"])

    def test_fortran_lines_are_filtered_by_known_macros(self):
        # The parser is permissive — `A(I) = B(I)` superficially looks
        # like a call — and the dispatcher filters on KNOWN_MACROS.
        for line in ("      A(I) = B(I)", "      CALL FRCQPT(1, 2)"):
            parsed = parse_macro_call(line)
            assert parsed is None or parsed[0] not in KNOWN_MACROS


class TestDeclListSplitting:
    def test_arrays_keep_their_commas(self):
        assert split_decl_list("A(100, 100), B") == \
            [("A", True), ("B", False)]

    def test_scalars(self):
        assert split_decl_list("I, J, K") == \
            [("I", False), ("J", False), ("K", False)]


class TestTree:
    SRC = """
        Force DEMO of NP ident ME
        Shared INTEGER TOTAL
        Private INTEGER K
        End declarations
        Barrier
              TOTAL = 0
        End barrier
        Selfsched DO 100 K = 1, 10
              Critical LCK
              TOTAL = TOTAL + K
              End critical
        100 End Selfsched DO
        Join
              END
    """

    def test_one_routine_with_symbols(self):
        program = parse(self.SRC)
        assert [d.code for d in program.diagnostics] == []
        (routine,) = program.routines
        assert routine.name == "DEMO"
        assert routine.ident_var == "ME"
        assert routine.symbols.storage_of("TOTAL") == "shared"
        assert routine.symbols.storage_of("K") == "private"

    def test_nesting_shape(self):
        (routine,) = parse(self.SRC).routines
        constructs = [n for n in routine.body if isinstance(n, Construct)]
        assert [c.kind for c in constructs] == ["barrier", "doall"]
        doall = constructs[1]
        assert doall.label == "100"
        assert doall.index_vars == ("K",)
        inner = [n for n in doall.body if isinstance(n, Construct)]
        assert [c.kind for c in inner] == ["critical"]
        assert inner[0].name == "LCK"

    def test_line_numbers_point_at_source(self):
        (routine,) = parse(self.SRC).routines
        barrier = next(n for n in routine.body
                       if isinstance(n, Construct))
        assert barrier.line == 5
        total_stmt = barrier.body[0]
        assert isinstance(total_stmt, Stmt)
        assert total_stmt.line == 6

    def test_forcesub_gets_its_own_routine(self):
        program = parse("""
            Force TOP of NP ident ME
            End declarations
            Forcecall STEP(1)
            Join
                  END
            Forcesub STEP(SCALE) of NP ident ME
            Shared INTEGER ACC
            End declarations
                  RETURN
                  END
        """)
        assert [r.name for r in program.routines] == ["TOP", "STEP"]
        sub = program.routines[1]
        assert sub.kind == "sub"
        assert sub.symbols.storage_of("SCALE") == "param"
        assert sub.symbols.storage_of("ACC") == "shared"


class TestContextWalk:
    def test_me_guard_is_tracked_across_blocks(self):
        program = parse("""
            Force P of NP ident ME
            Shared INTEGER S
            End declarations
                  IF (ME .EQ. 1) THEN
                  S = 1
                  ELSE
                  S = 2
                  END IF
                  S = 3
            Join
                  END
        """)
        (routine,) = program.routines
        ctx_by_text = {s.text.strip(): c
                       for s, c in walk_statements(routine)}
        assert ctx_by_text["S = 1"].guarded
        assert not ctx_by_text["S = 2"].guarded
        assert not ctx_by_text["S = 3"].guarded

    def test_logical_if_guard(self):
        program = parse("""
            Force P of NP ident ME
            Shared INTEGER S
            End declarations
                  IF (ME .EQ. 1) S = 1
            Join
                  END
        """)
        (routine,) = program.routines
        stmts = [(s.text.strip(), c.guarded)
                 for s, c in walk_statements(routine)]
        assert ("IF (ME .EQ. 1) S = 1", True) in stmts

    def test_macro_leaves_are_kept(self):
        program = parse("""
            Force P of NP ident ME
            Async INTEGER V
            Private INTEGER X
            End declarations
            Produce V = 1
              Consume V into X
            Join
                  END
        """)
        (routine,) = program.routines
        macros = [n.name for n in routine.body if isinstance(n, MacroStmt)]
        assert "produce" in macros
        assert "consume" in macros
