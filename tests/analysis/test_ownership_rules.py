"""Regression tests for the two seed F001 bugs this engine fixes.

Satellite 1 — the seed's assignment matcher missed logical-IF one-liners
(``IF (P .EQ. ME) X = 1``): the embedded assignment was invisible, so
neither the guarded (safe) nor the unguarded (racy) form produced the
right verdict.

Satellite 2 — any mention of the DOALL index inside a subscript was
treated as ownership, so ``A(I + J)`` (private ``J``) and other
non-injective terms passed.  Ownership now requires an affine
subscript whose collision equation forces the index — with every
other symbol replicated-by-storage-class (Shared or parameter).
"""

from repro._util.text import strip_margin
from repro.analysis import check_source
from repro.fortran.accesses import statement_accesses
from repro.fortran.parser import parse_statement


def _errors(source):
    return [d for d in check_source(strip_margin(source))
            if d.is_error]


class TestLogicalIfAssignments:
    def test_parse_assignment_unwraps_logical_if(self):
        accesses, guards = statement_accesses(
            *parse_statement("IF (P .EQ. ME) X = 1"))
        assert [a.name for a in accesses if a.is_write] == ["X"]
        assert [g.text for g in guards] == ["P .EQ. ME"]

    def test_me_guarded_write_is_clean(self):
        assert _errors("""
            Force G of NP ident ME
            Shared INTEGER S
            End declarations
                  IF (ME .EQ. 1) S = 1
            Join
                  END
        """) == []

    def test_unguarded_embedded_write_is_f001(self):
        (diag,) = _errors("""
            Force G of NP ident ME
            Shared INTEGER S
            Private INTEGER K
            End declarations
                  K = 1
                  IF (K .GT. 0) S = 1
            Join
                  END
        """)
        assert diag.code == "F001"
        assert diag.line == 6
        assert "S" in diag.message

    def test_two_different_guards_still_race_with_each_other(self):
        (diag,) = _errors("""
            Force G of NP ident ME
            Shared INTEGER S
            End declarations
                  IF (ME .EQ. 1) S = 1
                  IF (ME .EQ. 2) S = 2
            Join
                  END
        """)
        assert diag.witness.kind == "write/write"


class TestAffineSubscriptOwnership:
    HEAD = """
        Force A of NP ident ME
        Shared REAL A(100), B(100)
        Shared INTEGER N
        Private INTEGER I, J
        End declarations
        Barrier
              N = 50
        End barrier
    """
    TAIL = """
        Join
              END
    """

    def _loop(self, *body):
        lines = "\n".join(f"      {line}" for line in body)
        return _errors(self.HEAD
                       + f"Presched DO 10 I = 1, 50\n{lines}\n"
                         "10 End presched DO" + self.TAIL)

    def test_plain_index_is_owned(self):
        assert self._loop("A(I) = 1.0") == []

    def test_strided_index_is_owned(self):
        assert self._loop("A(2 * I) = 1.0") == []

    def test_shared_offset_is_owned(self):
        # injective in I: N is Shared, replicated by storage class
        assert self._loop("A(N - I) = 1.0") == []

    def test_private_offset_is_not_ownership(self):
        # the seed passed this: I appears in the subscript.  Nothing
        # proves two processes agree on private J, so A(I+J) races.
        (diag,) = self._loop("A(I + J) = 1.0")
        assert diag.code == "F001"
        assert "DOALL" in diag.message

    def test_reflected_read_aliases_the_write(self):
        # A(I) written while another process reads A(N - I): collision
        # does not force the iterations to coincide.
        (diag,) = self._loop("A(I) = 1.0", "B(I) = A(N - I)")
        assert diag.witness.kind == "read/write"

    def test_parity_separated_accesses_are_disjoint(self):
        assert self._loop("A(2 * I) = A(2 * I + 1)",
                          "B(I) = A(2 * I + 1)") == []

    def test_ident_subscript_partitions_by_process(self):
        assert _errors(self.HEAD + "      A(ME) = 1.0" + self.TAIL) == []
