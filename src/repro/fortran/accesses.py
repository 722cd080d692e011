"""What a parsed statement reads, writes and is guarded by, and the
affine form of integer subscripts.

One model over the trees :mod:`repro.fortran.parser` builds, shared by
the race analyzer (:mod:`repro.analysis`) and the DOALL kernel
recognizer in :mod:`repro.fortran.codegen`, so a race-freedom proof
and the kernel it licenses read the same representation.

Texts handed out here — an array reference's subscript, a guard
condition — are slices of the text the node was parsed from (the
parser records their offsets), so diagnostics quote the program as
written.  Identifiers are upper case, as the parser leaves them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fortran import ast_nodes as ast

#: key of the constant term of an affine form.
CONST = ""


@dataclass(frozen=True)
class Access:
    """One variable reference inside a statement."""

    name: str
    subscript: str | None       #: source text inside ``NAME( ... )``
    is_write: bool


@dataclass(frozen=True)
class Guard:
    """The condition of a logical or block IF."""

    text: str                   #: source text between the parentheses
    names: frozenset[str]       #: identifiers the condition mentions


def guard(stmt: ast.LogicalIf | ast.IfThen | ast.ElseIf,
          text: str) -> Guard:
    start, end = stmt.span
    return Guard(text[start:end], frozenset(
        access.name for access in expression_reads(stmt.cond, text)))


def expression_reads(expr: ast.Expr, text: str) -> list[Access]:
    """Every variable reference in ``expr``, in source order, as reads.

    An array reference comes before the references in its subscript.
    Intrinsic and function calls look like array references here; the
    caller's symbol table tells them apart.
    """
    out: list[Access] = []
    _reads(expr, text, out)
    return out


def statement_accesses(stmt: ast.Stmt,
                       text: str) -> tuple[list[Access], list[Guard]]:
    """The accesses of one statement and the logical-IF guards around it.

    Guards come outermost first, and their conditions are read before
    the guarded statement.  An assignment or READ writes its targets;
    a DO header reads its bounds (the index update is the loop's own
    business); CALL arguments are reads, because by-reference writes
    through non-Force subroutines are out of scope.  Declarations and
    control statements touch nothing.
    """
    out: list[Access] = []
    guards: list[Guard] = []
    while stmt.__class__ is ast.LogicalIf:
        guards.append(guard(stmt, text))
        _reads(stmt.cond, text, out)
        stmt = stmt.body
    cls = stmt.__class__
    if cls is ast.Assign:
        out += target_accesses((stmt.target,), text)
        _reads(stmt.expr, text, out)
    elif cls is ast.Read:
        out += target_accesses(stmt.targets, text)
    elif cls is ast.IfThen or cls is ast.ElseIf:
        _reads(stmt.cond, text, out)
    elif cls is ast.Do:
        for bound in (stmt.first, stmt.last, stmt.step):
            if bound is not None:
                _reads(bound, text, out)
    elif cls is ast.Call:
        for arg in stmt.args:
            _reads(arg, text, out)
    elif cls is ast.Write:
        for item in stmt.items:
            _reads(item, text, out)
    elif cls is ast.ComputedGoto:
        _reads(stmt.selector, text, out)
    return out, guards


def target_accesses(targets, text: str) -> list[Access]:
    """Writes of assignment targets, each followed by its subscript's
    reads."""
    out: list[Access] = []
    for target in targets:
        if target.__class__ is ast.Apply:
            out.append(Access(target.name, _subscript(target, text), True))
            for arg in target.args:
                _reads(arg, text, out)
        else:
            out.append(Access(target.name, None, True))
    return out


def _reads(expr: ast.Expr, text: str, out: list[Access]) -> None:
    cls = expr.__class__
    if cls is ast.Var:
        out.append(Access(expr.name, None, False))
    elif cls is ast.Apply:
        out.append(Access(expr.name, _subscript(expr, text), False))
        for arg in expr.args:
            _reads(arg, text, out)
    elif cls is ast.BinOp:
        _reads(expr.left, text, out)
        _reads(expr.right, text, out)
    elif cls is ast.UnaryOp:
        _reads(expr.operand, text, out)


def _subscript(ref: ast.Apply, text: str) -> str:
    start, end = ref.span
    return text[start:end]


# ----------------------------------------------------------------------
# affine subscripts
# ----------------------------------------------------------------------
def affine(expr: ast.Expr) -> dict[str, int] | None:
    """``{name: coeff}`` form of an integer expression, or ``None``.

    The constant term lives under :data:`CONST`: ``2*I + J - 1`` gives
    ``{"I": 2, "J": 1, "": -1}``.  Anything non-linear (a product of
    variables, division, a power, a function call or array reference,
    a REAL literal) is ``None``.
    """
    cls = expr.__class__
    if cls is ast.Num:
        return {CONST: expr.value} if expr.value.__class__ is int else None
    if cls is ast.Var:
        return {expr.name: 1}
    if cls is ast.UnaryOp:
        form = affine(expr.operand) if expr.op == "-" else None
        return None if form is None else _scale(form, -1)
    if cls is not ast.BinOp or expr.op not in ("+", "-", "*"):
        return None
    left, right = affine(expr.left), affine(expr.right)
    if left is None or right is None:
        return None
    if expr.op == "*":
        if left.keys() <= {CONST}:
            return _scale(right, left.get(CONST, 0))
        if right.keys() <= {CONST}:
            return _scale(left, right.get(CONST, 0))
        return None
    sign = 1 if expr.op == "+" else -1
    for key, coeff in right.items():
        left[key] = left.get(key, 0) + sign * coeff
    return left


def _scale(form: dict[str, int], factor: int) -> dict[str, int]:
    return {key: coeff * factor for key, coeff in form.items()}


def affine_difference(a: dict[str, int], b: dict[str, int]) -> int | None:
    """``a - b`` when it reduces to a constant, else ``None``."""
    for key in a.keys() | b.keys():
        if key != CONST and a.get(key, 0) != b.get(key, 0):
            return None
    return a.get(CONST, 0) - b.get(CONST, 0)


def unit_term(expr: ast.Expr) -> tuple[str | None, int] | None:
    """``(name, c)`` when ``expr`` has the affine form ``name + c``,
    ``(None, c)`` when it is the integer constant ``c``, else ``None``.

    These are the subscript forms a DOALL kernel slices by: ``name``
    is one of the nest's DO variables (the subscript walks that loop)
    or a scalar the nest never writes (the subscript is loop-invariant);
    the caller's symbol table tells which.
    """
    form = affine(expr)
    if form is None:
        return None
    names = form.keys() - {CONST}
    if not names:
        return None, form.get(CONST, 0)
    if len(names) != 1:
        return None
    (name,) = names
    if form[name] != 1:
        return None
    return name, form.get(CONST, 0)
