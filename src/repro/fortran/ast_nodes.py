"""AST node definitions for the F77 subset.

Expressions are small immutable trees.  Statements are flat records —
each program unit holds a flat statement list with precomputed jump
targets for block constructs, so ``GO TO`` into and out of blocks works
with classic Fortran semantics.

The parser shares parsed units between programs and expression trees
between statements (see :mod:`repro.fortran.parser`), so nothing writes
to a node once parsing is done; the one exception is
``Write.compiled_format``, filled lazily with the same value by every
writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fortran.values import FType


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for expression nodes."""
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: int | float
    ftype: FType


@dataclass(frozen=True, slots=True)
class Str(Expr):
    value: str


@dataclass(frozen=True, slots=True)
class LogConst(Expr):
    value: bool


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Apply(Expr):
    """``NAME(args)`` — array element, intrinsic or function call.

    Fortran cannot distinguish these syntactically; the interpreter
    resolves by symbol kind at evaluation time.  ``span`` is the
    ``(start, end)`` offset of the argument text between the
    parentheses in the statement text the node was parsed from; it
    takes no part in equality.
    """
    name: str
    args: tuple[Expr, ...]
    span: tuple[int, int] | None = field(default=None, compare=False,
                                         repr=False)


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str                # + - * / ** // .EQ. .AND. etc (upper case)
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    op: str                # - + .NOT.
    operand: Expr


def expr_weight(expr: Expr) -> int:
    """Node count, used as the simulated execution cost of evaluation."""
    if isinstance(expr, BinOp):
        return 1 + expr_weight(expr.left) + expr_weight(expr.right)
    if isinstance(expr, UnaryOp):
        return 1 + expr_weight(expr.operand)
    if isinstance(expr, Apply):
        return 2 + sum(expr_weight(a) for a in expr.args)
    return 1


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class Stmt:
    """Base class for statements; ``label`` is the numeric label or None."""
    __slots__ = ("label", "line", "weight", "index")

    def __init__(self) -> None:
        self.label: int | None = None
        self.line: int | None = None
        self.weight: int = 1
        self.index: int = -1       # flat position within the unit


class Declaration(Stmt):
    """Type declaration: entities are (name, bounds-exprs|None, char_len)."""
    __slots__ = ("ftype", "entities")

    def __init__(self, ftype: FType,
                 entities: list[tuple[str, list[tuple[Expr, Expr]] | None]]):
        super().__init__()
        self.ftype = ftype
        self.entities = entities


class DimensionDecl(Stmt):
    __slots__ = ("entities",)

    def __init__(self, entities):
        super().__init__()
        self.entities = entities   # same shape as Declaration.entities


class CommonDecl(Stmt):
    """``COMMON /BLK/ A, B(10)`` — one block per statement in our subset."""
    __slots__ = ("block", "entities")

    def __init__(self, block: str,
                 entities: list[tuple[str, list[tuple[Expr, Expr]] | None]]):
        super().__init__()
        self.block = block
        self.entities = entities


class ParameterDecl(Stmt):
    __slots__ = ("assignments",)

    def __init__(self, assignments: list[tuple[str, Expr]]):
        super().__init__()
        self.assignments = assignments


class DataDecl(Stmt):
    """``DATA name /values/`` — scalars and whole arrays only."""
    __slots__ = ("items",)

    def __init__(self, items: list[tuple[str, list[Expr]]]):
        super().__init__()
        self.items = items


class ExternalDecl(Stmt):
    __slots__ = ("names",)

    def __init__(self, names: list[str]):
        super().__init__()
        self.names = names


class Assign(Stmt):
    __slots__ = ("target", "expr")

    def __init__(self, target: Var | Apply, expr: Expr):
        super().__init__()
        self.target = target
        self.expr = expr


class LogicalIf(Stmt):
    """One-line ``IF (cond) statement``.

    ``span`` here and on the block-IF forms is the ``(start, end)``
    offset of the condition text between the parentheses.
    """
    __slots__ = ("cond", "body", "span")

    def __init__(self, cond: Expr, body: Stmt, span: tuple[int, int]):
        super().__init__()
        self.cond = cond
        self.body = body
        self.span = span


class IfThen(Stmt):
    """Block IF; ``false_target`` = index of matching ELSE IF/ELSE/END IF."""
    __slots__ = ("cond", "false_target", "span")

    def __init__(self, cond: Expr, span: tuple[int, int]):
        super().__init__()
        self.cond = cond
        self.false_target: int = -1
        self.span = span


class ElseIf(Stmt):
    """Reached by fallthrough = previous branch done -> jump to end."""
    __slots__ = ("cond", "false_target", "end_target", "span")

    def __init__(self, cond: Expr, span: tuple[int, int]):
        super().__init__()
        self.cond = cond
        self.false_target: int = -1
        self.end_target: int = -1
        self.span = span


class Else(Stmt):
    __slots__ = ("end_target",)

    def __init__(self) -> None:
        super().__init__()
        self.end_target: int = -1


class EndIf(Stmt):
    __slots__ = ()


class Do(Stmt):
    """``DO [label] var = first, last [, step]``.

    ``terminal`` is the flat index of the loop's terminal statement
    (labelled statement or the matching END DO).
    """
    __slots__ = ("var", "first", "last", "step", "term_label", "terminal")

    def __init__(self, var: str, first: Expr, last: Expr, step: Expr | None,
                 term_label: int | None):
        super().__init__()
        self.var = var
        self.first = first
        self.last = last
        self.step = step
        self.term_label = term_label
        self.terminal: int = -1


class EndDo(Stmt):
    __slots__ = ()


class Goto(Stmt):
    __slots__ = ("target_label", "target")

    def __init__(self, target_label: int):
        super().__init__()
        self.target_label = target_label
        self.target: int = -1


class ComputedGoto(Stmt):
    __slots__ = ("labels", "selector", "targets")

    def __init__(self, labels: list[int], selector: Expr):
        super().__init__()
        self.labels = labels
        self.selector = selector
        self.targets: list[int] = []


class Continue(Stmt):
    __slots__ = ()


class Call(Stmt):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[Expr]):
        super().__init__()
        self.name = name
        self.args = args


class Return(Stmt):
    __slots__ = ()


class Stop(Stmt):
    __slots__ = ("message",)

    def __init__(self, message: str | None = None):
        super().__init__()
        self.message = message


class Write(Stmt):
    """Output: list-directed, or FORMAT-directed when ``fmt_label``
    names a FORMAT statement."""
    __slots__ = ("items", "fmt_label", "compiled_format")

    def __init__(self, items: list[Expr], fmt_label: int | None = None):
        super().__init__()
        self.items = items
        self.fmt_label = fmt_label
        self.compiled_format = None    # filled lazily by the interpreter


class Read(Stmt):
    """List-directed input: ``READ(*,*) targets``."""
    __slots__ = ("targets",)

    def __init__(self, targets: list[Expr]):
        super().__init__()
        self.targets = targets


class FormatStmt(Stmt):
    """Recorded but not interpreted (output is list-directed)."""
    __slots__ = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text


class EndUnit(Stmt):
    """The END line of a program unit (acts as RETURN/STOP)."""
    __slots__ = ()
