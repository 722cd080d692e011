"""Parser for the F77 subset: source text → program units with flat
statement lists and resolved jump targets.

Parsed units are immutable once built and shared per process: a unit
whose header and (label, text, line) body were parsed before is
returned as the same :class:`ProgramUnit`, so its generated code is
reused as well (:mod:`repro.fortran.codegen` caches per unit).  Below
that, each distinct statement text is tokenized and parsed once into a
template; every position gets a copy with its label and line stamped
on it, sharing the template's expression trees.

:func:`parse_statement`, :func:`parse_expression` and
:func:`parse_expression_list` parse single texts for the static
analyzer, statements through the same template table.  Array
references and IF conditions record the offsets of their text, so a
caller can quote the source as written.
"""

from __future__ import annotations

import copy
import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro._util.errors import FortranError
from repro.fortran import ast_nodes as ast
from repro.fortran.ast_nodes import Expr, expr_weight
from repro.fortran.lexer import Token, TokenKind, tokenize_statement
from repro.fortran.values import FType, parse_type_name


# ----------------------------------------------------------------------
# program containers
# ----------------------------------------------------------------------
@dataclass(eq=False)     # identity semantics: hashable + weakref cache key
class ProgramUnit:
    """One PROGRAM / SUBROUTINE / FUNCTION."""

    kind: str                      # 'program' | 'subroutine' | 'function'
    name: str
    params: list[str]
    result_type: FType | None      # for functions
    statements: list[ast.Stmt]
    label_index: dict[int, int]    # statement label -> flat index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} {self.name} ({len(self.statements)} stmts)>"


@dataclass
class Program:
    """A parsed source file: all units, main unit identified."""

    units: dict[str, ProgramUnit]
    main: ProgramUnit | None

    def unit(self, name: str) -> ProgramUnit:
        try:
            return self.units[name.upper()]
        except KeyError as exc:
            raise FortranError(f"no program unit named {name}") from exc


# ----------------------------------------------------------------------
# line assembly
# ----------------------------------------------------------------------
_LABELLED = re.compile(r"^\s*(\d{1,5})\s+(.*)$")


def _assemble_lines(source: str) -> list[tuple[int | None, str, int]]:
    """Merge continuations and split labels.

    Returns (label, statement-text, first-line-number) triples.
    Comments (``C``/``*``/``!`` in column one) and blank lines vanish.
    """
    logical: list[tuple[int | None, str, int]] = []
    lines = [(lineno, stripped)
             for lineno, raw in enumerate(source.split("\n"), start=1)
             if raw[:1] not in ("C", "c", "*", "!")
             and (stripped := raw.strip())]
    for first, text in join_continuations(lines):
        match = _LABELLED.match(text)
        label = int(match.group(1)) if match else None
        logical.append((label, match.group(2) if match else text, first))
    return logical


def join_continuations(lines: Iterable[tuple[int, str]]
                       ) -> Iterator[tuple[int, str]]:
    """Merge continuation lines into statements.

    Takes (line number, stripped text) pairs and yields (first line
    number, statement text).  A trailing ``&`` continues onto the next
    line; a line starting with ``&`` extends the statement before it
    (the macro layer emits this style).
    """
    first = 0
    held: str | None = None     # a statement a leading '&' may extend
    pending: str | None = None  # a statement a trailing '&' continues
    for lineno, text in lines:
        if pending is None:
            if text[0] == "&" and held is not None:
                held += " " + text[1:].strip()
                continue
            if held is not None:
                yield first, held
            first = lineno
        else:
            text = pending + " " + text
        if text[-1] == "&":
            pending, held = text[:-1].rstrip(), None
        else:
            pending, held = None, text
    if held is not None:
        yield first, held
    if pending is not None:
        raise FortranError("a statement continued with '&' has no next line",
                           line=first)


# ----------------------------------------------------------------------
# token cursor
# ----------------------------------------------------------------------
class _Cursor:
    def __init__(self, tokens: list[Token], line: int | None) -> None:
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOS:
            self.pos += 1
        return token

    def accept_op(self, text: str) -> bool:
        if self.peek().is_op(text):
            self.next()
            return True
        return False

    def accept_name(self, text: str) -> bool:
        if self.peek().is_name(text):
            self.next()
            return True
        return False

    def expect_op(self, text: str) -> None:
        if not self.accept_op(text):
            raise FortranError(f"expected {text!r}, found "
                               f"{self.peek().text!r}", line=self.line)

    def expect_name_token(self) -> str:
        token = self.next()
        if token.kind is not TokenKind.NAME:
            raise FortranError(f"expected a name, found {token.text!r}",
                               line=self.line)
        return token.text

    def at_eos(self) -> bool:
        return self.peek().kind is TokenKind.EOS

    def expect_eos(self) -> None:
        if not self.at_eos():
            raise FortranError(
                f"trailing tokens starting at {self.peek().text!r}",
                line=self.line)


# ----------------------------------------------------------------------
# expression parsing (precedence climbing)
# ----------------------------------------------------------------------
def _parse_expression(cursor: _Cursor) -> Expr:
    return _parse_or(cursor)


def _parse_or(cursor: _Cursor) -> Expr:
    left = _parse_and(cursor)
    while cursor.accept_op(".OR."):
        left = ast.BinOp(".OR.", left, _parse_and(cursor))
    return left


def _parse_and(cursor: _Cursor) -> Expr:
    left = _parse_not(cursor)
    while cursor.accept_op(".AND."):
        left = ast.BinOp(".AND.", left, _parse_not(cursor))
    return left


def _parse_not(cursor: _Cursor) -> Expr:
    if cursor.accept_op(".NOT."):
        return ast.UnaryOp(".NOT.", _parse_not(cursor))
    return _parse_relational(cursor)


_REL_OPS = (".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.")


def _parse_relational(cursor: _Cursor) -> Expr:
    left = _parse_additive(cursor)
    for op in _REL_OPS:
        if cursor.accept_op(op):
            return ast.BinOp(op, left, _parse_additive(cursor))
    return left


def _parse_additive(cursor: _Cursor) -> Expr:
    # Leading sign
    if cursor.accept_op("-"):
        left: Expr = ast.UnaryOp("-", _parse_term(cursor))
    elif cursor.accept_op("+"):
        left = _parse_term(cursor)
    else:
        left = _parse_term(cursor)
    while True:
        if cursor.accept_op("+"):
            left = ast.BinOp("+", left, _parse_term(cursor))
        elif cursor.accept_op("-"):
            left = ast.BinOp("-", left, _parse_term(cursor))
        elif cursor.accept_op("//"):
            left = ast.BinOp("//", left, _parse_term(cursor))
        else:
            return left


def _parse_term(cursor: _Cursor) -> Expr:
    left = _parse_power(cursor)
    while True:
        if cursor.accept_op("*"):
            left = ast.BinOp("*", left, _parse_power(cursor))
        elif cursor.accept_op("/"):
            left = ast.BinOp("/", left, _parse_power(cursor))
        else:
            return left


def _parse_power(cursor: _Cursor) -> Expr:
    base = _parse_primary(cursor)
    if cursor.accept_op("**"):
        # Right-associative; exponent may carry its own unary minus.
        if cursor.accept_op("-"):
            return ast.BinOp("**", base, ast.UnaryOp("-", _parse_power(cursor)))
        return ast.BinOp("**", base, _parse_power(cursor))
    return base


def _parse_primary(cursor: _Cursor) -> Expr:
    token = cursor.peek()
    if token.kind is TokenKind.INT:
        cursor.next()
        return ast.Num(int(token.text), FType.INTEGER)
    if token.kind is TokenKind.REAL:
        cursor.next()
        text = token.text.replace("D", "E")
        ftype = FType.DOUBLE if "D" in token.text else FType.REAL
        return ast.Num(float(text), ftype)
    if token.kind is TokenKind.STRING:
        cursor.next()
        return ast.Str(token.text)
    if token.is_op(".TRUE."):
        cursor.next()
        return ast.LogConst(True)
    if token.is_op(".FALSE."):
        cursor.next()
        return ast.LogConst(False)
    if token.is_op("("):
        cursor.next()
        inner = _parse_expression(cursor)
        cursor.expect_op(")")
        return inner
    if token.is_op("-"):
        cursor.next()
        return ast.UnaryOp("-", _parse_primary(cursor))
    if token.kind is TokenKind.NAME:
        cursor.next()
        if cursor.peek().is_op("("):
            start = cursor.next().pos + 1
            args: list[Expr] = []
            if not cursor.peek().is_op(")"):
                args.append(_parse_expression(cursor))
                while cursor.accept_op(","):
                    args.append(_parse_expression(cursor))
            end = cursor.peek().pos
            cursor.expect_op(")")
            return ast.Apply(token.text, tuple(args), (start, end))
        return ast.Var(token.text)
    raise FortranError(f"unexpected token {token.text!r} in expression",
                       line=cursor.line)


# ----------------------------------------------------------------------
# statement parsing
# ----------------------------------------------------------------------
_TYPE_KEYWORDS = ("INTEGER", "REAL", "LOGICAL", "COMPLEX", "CHARACTER",
                  "DOUBLE")


def _looks_like_assignment(cursor: _Cursor) -> bool:
    """True if the statement is ``name [ (subs) ] = expr``.

    Needed because keywords are not reserved: ``IF(I) = 3`` assigns to
    an array named IF.  We scan past an optional parenthesized group and
    look for ``=``.
    """
    if cursor.peek().kind is not TokenKind.NAME:
        return False
    i = cursor.pos + 1
    tokens = cursor.tokens
    if i < len(tokens) and tokens[i].is_op("("):
        depth = 1
        i += 1
        while i < len(tokens) and depth:
            if tokens[i].is_op("("):
                depth += 1
            elif tokens[i].is_op(")"):
                depth -= 1
            i += 1
    return i < len(tokens) and tokens[i].is_op("=")


def _parse_entity_list(cursor: _Cursor):
    """Parse ``A, B(10), C(0:N, M)`` into entity tuples."""
    entities: list[tuple[str, list[tuple[Expr | None, Expr]] | None]] = []
    while True:
        name = cursor.expect_name_token()
        bounds: list[tuple[Expr | None, Expr]] | None = None
        if cursor.accept_op("("):
            bounds = []
            while True:
                first = _parse_expression(cursor)
                if cursor.accept_op(":"):
                    second = _parse_expression(cursor)
                    bounds.append((first, second))
                else:
                    bounds.append((None, first))
                if not cursor.accept_op(","):
                    break
            cursor.expect_op(")")
        entities.append((name, bounds))
        if not cursor.accept_op(","):
            break
    return entities


def _parse_statement(cursor: _Cursor, raw_text: str) -> ast.Stmt:
    """Parse one statement (cursor positioned at its first token)."""
    # Assignment has priority over keyword forms (non-reserved words).
    if _looks_like_assignment(cursor):
        target = _parse_primary(cursor)
        if not isinstance(target, (ast.Var, ast.Apply)):
            raise FortranError("bad assignment target", line=cursor.line)
        cursor.expect_op("=")
        expr = _parse_expression(cursor)
        cursor.expect_eos()
        return ast.Assign(target, expr)

    token = cursor.peek()
    if token.kind is not TokenKind.NAME:
        raise FortranError(f"cannot parse statement {raw_text!r}",
                           line=cursor.line)
    keyword = token.text

    if keyword in _TYPE_KEYWORDS:
        return _parse_declaration(cursor)
    if keyword == "DIMENSION":
        cursor.next()
        return ast.DimensionDecl(_parse_entity_list(cursor))
    if keyword == "COMMON":
        return _parse_common(cursor)
    if keyword == "PARAMETER":
        return _parse_parameter(cursor)
    if keyword == "DATA":
        return _parse_data(cursor)
    if keyword == "EXTERNAL" or keyword == "INTRINSIC":
        cursor.next()
        names = [cursor.expect_name_token()]
        while cursor.accept_op(","):
            names.append(cursor.expect_name_token())
        cursor.expect_eos()
        return ast.ExternalDecl(names)
    if keyword == "IF":
        return _parse_if(cursor, raw_text)
    if keyword == "ELSEIF" or keyword == "ELSE":
        cursor.next()
        if keyword == "ELSE" and not cursor.accept_name("IF"):
            cursor.expect_eos()
            return ast.Else()
        cond, span = _condition(cursor)
        if not cursor.accept_name("THEN"):
            raise FortranError("ELSE IF must end with THEN", line=cursor.line)
        return ast.ElseIf(cond, span)
    if keyword == "ENDIF":
        cursor.next()
        cursor.expect_eos()
        return ast.EndIf()
    if keyword == "END":
        cursor.next()
        if cursor.accept_name("IF"):
            cursor.expect_eos()
            return ast.EndIf()
        if cursor.accept_name("DO"):
            cursor.expect_eos()
            return ast.EndDo()
        cursor.expect_eos()
        return ast.EndUnit()
    if keyword == "ENDDO":
        cursor.next()
        cursor.expect_eos()
        return ast.EndDo()
    if keyword == "DO":
        return _parse_do(cursor)
    if keyword == "GOTO":
        cursor.next()
        return _parse_goto_tail(cursor)
    if keyword == "GO":
        cursor.next()
        if not cursor.accept_name("TO"):
            raise FortranError("expected TO after GO", line=cursor.line)
        return _parse_goto_tail(cursor)
    if keyword == "CONTINUE":
        cursor.next()
        cursor.expect_eos()
        return ast.Continue()
    if keyword == "CALL":
        cursor.next()
        name = cursor.expect_name_token()
        args: list[Expr] = []
        if cursor.accept_op("("):
            if not cursor.peek().is_op(")"):
                args.append(_parse_expression(cursor))
                while cursor.accept_op(","):
                    args.append(_parse_expression(cursor))
            cursor.expect_op(")")
        cursor.expect_eos()
        return ast.Call(name, args)
    if keyword == "RETURN":
        cursor.next()
        cursor.expect_eos()
        return ast.Return()
    if keyword == "STOP":
        cursor.next()
        message = None
        if not cursor.at_eos():
            token = cursor.next()
            message = token.text
        cursor.expect_eos()
        return ast.Stop(message)
    if keyword == "WRITE":
        return _parse_write(cursor)
    if keyword == "READ":
        return _parse_read(cursor)
    if keyword == "PRINT":
        cursor.next()
        if not cursor.accept_op("*"):
            raise FortranError("only PRINT * is supported", line=cursor.line)
        items: list[Expr] = []
        if cursor.accept_op(","):
            items.append(_parse_expression(cursor))
            while cursor.accept_op(","):
                items.append(_parse_expression(cursor))
        cursor.expect_eos()
        return ast.Write(items)
    if keyword == "FORMAT":
        return ast.FormatStmt(raw_text)
    if keyword == "IMPLICIT":
        # IMPLICIT NONE accepted and ignored (we type-check dynamically).
        cursor.next()
        if cursor.accept_name("NONE"):
            cursor.expect_eos()
            return ast.Continue()
        raise FortranError("only IMPLICIT NONE is supported",
                           line=cursor.line)
    raise FortranError(f"unsupported statement {raw_text!r}",
                       line=cursor.line)


def _parse_declaration(cursor: _Cursor) -> ast.Stmt:
    first = cursor.expect_name_token()
    if first == "DOUBLE":
        if not cursor.accept_name("PRECISION"):
            raise FortranError("expected PRECISION after DOUBLE",
                               line=cursor.line)
        ftype = FType.DOUBLE
    elif first == "CHARACTER":
        ftype = FType.CHARACTER
        # CHARACTER*n — length recorded but not enforced.
        if cursor.accept_op("*"):
            cursor.next()
    else:
        ftype = parse_type_name(first)
    # FUNCTION prefixed by a type is handled by the unit splitter, so
    # here the remainder is always an entity list.
    entities = _parse_entity_list(cursor)
    cursor.expect_eos()
    return ast.Declaration(ftype, entities)


def _parse_common(cursor: _Cursor) -> ast.Stmt:
    cursor.next()
    cursor.expect_op("/")
    block = cursor.expect_name_token()
    cursor.expect_op("/")
    entities = _parse_entity_list(cursor)
    cursor.expect_eos()
    return ast.CommonDecl(block, entities)


def _parse_parameter(cursor: _Cursor) -> ast.Stmt:
    cursor.next()
    cursor.expect_op("(")
    assignments: list[tuple[str, Expr]] = []
    while True:
        name = cursor.expect_name_token()
        cursor.expect_op("=")
        assignments.append((name, _parse_expression(cursor)))
        if not cursor.accept_op(","):
            break
    cursor.expect_op(")")
    cursor.expect_eos()
    return ast.ParameterDecl(assignments)


def _parse_data_constant(cursor: _Cursor) -> Expr:
    """A DATA value: signed literal, logical, string or named constant.

    Full expressions are not allowed here — the closing ``/`` would be
    indistinguishable from division.
    """
    negate = False
    if cursor.accept_op("-"):
        negate = True
    elif cursor.accept_op("+"):
        pass
    token = cursor.next()
    if token.kind is TokenKind.INT:
        value: Expr = ast.Num(int(token.text), FType.INTEGER)
    elif token.kind is TokenKind.REAL:
        value = ast.Num(float(token.text.replace("D", "E")), FType.REAL)
    elif token.kind is TokenKind.STRING:
        value = ast.Str(token.text)
    elif token.is_op(".TRUE."):
        value = ast.LogConst(True)
    elif token.is_op(".FALSE."):
        value = ast.LogConst(False)
    elif token.kind is TokenKind.NAME:
        value = ast.Var(token.text)
    else:
        raise FortranError(f"bad DATA constant {token.text!r}",
                           line=cursor.line)
    if negate:
        return ast.UnaryOp("-", value)
    return value


def _parse_data(cursor: _Cursor) -> ast.Stmt:
    cursor.next()
    items: list[tuple[str, list[Expr]]] = []
    while True:
        name = cursor.expect_name_token()
        cursor.expect_op("/")
        values: list[Expr] = [_parse_data_constant(cursor)]
        while cursor.accept_op(","):
            values.append(_parse_data_constant(cursor))
        cursor.expect_op("/")
        items.append((name, values))
        if not cursor.accept_op(","):
            break
    cursor.expect_eos()
    return ast.DataDecl(items)


def _condition(cursor: _Cursor) -> tuple[Expr, tuple[int, int]]:
    """``( expr )`` after IF: the expression and the offsets of the
    text between the parentheses."""
    start = cursor.peek().pos + 1
    cursor.expect_op("(")
    cond = _parse_expression(cursor)
    end = cursor.peek().pos
    cursor.expect_op(")")
    return cond, (start, end)


def _parse_if(cursor: _Cursor, raw_text: str) -> ast.Stmt:
    cursor.next()
    cond, span = _condition(cursor)
    if cursor.accept_name("THEN"):
        cursor.expect_eos()
        return ast.IfThen(cond, span)
    # One-line logical IF: parse the contained simple statement.
    body = _parse_statement(cursor, raw_text)
    if isinstance(body, (ast.IfThen, ast.ElseIf, ast.Else, ast.EndIf,
                         ast.Do, ast.EndDo, ast.Declaration)):
        raise FortranError("invalid statement in logical IF",
                           line=cursor.line)
    return ast.LogicalIf(cond, body, span)


def _parse_do(cursor: _Cursor) -> ast.Stmt:
    cursor.next()
    term_label: int | None = None
    if cursor.peek().kind is TokenKind.INT:
        term_label = int(cursor.next().text)
    var = cursor.expect_name_token()
    cursor.expect_op("=")
    first = _parse_expression(cursor)
    cursor.expect_op(",")
    last = _parse_expression(cursor)
    step = None
    if cursor.accept_op(","):
        step = _parse_expression(cursor)
    cursor.expect_eos()
    return ast.Do(var, first, last, step, term_label)


def _parse_goto_tail(cursor: _Cursor) -> ast.Stmt:
    if cursor.accept_op("("):
        labels = [int(cursor.next().text)]
        while cursor.accept_op(","):
            labels.append(int(cursor.next().text))
        cursor.expect_op(")")
        cursor.accept_op(",")
        selector = _parse_expression(cursor)
        cursor.expect_eos()
        return ast.ComputedGoto(labels, selector)
    token = cursor.next()
    if token.kind is not TokenKind.INT:
        raise FortranError(f"expected label after GO TO, found "
                           f"{token.text!r}", line=cursor.line)
    cursor.expect_eos()
    return ast.Goto(int(token.text))


def _parse_write(cursor: _Cursor) -> ast.Stmt:
    cursor.next()
    cursor.expect_op("(")
    # Unit: * or 6 treated as stdout; anything else rejected.
    unit_token = cursor.next()
    if not (unit_token.is_op("*") or
            (unit_token.kind is TokenKind.INT and unit_token.text == "6")):
        raise FortranError("only WRITE(*,*) / WRITE(6,*) supported",
                           line=cursor.line)
    cursor.expect_op(",")
    fmt_token = cursor.next()
    fmt_label = None
    if fmt_token.kind is TokenKind.INT:
        fmt_label = int(fmt_token.text)
    elif not fmt_token.is_op("*"):
        raise FortranError("WRITE format must be * or a FORMAT label",
                           line=cursor.line)
    cursor.expect_op(")")
    items: list[Expr] = []
    if not cursor.at_eos():
        items.append(_parse_expression(cursor))
        while cursor.accept_op(","):
            items.append(_parse_expression(cursor))
    cursor.expect_eos()
    return ast.Write(items, fmt_label)


def _parse_read(cursor: _Cursor) -> ast.Stmt:
    cursor.next()
    cursor.expect_op("(")
    unit_token = cursor.next()
    if not (unit_token.is_op("*") or
            (unit_token.kind is TokenKind.INT and unit_token.text == "5")):
        raise FortranError("only READ(*,*) / READ(5,*) supported",
                           line=cursor.line)
    cursor.expect_op(",")
    if not cursor.accept_op("*"):
        raise FortranError("only list-directed READ supported",
                           line=cursor.line)
    cursor.expect_op(")")
    targets: list[Expr] = []
    targets.append(_parse_primary(cursor))
    while cursor.accept_op(","):
        targets.append(_parse_primary(cursor))
    cursor.expect_eos()
    for target in targets:
        if not isinstance(target, (ast.Var, ast.Apply)):
            raise FortranError("READ target must be a variable",
                               line=cursor.line)
    return ast.Read(targets)


# ----------------------------------------------------------------------
# unit splitting & target resolution
# ----------------------------------------------------------------------
_UNIT_HEADER = re.compile(
    r"^\s*(?:(INTEGER|REAL|LOGICAL|DOUBLE\s+PRECISION)\s+)?"
    r"(PROGRAM|SUBROUTINE|FUNCTION)\s+([A-Za-z][A-Za-z0-9_$]*)\s*"
    r"(\(([^)]*)\))?\s*$",
    re.IGNORECASE)


#: digest of a unit's header and body -> its parsed unit.  Line numbers
#: are part of the key, so a shared unit's statements (and the errors
#: they raise) cite the lines of every source it is shared by.  Filled
#: without a lock: a racing fill parses the same unit twice and keeps
#: the first.  A unit that fails to parse stores nothing.
_UNITS: dict[bytes, ProgramUnit] = {}
#: Past this many entries new units are parsed per use but not kept.
_MAX_UNITS = 512

#: statement text -> its parsed template (never handed out: every
#: position gets a copy).  Same policy as ``_UNITS``.
_TEMPLATES: dict[str, ast.Stmt] = {}
_MAX_TEMPLATES = 4096

_END_LINE = re.compile(r"^\s*END\s*$", re.IGNORECASE)


def parse_source(source: str) -> Program:
    """Parse a full source file into a :class:`Program`.

    The :class:`Program` is fresh on every call; its units come from
    the per-process unit table when they were parsed before.
    """
    logical = _assemble_lines(source)
    units: dict[str, ProgramUnit] = {}
    main: ProgramUnit | None = None
    i = 0
    n = len(logical)
    while i < n:
        label, text, lineno = logical[i]
        header = _UNIT_HEADER.match(text)
        if header is None:
            raise FortranError(
                f"expected PROGRAM/SUBROUTINE/FUNCTION, found {text!r}",
                line=lineno)
        type_prefix, kind_word, name, _, param_text = header.groups()
        kind = kind_word.lower()
        params: list[str] = []
        if param_text:
            params = [p.strip().upper() for p in param_text.split(",")
                      if p.strip()]
        result_type = None
        if type_prefix:
            result_type = parse_type_name(" ".join(type_prefix.upper()
                                                   .split()))
        i += 1
        start = i
        while i < n:
            i += 1
            if _END_LINE.match(logical[i - 1][1]):
                break
        body = logical[start:i]
        key = hashlib.sha256(repr((text, lineno, body)).encode()).digest()
        unit = _UNITS.get(key)
        if unit is None:
            unit = _build_unit(kind, name.upper(), params, result_type,
                               body)
            if len(_UNITS) < _MAX_UNITS:
                unit = _UNITS.setdefault(key, unit)
        units[unit.name] = unit
        if kind == "program":
            if main is not None:
                raise FortranError("multiple PROGRAM units")
            main = unit
    return Program(units=units, main=main)


def _build_unit(kind: str, name: str, params: list[str],
                result_type: FType | None,
                body: list[tuple[int | None, str, int]]) -> ProgramUnit:
    statements: list[ast.Stmt] = []
    label_index: dict[int, int] = {}
    for label, text, lineno in body:
        stmt = _stamped(text, label, lineno)
        if label is not None:
            if label in label_index:
                raise FortranError(f"duplicate label {label}", line=lineno,
                                   unit=name)
            label_index[label] = len(statements)
        statements.append(stmt)
    if not statements or not isinstance(statements[-1], ast.EndUnit):
        raise FortranError(f"unit {name} missing END", unit=name)
    for idx, stmt in enumerate(statements):
        stmt.index = idx
    unit = ProgramUnit(kind=kind, name=name, params=params,
                       result_type=result_type, statements=statements,
                       label_index=label_index)
    _resolve_targets(unit)
    return unit


def _stamped(text: str, label: int | None, lineno: int) -> ast.Stmt:
    """A fresh statement for one position: a copy of the text's
    template with the label and line stamped on it.  A logical IF's
    body is copied too, because target resolution writes to it."""
    template = _TEMPLATES.get(text)
    if template is None:
        cursor = _Cursor(tokenize_statement(text, line=lineno), lineno)
        template = _parse_statement(cursor, text)
        template.weight = _statement_weight(template)
        if len(_TEMPLATES) < _MAX_TEMPLATES:
            _TEMPLATES[text] = template
    stmt = copy.copy(template)
    if stmt.__class__ is ast.LogicalIf:
        stmt.body = copy.copy(stmt.body)
    stmt.label = label
    stmt.line = lineno
    return stmt


def parse_statement(text: str) -> tuple[ast.Stmt, str]:
    """Parse one statement line the way :func:`parse_source` does.

    A leading numeric label is split off and the rest stripped; the
    statement is a copy of the same per-text template a parsed unit
    holds.  Returns the statement and the text its spans index.
    Raises :class:`FortranError` when the line is not a statement.
    """
    label = None
    text = text.strip()
    match = _LABELLED.match(text)
    if match:
        label, text = int(match.group(1)), match.group(2)
    return _stamped(text, label, None), text


def parse_expression(text: str) -> Expr:
    """Parse one expression; its spans index ``text``."""
    cursor = _Cursor(tokenize_statement(text), None)
    expr = _parse_expression(cursor)
    cursor.expect_eos()
    return expr


def parse_expression_list(text: str) -> list[tuple[Expr, str]]:
    """Parse ``e1, e2, ...`` (DOALL bounds, argument lists): each
    expression with its own stripped source text.  Spans index the
    whole ``text``."""
    cursor = _Cursor(tokenize_statement(text), None)
    items = []
    while True:
        start = cursor.peek().pos
        expr = _parse_expression(cursor)
        items.append((expr, text[start:cursor.peek().pos].strip()))
        if not cursor.accept_op(","):
            break
    cursor.expect_eos()
    return items


def _statement_weight(stmt: ast.Stmt) -> int:
    """Simulated cost of one execution of this statement (in cycles)."""
    if isinstance(stmt, ast.Assign):
        return 1 + expr_weight(stmt.expr) + expr_weight(stmt.target)
    if isinstance(stmt, ast.LogicalIf):
        return 1 + expr_weight(stmt.cond) + _statement_weight(stmt.body)
    if isinstance(stmt, (ast.IfThen, ast.ElseIf)):
        return 1 + expr_weight(stmt.cond)
    if isinstance(stmt, ast.Do):
        return 2 + expr_weight(stmt.first) + expr_weight(stmt.last)
    if isinstance(stmt, ast.Call):
        return 2 + sum(expr_weight(a) for a in stmt.args)
    if isinstance(stmt, ast.Write):
        return 2 + sum(expr_weight(e) for e in stmt.items)
    return 1


def _resolve_targets(unit: ProgramUnit) -> None:
    """Fill jump targets: GOTOs, IF-block arms, DO terminals."""
    statements = unit.statements
    # GOTO labels
    for stmt in statements:
        if isinstance(stmt, ast.Goto):
            stmt.target = _label_to_index(unit, stmt.target_label, stmt)
        elif isinstance(stmt, ast.ComputedGoto):
            stmt.targets = [_label_to_index(unit, lbl, stmt)
                            for lbl in stmt.labels]
        elif isinstance(stmt, ast.LogicalIf) and \
                isinstance(stmt.body, ast.Goto):
            stmt.body.target = _label_to_index(unit, stmt.body.target_label,
                                               stmt)

    # IF-blocks: match arms with a stack.
    stack: list[list[int]] = []
    for idx, stmt in enumerate(statements):
        if isinstance(stmt, ast.IfThen):
            stack.append([idx])
        elif isinstance(stmt, (ast.ElseIf, ast.Else)):
            if not stack:
                raise FortranError("ELSE without IF", line=stmt.line,
                                   unit=unit.name)
            stack[-1].append(idx)
        elif isinstance(stmt, ast.EndIf):
            if not stack:
                raise FortranError("END IF without IF", line=stmt.line,
                                   unit=unit.name)
            arm_indices = stack.pop()
            arm_indices.append(idx)
            for a, arm_idx in enumerate(arm_indices[:-1]):
                arm = statements[arm_idx]
                nxt = arm_indices[a + 1]
                if isinstance(arm, ast.IfThen):
                    arm.false_target = nxt
                elif isinstance(arm, ast.ElseIf):
                    arm.false_target = nxt
                    arm.end_target = idx
                elif isinstance(arm, ast.Else):
                    arm.end_target = idx
    if stack:
        raise FortranError("IF block not closed", unit=unit.name)

    # DO loops: labelled terminal or matching END DO.
    do_stack: list[int] = []
    for idx, stmt in enumerate(statements):
        if isinstance(stmt, ast.Do):
            if stmt.term_label is not None:
                stmt.terminal = _label_to_index(unit, stmt.term_label, stmt)
                if stmt.terminal <= idx:
                    raise FortranError(
                        f"DO terminal label {stmt.term_label} precedes loop",
                        line=stmt.line, unit=unit.name)
            else:
                do_stack.append(idx)
        elif isinstance(stmt, ast.EndDo):
            if not do_stack:
                raise FortranError("END DO without DO", line=stmt.line,
                                   unit=unit.name)
            open_idx = do_stack.pop()
            statements[open_idx].terminal = idx
    if do_stack:
        raise FortranError("DO loop not closed", unit=unit.name)


def _label_to_index(unit: ProgramUnit, label: int, stmt: ast.Stmt) -> int:
    try:
        return unit.label_index[label]
    except KeyError as exc:
        raise FortranError(f"undefined label {label}", line=stmt.line,
                           unit=unit.name) from exc
