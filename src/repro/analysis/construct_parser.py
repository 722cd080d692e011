"""Parse the sed-stage output into a construct tree with symbols.

The sed stage rewrites each Force statement into a parameterized macro
call (``barrier_begin()``, ``critical(`LCK')`` …) and passes every
other line through unchanged.  That stream is exactly the right level
for static analysis: this module rebuilds it into a tree of
synchronization constructs per routine, interleaved with the raw
Fortran statements, and fills a per-routine symbol table from the
declaration macros.

Every Fortran statement, and every expression a Force statement
carries (DOALL bounds, Forcecall actuals, Produce/Consume operands, a
Csect condition), is parsed by :mod:`repro.fortran.parser` — the front
end ``force run`` uses — so the checkers read the same trees the code
generator lowers.  A routine ends at its Fortran ``END``; plain
subroutines after it are not Force code and are left out.

Structural problems (unmatched ends, label mismatches, a Barrier
nested inside a Critical) and statements the front end rejects are
reported as diagnostics *during* the parse — the parser recovers and
keeps going so the other checkers can still run over a malformed
program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro._util.errors import FortranError
from repro.analysis.diagnostics import Diagnostic, error
from repro.analysis.symbols import (
    ASYNC,
    PARAM,
    PRIVATE,
    SHARED,
    TASKQ,
    Symbol,
    SymbolTable,
    split_decl_list,
)
from repro.fortran import ast_nodes as ast
from repro.fortran.accesses import guard
from repro.fortran.parser import (
    join_continuations,
    parse_expression_list,
    parse_statement,
)
from repro.sedstage import translate_force_source

_MACRO_CALL = re.compile(r"^\s*(\w+)\((.*)\)\s*$")

#: opener macro -> construct kind
_OPENERS = {
    "barrier_begin": "barrier",
    "critical": "critical",
    "presched_do": "doall",
    "selfsched_do": "doall",
    "blocksched_do": "doall",
    "presched_do2": "doall",
    "selfsched_do2": "doall",
    "pcase": "pcase",
    "askfor": "askfor",
}

#: closer macro -> the opener macro it must match
_CLOSERS = {
    "barrier_end": "barrier_begin",
    "end_critical": "critical",
    "end_presched_do": "presched_do",
    "end_selfsched_do": "selfsched_do",
    "end_blocksched_do": "blocksched_do",
    "end_presched_do2": "presched_do2",
    "end_selfsched_do2": "selfsched_do2",
    "end_pcase": "pcase",
    "end_askfor": "askfor",
}

_DECLS = {
    "shared_decl": (SHARED, None),
    "private_decl": (PRIVATE, None),
    "async_decl": (ASYNC, None),
    "shared_common_decl": (SHARED, "common"),
    "private_common_decl": (PRIVATE, "common"),
    "async_common_decl": (ASYNC, "common"),
}

_LEAVES = frozenset({
    "produce", "consume", "copyasync", "voidasync", "putwork",
    "forcecall", "externf", "end_declarations",
})

#: Force leaf statement -> indices of its arguments that are expressions.
_EXPRESSION_ARGS = {
    "forcecall": (1,), "produce": (0, 1), "consume": (0, 1),
    "copyasync": (0, 1), "putwork": (1,),
}

KNOWN_MACROS = (frozenset(_OPENERS) | frozenset(_CLOSERS) | frozenset(_DECLS)
                | _LEAVES | {"force_main", "force_sub", "join_force",
                             "taskq_decl", "usect", "csect"})

#: how a construct replicates the statements in its body.
_SINGLE_PROCESS = {"barrier", "section"}


#: a parsed comma list: each expression with its own source text.
Exprs = list[tuple[ast.Expr, str]]


@dataclass
class Stmt:
    """A Fortran statement inside a routine."""

    line: int
    text: str                  #: statement text, label stripped
    #: the parsed statement (its spans index ``text``); ``None`` when
    #: the front end rejected it
    node: ast.Stmt | None = None


@dataclass
class MacroStmt:
    """A non-structural Force statement (Produce, Putwork, …)."""

    line: int
    name: str
    args: list[str]
    #: per argument, the parsed expressions (spans index the argument
    #: text); empty for arguments that are not expressions
    exprs: tuple[Exprs, ...] = ()


@dataclass
class Construct:
    """A structural Force construct and its body."""

    kind: str                  #: barrier | critical | doall | pcase | section | askfor
    line: int
    macro: str = ""            #: opener macro name (distinguishes DOALL flavours)
    name: str = ""             #: Critical lock / Pcase on-variable / Askfor queue
    label: str = ""            #: DOALL / Askfor statement label
    index_vars: tuple[str, ...] = ()
    #: loop-bound text per index var (``"1, N"`` / ``"1, N, 2"``).
    bounds: tuple[str, ...] = ()
    uid: int = 0               #: program-wide construct id, document order
    #: parsed ``bounds`` (DOALL) or condition (Csect), like
    #: :attr:`MacroStmt.exprs`
    exprs: tuple[Exprs, ...] = ()
    body: list["Node"] = field(default_factory=list)

    def statement(self) -> str:
        """Human name of the opening statement, for messages."""
        titles = {
            "barrier": "Barrier", "critical": "Critical", "pcase": "Pcase",
            "askfor": "Askfor", "section": "Usect/Csect",
        }
        if self.kind == "doall":
            suffix = " DO2" if self.macro.endswith("2") else " DO"
            return self.macro.split("_")[0].capitalize() + suffix
        return titles.get(self.kind, self.kind)


Node = Union[Stmt, MacroStmt, Construct]


@dataclass
class Routine:
    """One Force program unit (main force or Forcesub)."""

    name: str
    kind: str                  #: 'main' | 'sub'
    np_var: str
    ident_var: str
    line: int
    body: list[Node] = field(default_factory=list)
    symbols: SymbolTable = field(default_factory=SymbolTable)


@dataclass
class ForceProgram:
    """Whole-program parse result handed to the checkers."""

    filename: str
    routines: list[Routine] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: (outer lock, inner lock, line) for every nested Critical pair.
    lock_pairs: list[tuple[str, str, int]] = field(default_factory=list)
    #: lines of statements the Fortran front end rejected
    rejected: list[int] = field(default_factory=list)


def parse_macro_call(line: str) -> tuple[str, list[str]] | None:
    """Recognise one sed-emitted macro call, or return ``None``."""
    match = _MACRO_CALL.match(line)
    if not match:
        return None
    name, argtext = match.group(1), match.group(2)
    if not argtext:
        return name, []
    if argtext.startswith("`") and argtext.endswith("'"):
        return name, argtext[1:-1].split("',`")
    return name, [argtext]


def parse_program(source: str, filename: str = "<source>") -> ForceProgram:
    """Parse a Force source file into a construct tree per routine."""
    program = ForceProgram(filename=filename)
    parser = _Parser(program)
    sed_lines = translate_force_source(source).split("\n")
    raw_lines = source.split("\n")
    for lineno, (sed_line, raw) in enumerate(zip(sed_lines, raw_lines), 1):
        parser.feed(lineno, sed_line, raw)
    parser.finish(len(raw_lines))
    return program


class _Parser:
    def __init__(self, program: ForceProgram) -> None:
        self.program = program
        self.routine: Routine | None = None
        self.stack: list[Construct] = []
        self.next_uid = 1
        #: Fortran lines since the last Force statement: (line, text)
        self.run: list[tuple[int, str]] = []

    # -- helpers -------------------------------------------------------
    def _report(self, diagnostic: Diagnostic) -> None:
        self.program.diagnostics.append(diagnostic)

    def _container(self) -> list[Node] | None:
        if self.stack:
            return self.stack[-1].body
        if self.routine is not None:
            return self.routine.body
        return None

    def _append(self, node: Node) -> None:
        container = self._container()
        if container is not None:
            container.append(node)

    def _reject(self, lineno: int, exc: FortranError) -> None:
        self.program.rejected.append(lineno)
        self._report(error(
            "F002", lineno,
            f"the Fortran front end rejects this statement: {exc}",
            "force run parses it with the same front end; rewrite it "
            "in the supported Fortran subset"))

    def _expressions(self, lineno: int, text: str) -> Exprs:
        if not text.strip():
            return []
        try:
            return parse_expression_list(text)
        except FortranError as exc:
            self._reject(lineno, exc)
            return []

    def _statement(self, lineno: int, text: str) -> None:
        try:
            node, text = parse_statement(text)
        except FortranError as exc:
            self._reject(lineno, exc)
            node = None
        self._append(Stmt(lineno, text, node))
        if node.__class__ is ast.EndUnit:
            self._close_routine(lineno)

    def _close_routine(self, lineno: int) -> None:
        for construct in reversed(self.stack):
            self._report(error(
                "F002", construct.line,
                f"{construct.statement()} opened here is never closed",
                f"add the matching End statement before line {lineno}"))
        self.stack.clear()
        if self.routine is not None:
            self.program.routines.append(self.routine)
            self.routine = None

    # -- main dispatch -------------------------------------------------
    def feed(self, lineno: int, sed_line: str, raw: str) -> None:
        call = parse_macro_call(sed_line)
        if call is None or call[0] not in KNOWN_MACROS:
            if raw.strip() and raw[:1] not in ("C", "c", "*", "!"):
                self.run.append((lineno, raw.strip()))
            return
        self._flush()
        name, args = call
        if name in ("force_main", "force_sub"):
            self._start_routine(lineno, name, args)
        elif name == "join_force":
            self._join(lineno)
        elif name in _OPENERS:
            self._open(lineno, name, args)
        elif name in ("usect", "csect"):
            self._section(lineno, name, args)
        elif name in _CLOSERS:
            self._close(lineno, name, args)
        elif name in _DECLS:
            self._declare(lineno, name, args)
        elif name == "taskq_decl":
            self._declare_symbol(Symbol(
                name=args[0].upper(), storage=TASKQ, line=lineno))
        elif name in _LEAVES and self.routine is not None:
            wanted = _EXPRESSION_ARGS.get(name, ())
            self._append(MacroStmt(lineno, name, args, tuple(
                self._expressions(lineno, arg) if i in wanted else []
                for i, arg in enumerate(args))))

    def finish(self, last_line: int) -> None:
        self._flush()
        self._close_routine(last_line)

    def _flush(self) -> None:
        """Parse the Fortran lines since the last Force statement, with
        continuations merged the way ``force run`` merges them."""
        run, self.run = self.run, []
        try:
            for lineno, text in join_continuations(run):
                if self.routine is not None:
                    self._statement(lineno, text)
        except FortranError as exc:
            if self.routine is not None:
                self._reject(exc.line, exc)

    # -- routines ------------------------------------------------------
    def _start_routine(self, lineno: int, name: str,
                       args: list[str]) -> None:
        self._close_routine(lineno)
        args = args + [""] * (4 - len(args))
        if name == "force_main":
            routine = Routine(name=args[0], kind="main", np_var=args[1],
                              ident_var=args[2], line=lineno)
            params = ""
        else:
            routine = Routine(name=args[0], kind="sub", np_var=args[2],
                              ident_var=args[3], line=lineno)
            params = args[1]
        for var in (routine.np_var, routine.ident_var):
            if var:
                routine.symbols.declare(Symbol(var.upper(), PARAM,
                                               line=lineno))
        for pname, is_array in split_decl_list(params):
            routine.symbols.declare(Symbol(pname.upper(), PARAM,
                                           line=lineno, is_array=is_array))
        self.routine = routine

    def _join(self, lineno: int) -> None:
        if self.routine is None:
            self._report(error("F002", lineno,
                               "Join outside any Force routine"))
            return
        for construct in self.stack:
            self._report(error(
                "F004", lineno,
                f"Join nested inside {construct.statement()} "
                f"(opened at line {construct.line}): the processes inside "
                "can never all reach it",
                "close the enclosing construct before Join"))
            break
        self._append(MacroStmt(lineno, "join_force", []))

    # -- structural constructs ----------------------------------------
    def _open(self, lineno: int, name: str, args: list[str]) -> None:
        if self.routine is None:
            self._report(error(
                "F002", lineno,
                "Force construct before any Force/Forcesub header"))
            return
        kind = _OPENERS[name]
        construct = Construct(kind=kind, line=lineno, macro=name,
                              uid=self.next_uid)
        self.next_uid += 1
        if name == "critical":
            construct.name = args[0]
            self._record_lock_nesting(lineno, args[0])
        elif name in ("presched_do", "selfsched_do", "blocksched_do"):
            construct.label = args[0]
            construct.index_vars = (args[1],)
            construct.bounds = (args[2],) if len(args) > 2 else ("",)
            construct.exprs = (self._expressions(lineno, construct.bounds[0]),)
        elif name in ("presched_do2", "selfsched_do2"):
            construct.label = args[0]
            construct.index_vars = (args[1], args[3])
            construct.bounds = (args[2] if len(args) > 2 else "",
                                args[4] if len(args) > 4 else "")
            construct.exprs = tuple(self._expressions(lineno, bound)
                                    for bound in construct.bounds)
        elif name == "pcase":
            construct.name = args[0] if args else ""
        elif name == "askfor":
            construct.label = args[0]
            construct.index_vars = (args[1],)
            construct.name = args[2]
        if kind == "barrier":
            self._check_barrier_nesting(lineno)
        self._append(construct)
        self.stack.append(construct)

    def _section(self, lineno: int, name: str, args: list[str]) -> None:
        if self.stack and self.stack[-1].kind == "section":
            self.stack.pop()
        if self.stack and self.stack[-1].kind == "pcase":
            construct = Construct(kind="section", line=lineno, macro=name,
                                  name=name, uid=self.next_uid,
                                  label=args[0] if args else "")
            construct.exprs = (self._expressions(lineno, construct.label),)
            self.next_uid += 1
            self._append(construct)
            self.stack.append(construct)
            return
        self._report(error(
            "F002", lineno,
            f"{'Usect' if name == 'usect' else 'Csect'} outside any Pcase",
            "open a Pcase before the first section"))

    def _check_barrier_nesting(self, lineno: int) -> None:
        for construct in self.stack:
            if construct.kind in ("critical", "doall", "pcase", "section",
                                  "askfor"):
                self._report(error(
                    "F004", lineno,
                    f"Barrier nested inside {construct.statement()} "
                    f"(opened at line {construct.line}): processes holding "
                    "the construct cannot all reach the barrier — deadlock",
                    "move the Barrier outside the enclosing construct"))
                return
            if construct.kind == "barrier":
                self._report(error(
                    "F004", lineno,
                    f"Barrier nested inside the Barrier body opened at "
                    f"line {construct.line}: the body runs on one process, "
                    "which then waits for everyone — deadlock",
                    "close the enclosing Barrier first"))
                return

    def _record_lock_nesting(self, lineno: int, lock: str) -> None:
        for construct in self.stack:
            if construct.kind != "critical":
                continue
            outer = construct.name.upper()
            inner = lock.upper()
            if outer == inner:
                self._report(error(
                    "F005", lineno,
                    f"Critical '{lock}' nested inside itself (outer at "
                    f"line {construct.line}): the second acquire can "
                    "never succeed",
                    "use a second lock name or restructure the sections"))
            else:
                self.program.lock_pairs.append((outer, inner, lineno))

    def _close(self, lineno: int, name: str, args: list[str]) -> None:
        opener = _CLOSERS[name]
        statement = _end_statement(name)
        # `End pcase` implicitly closes the section in flight.
        if (name == "end_pcase" and self.stack
                and self.stack[-1].kind == "section"):
            self.stack.pop()
        if self.stack and self.stack[-1].macro == opener:
            construct = self.stack.pop()
            self._check_label(lineno, statement, construct, args)
            return
        if any(c.macro == opener for c in self.stack):
            while self.stack and self.stack[-1].macro != opener:
                dangling = self.stack.pop()
                self._report(error(
                    "F002", lineno,
                    f"{statement} closes over {dangling.statement()} "
                    f"opened at line {dangling.line}, which is never closed",
                    f"close the inner {dangling.statement()} first"))
            construct = self.stack.pop()
            self._check_label(lineno, statement, construct, args)
            return
        if (self.stack and self.stack[-1].kind == "doall"
                and _OPENERS.get(opener) == "doall"):
            construct = self.stack.pop()
            self._report(error(
                "F003", lineno,
                f"{statement} closes the {construct.statement()} opened "
                f"at line {construct.line} — the loop kinds do not match",
                f"use 'End {construct.statement()}'"))
            return
        self._report(error(
            "F002", lineno,
            f"{statement} without a matching open construct",
            "remove it or add the opening statement"))

    def _check_label(self, lineno: int, statement: str,
                     construct: Construct, args: list[str]) -> None:
        if construct.kind not in ("doall", "askfor"):
            return
        closer_label = args[0] if args else ""
        if closer_label and construct.label and \
                closer_label != construct.label:
            self._report(error(
                "F003", lineno,
                f"{statement} is labelled {closer_label} but the "
                f"{construct.statement()} at line {construct.line} is "
                f"labelled {construct.label}",
                f"relabel the End statement {construct.label}"))

    # -- declarations --------------------------------------------------
    def _declare(self, lineno: int, name: str, args: list[str]) -> None:
        storage, common_kind = _DECLS[name]
        if common_kind is None:
            type_, items, common = args[0], args[1], None
        else:
            type_, items, common = "", args[1], args[0]
        for var, is_array in split_decl_list(items):
            self._declare_symbol(Symbol(
                name=var.upper(), storage=storage, type_=type_,
                common=common, line=lineno, is_array=is_array))

    def _declare_symbol(self, symbol: Symbol) -> None:
        if self.routine is not None:
            self.routine.symbols.declare(symbol)


def _end_statement(closer: str) -> str:
    titles = {
        "barrier_end": "End barrier", "end_critical": "End critical",
        "end_pcase": "End pcase", "end_askfor": "End askfor",
        "end_presched_do": "End presched DO",
        "end_selfsched_do": "End selfsched DO",
        "end_blocksched_do": "End blocksched DO",
        "end_presched_do2": "End presched DO2",
        "end_selfsched_do2": "End selfsched DO2",
    }
    return titles.get(closer, closer)


# ----------------------------------------------------------------------
# context-aware traversal
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StmtContext:
    """Replication context of one statement inside a routine."""

    critical_depth: int = 0    #: enclosing Critical sections
    single_depth: int = 0      #: enclosing Barrier bodies / Pcase sections
    askfor_depth: int = 0
    doall_indices: tuple[str, ...] = ()
    guarded: bool = False      #: inside IF (… ident …) THEN

    @property
    def replicated(self) -> bool:
        """True when every process executes the statement."""
        return self.single_depth == 0 and not self.guarded


def walk_statements(routine: Routine) -> Iterator[tuple[Stmt, StmtContext]]:
    """Yield each Fortran statement with its replication context.

    The ``IF (ME .EQ. …) THEN`` guard stack is shared across construct
    boundaries, matching document order, so a Barrier inside a guarded
    region is handled the way the runtime sees it.  A logical IF is
    yielded whole (its ``body`` is the guarded statement), guarded
    when its condition mentions the process identifier.
    """
    if_stack: list[bool] = []
    ident = routine.ident_var.upper()

    def mentions_ident(stmt, text: str) -> bool:
        return bool(ident) and ident in guard(stmt, text).names

    def visit(nodes: list[Node], critical: int, single: int, askfor: int,
              indices: tuple[str, ...]) -> Iterator[tuple[Stmt, StmtContext]]:
        for node in nodes:
            if isinstance(node, Construct):
                yield from visit(
                    node.body,
                    critical + (node.kind == "critical"),
                    single + (node.kind in _SINGLE_PROCESS),
                    askfor + (node.kind == "askfor"),
                    indices + node.index_vars
                    if node.kind == "doall" else indices)
            elif isinstance(node, Stmt):
                stmt = node.node
                cls = stmt.__class__
                if cls is ast.EndIf:
                    if if_stack:
                        if_stack.pop()
                    continue
                if cls is ast.IfThen:
                    if_stack.append(mentions_ident(stmt, node.text))
                    continue
                if cls is ast.ElseIf or cls is ast.Else:
                    if if_stack:
                        if_stack[-1] = (cls is ast.ElseIf and
                                        mentions_ident(stmt, node.text))
                    continue
                guarded = any(if_stack) or (
                    cls is ast.LogicalIf and mentions_ident(stmt, node.text))
                yield (node, StmtContext(
                    critical, single, askfor, indices, guarded))

    yield from visit(routine.body, 0, 0, 0, ())


def iter_constructs(routine: Routine) -> Iterator[Construct]:
    """Every construct in the routine, document order, any depth."""
    def visit(nodes: list[Node]) -> Iterator[Construct]:
        for node in nodes:
            if isinstance(node, Construct):
                yield node
                yield from visit(node.body)

    yield from visit(routine.body)


def iter_macro_stmts(routine: Routine) -> Iterator[MacroStmt]:
    """Every non-structural Force statement, document order."""
    def visit(nodes: list[Node]) -> Iterator[MacroStmt]:
        for node in nodes:
            if isinstance(node, MacroStmt):
                yield node
            elif isinstance(node, Construct):
                yield from visit(node.body)

    yield from visit(routine.body)
