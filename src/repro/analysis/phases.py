"""Barrier-phase partitioning of a Force routine.

The Force synchronizes with barriers: every statement of a routine
falls into a *phase* — a maximal run of the statement stream free of
synchronization points.  Phase boundaries are the entry and exit of a
``Barrier``/``End barrier`` body and ``Join``.  Two statements in
different phases of the same routine can never execute concurrently
(every process crossed the intervening barrier); two statements in the
same phase of replicated code may — that is the raw material of the
may-happen-in-parallel relation in :mod:`repro.analysis.mhp`.

This module walks one routine and produces its ordered *event stream*:
every Shared/private variable access, every ``Forcecall``, and every
``Critical`` acquisition.  Accesses come from the statements and
expressions :mod:`repro.analysis.construct_parser` parsed with the
Fortran front end, read through :mod:`repro.fortran.accesses`; a
statement the front end rejected contributes none (it is an F002
error).  Each event is stamped with

* the local ``phase`` ordinal,
* the ``region`` kind (``replicated``, single-process ``barrier``
  body, or ``section:<uid>:<n>`` for a Pcase section — ``End pcase``
  does **not** synchronize, so sections stay inside their phase),
* the ``locks`` tuple of enclosing Critical names,
* the enclosing DOALL ``frames`` (construct uid, index variables and
  loop-bound text — the partition evidence), and
* the canonical ME-``guard`` text (the conditions' source text, upper
  case, blanks collapsed), when every path to the statement runs
  under conditions naming the routine's process identifier.

Known limitation, by design: phases are assigned in document order, so
a barrier inside a sequential ``DO`` loop separates the loop's earlier
and later statements even though iterations re-enter both sides.  The
corpus does not write that shape; the renderer documents it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.construct_parser import (
    Construct,
    Exprs,
    MacroStmt,
    Node,
    Routine,
    Stmt,
)
from repro.fortran import ast_nodes as ast
from repro.fortran.accesses import (
    Access,
    expression_reads,
    guard,
    statement_accesses,
    target_accesses,
)

#: region kinds a statement can live in.
REPLICATED = "replicated"
BARRIER = "barrier"


@dataclass(frozen=True)
class DoallFrame:
    """One enclosing DOALL loop: the index-partition evidence."""

    uid: int
    macro: str
    label: str
    indices: tuple[str, ...]     #: upper-cased index variables
    bounds: tuple[str, ...]      #: raw bound text per index (``"1, N"``)
    line: int
    #: parsed ``bounds`` per index, as :attr:`Construct.exprs` (empty
    #: when the text does not parse)
    exprs: tuple[Exprs, ...] = field(default=(), compare=False)

    def lower_bound(self, index: str) -> str | None:
        """Text of the loop's lower bound for ``index``, if recorded."""
        piece = self.bound(index, 0)
        return piece[1] if piece else None

    def upper_bound(self, index: str) -> str | None:
        piece = self.bound(index, 1)
        return piece[1] if piece else None

    def bound(self, index: str,
              position: int) -> tuple[ast.Expr, str] | None:
        """The parsed bound at ``position`` (0 lower, 1 upper, 2 step)
        of ``index`` with its text, if recorded."""
        for var, exprs in zip(self.indices, self.exprs):
            if var == index and len(exprs) > position:
                return exprs[position]
        return None


@dataclass(frozen=True)
class Site:
    """Shared event coordinates: where and under what context."""

    line: int
    phase: int
    region: str                  #: replicated | barrier | section:<uid>:<n>
    locks: tuple[str, ...]       #: enclosing Critical names, outermost first
    guard: str | None            #: canonical ME-guard text, or None
    frames: tuple[DoallFrame, ...] = ()

    @property
    def single_process(self) -> bool:
        """True when at most one process executes this site."""
        return self.region == BARRIER


@dataclass(frozen=True)
class AccessEvent:
    """One variable reference."""

    site: Site
    name: str                    #: upper-cased variable name
    subscript: str | None
    is_write: bool
    conditional: bool = False    #: under any non-ME branch condition


@dataclass(frozen=True)
class CallEvent:
    """One ``Forcecall NAME(args)``."""

    site: Site
    callee: str                  #: upper-cased subroutine name
    args: tuple[str, ...]        #: actual argument expressions


@dataclass(frozen=True)
class LockEvent:
    """One ``Critical NAME`` acquisition; ``site.locks`` is held-before."""

    site: Site
    lock: str


@dataclass
class RoutinePhases:
    """The phase-partitioned event stream of one routine."""

    routine: Routine
    accesses: list[AccessEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    lock_events: list[LockEvent] = field(default_factory=list)
    #: all of the above interleaved in document order — the stream the
    #: interprocedural expansion replays to compute phase shifts.
    events: list = field(default_factory=list)
    boundary_count: int = 0      #: barrier edges + Joins crossed
    statement_count: int = 0     #: Fortran statements analysed

    @property
    def phase_count(self) -> int:
        return self.boundary_count + 1


def partition(routine: Routine) -> RoutinePhases:
    """Slice ``routine`` into phases and extract its event stream."""
    return _Partitioner(routine).run()


class _Partitioner:
    def __init__(self, routine: Routine) -> None:
        self.routine = routine
        self.out = RoutinePhases(routine)
        self.phase = 0
        self.ident = routine.ident_var.upper() if routine.ident_var else ""
        #: (condition text, mentions ident) per open IF level.
        self.if_stack: list[tuple[str, bool]] = []

    def run(self) -> RoutinePhases:
        self._visit(self.routine.body, locks=(), region=REPLICATED,
                    frames=())
        return self.out

    # -- context -------------------------------------------------------
    def _site(self, line: int, region: str, locks: tuple[str, ...],
              frames: tuple[DoallFrame, ...]) -> Site:
        ident_conds = [cond for cond, is_guard in self.if_stack if is_guard]
        guard = (" .AND. ".join(_canonical(c) for c in ident_conds)
                 if ident_conds else None)
        return Site(line=line, phase=self.phase, region=region,
                    locks=locks, guard=guard, frames=frames)

    def _conditional(self) -> bool:
        return any(not is_guard for _, is_guard in self.if_stack)

    def _boundary(self) -> None:
        self.phase += 1
        self.out.boundary_count += 1

    # -- emission ------------------------------------------------------
    def _emit_access(self, event: AccessEvent) -> None:
        self.out.accesses.append(event)
        self.out.events.append(event)

    def _emit_call(self, event: CallEvent) -> None:
        self.out.calls.append(event)
        self.out.events.append(event)

    def _emit_lock(self, event: LockEvent) -> None:
        self.out.lock_events.append(event)
        self.out.events.append(event)

    # -- traversal -----------------------------------------------------
    def _visit(self, nodes: list[Node], locks: tuple[str, ...],
               region: str, frames: tuple[DoallFrame, ...]) -> None:
        section_ordinal = 0
        for node in nodes:
            if isinstance(node, Construct):
                if node.kind == "barrier":
                    self._boundary()
                    self._visit(node.body, locks, BARRIER, frames)
                    self._boundary()
                elif node.kind == "critical":
                    lock = node.name.upper()
                    self._emit_lock(LockEvent(
                        self._site(node.line, region, locks, frames), lock))
                    self._visit(node.body, locks + (lock,), region, frames)
                elif node.kind == "doall":
                    frame = DoallFrame(
                        uid=node.uid, macro=node.macro, label=node.label,
                        indices=tuple(v.upper() for v in node.index_vars),
                        bounds=node.bounds, line=node.line,
                        exprs=node.exprs)
                    self._bound_reads(node, region, locks, frames)
                    self._visit(node.body, locks, region, frames + (frame,))
                elif node.kind == "pcase":
                    self._visit(node.body, locks, region, frames)
                elif node.kind == "section":
                    section_ordinal += 1
                    if node.label:   # Csect condition, evaluated by all
                        self._reads(_list_reads(node.exprs[0], node.label),
                                    node.line, region, locks, frames)
                    self._visit(node.body, locks,
                                f"section:{node.uid}:{section_ordinal}",
                                frames)
                else:   # askfor: work items run on whichever process asks
                    self._visit(node.body, locks, region, frames)
            elif isinstance(node, MacroStmt):
                self._macro(node, locks, region, frames)
            else:
                self._statement(node, locks, region, frames)

    def _bound_reads(self, node: Construct, region: str,
                     locks: tuple[str, ...],
                     frames: tuple[DoallFrame, ...]) -> None:
        for bound, exprs in zip(node.bounds, node.exprs):
            self._reads(_list_reads(exprs, bound), node.line, region,
                        locks, frames)

    def _statement(self, stmt: Stmt, locks: tuple[str, ...],
                   region: str, frames: tuple[DoallFrame, ...]) -> None:
        node, text = stmt.node, stmt.text
        cls = node.__class__
        if cls is ast.EndIf:
            if self.if_stack:
                self.if_stack.pop()
            return
        if cls is ast.Else:
            if self.if_stack:   # branch no longer ME-selected
                self.if_stack[-1] = (self.if_stack[-1][0], False)
            return
        self.out.statement_count += 1
        if node is None:
            return      # rejected by the front end: reported as F002
        accesses, guards = statement_accesses(node, text)
        if cls is ast.IfThen or cls is ast.ElseIf:
            self._reads(accesses, stmt.line, region, locks, frames)
            cond = guard(node, text)
            entry = (cond.text, bool(self.ident)
                     and self.ident in cond.names)
            if cls is ast.IfThen:
                self.if_stack.append(entry)
            elif self.if_stack:
                self.if_stack[-1] = entry
            return
        extra = None
        if self.ident and any(self.ident in g.names for g in guards):
            extra = _canonical(" .AND. ".join(g.text for g in guards))
        for ref in accesses:
            site = self._site(stmt.line, region, locks, frames)
            if extra:
                merged = (f"{site.guard} .AND. {extra}" if site.guard
                          else extra)
                site = Site(site.line, site.phase, site.region, site.locks,
                            merged, site.frames)
            self._emit_access(AccessEvent(
                site=site, name=ref.name, subscript=ref.subscript,
                is_write=ref.is_write,
                conditional=self._conditional() or (bool(guards)
                                                    and extra is None)))

    def _macro(self, node: MacroStmt, locks: tuple[str, ...],
               region: str, frames: tuple[DoallFrame, ...]) -> None:
        self.out.statement_count += 1
        args, exprs = node.args, node.exprs
        if node.name == "join_force":
            self._boundary()
        elif node.name == "forcecall":
            callee = (args[0] if args else "").upper()
            actuals = exprs[1] if len(exprs) > 1 else []
            self._emit_call(CallEvent(
                self._site(node.line, region, locks, frames),
                callee, tuple(text for _, text in actuals)))
            for actual, _ in actuals:
                # A plain NAME actual passes an address — no data read.
                # Subscripts (A(I)) and value expressions (I+1) are
                # evaluated at the call site.
                if actual.__class__ is ast.Var:
                    continue
                parts = (actual.args if actual.__class__ is ast.Apply
                         else (actual,))
                self._reads([ref for part in parts
                             for ref in expression_reads(part, args[1])],
                            node.line, region, locks, frames)
        elif node.name == "produce" and len(args) > 1:
            # Produce VAR = EXPR: VAR is Async (full/empty-synchronized,
            # excluded from race analysis); EXPR reads count.
            self._reads(_list_reads(exprs[1], args[1]), node.line, region,
                        locks, frames)
            self._async_subscript_reads(node, node.line, region, locks,
                                        frames)
        elif node.name in ("consume", "copyasync") and len(args) > 1:
            # ... into DEST writes DEST.
            dest = _sole_reference(exprs[1])
            if dest is not None:
                write, *reads = target_accesses((dest,), args[1])
                self._emit_access(AccessEvent(
                    site=self._site(node.line, region, locks, frames),
                    name=write.name, subscript=write.subscript,
                    is_write=True, conditional=self._conditional()))
                self._reads(reads, node.line, region, locks, frames)
            self._async_subscript_reads(node, node.line, region, locks,
                                        frames)
        elif node.name == "putwork" and len(args) > 1:
            self._reads(_list_reads(exprs[1], args[1]), node.line, region,
                        locks, frames)

    def _async_subscript_reads(self, node: MacroStmt, line: int,
                               region: str, locks: tuple[str, ...],
                               frames: tuple[DoallFrame, ...]) -> None:
        """``Produce V(I) = …``: V is Async, but I is an ordinary read."""
        target = _sole_reference(node.exprs[0])
        if target is not None and target.__class__ is ast.Apply:
            self._reads([ref for arg in target.args
                         for ref in expression_reads(arg, node.args[0])],
                        line, region, locks, frames)

    def _reads(self, refs: list[Access], line: int, region: str,
               locks: tuple[str, ...],
               frames: tuple[DoallFrame, ...]) -> None:
        site = self._site(line, region, locks, frames)
        for ref in refs:
            self._emit_access(AccessEvent(
                site=site, name=ref.name, subscript=ref.subscript,
                is_write=False, conditional=self._conditional()))


def _list_reads(exprs: Exprs, text: str) -> list[Access]:
    """Reads of a parsed comma list whose spans index ``text``."""
    return [ref for expr, _ in exprs for ref in expression_reads(expr, text)]


def _sole_reference(exprs: Exprs) -> ast.Var | ast.Apply | None:
    """The single variable reference a Force operand names, if it is one."""
    if len(exprs) == 1 and exprs[0][0].__class__ in (ast.Var, ast.Apply):
        return exprs[0][0]
    return None


def _canonical(condition: str) -> str:
    """Canonical text of a guard condition for cross-site comparison."""
    return " ".join(condition.upper().split())
