"""Interprocedural read/write summaries over the Forcecall graph.

:mod:`repro.analysis.phases` gives each routine its local event
stream.  This module makes the streams whole-program: every
``Forcecall`` is virtually inlined, with

* **phase shifting** — a callee whose body crosses *k* barrier
  boundaries shifts every later event in the caller by *k* phases
  (Forcesubs may contain barriers; all processes enter the call, so
  the callee's barriers synchronize the caller's stream too),
* **parameter substitution** — the callee's formals are rewritten to
  the caller's actual arguments (transitively, so a formal passed down
  two levels resolves to the root's name) in variable names,
  subscripts, guard predicates and DOALL bound text,
* **context composition** — a callee event inherits the call site's
  lockset prefix, ME-guard, enclosing DOALL frames, and single-process
  region (a call made from a barrier body runs on one process), and
* **cycle handling** — a recursive Forcecall chain is cut at the
  back-edge and recorded as an analysis note; the first expansion of
  each routine still contributes its accesses.

The result is a flat list of :class:`ResolvedAccess` records over
*shared storage only* (Shared declarations are per-name COMMON blocks,
so identity is global by name), plus :class:`ResolvedLock`
acquisitions whose held-before sets cross routine boundaries — the
inputs to the race detector, the interprocedural lock-order pass and
the facts emitter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from repro._util.errors import FortranError
from repro.analysis.construct_parser import Exprs, ForceProgram, Routine
from repro.analysis.phases import (
    REPLICATED,
    AccessEvent,
    BARRIER,
    CallEvent,
    DoallFrame,
    LockEvent,
    RoutinePhases,
    partition,
)
from repro.analysis.symbols import ASYNC, PARAM, SHARED, TASKQ
from repro.fortran import ast_nodes as ast
from repro.fortran.accesses import target_accesses
from repro.fortran.parser import parse_expression, parse_expression_list


@dataclass(frozen=True)
class ResolvedAccess:
    """One shared-storage access, in root-relative coordinates."""

    key: str                     #: storage key (``NAME`` or ``/BLK/NAME``)
    name: str                    #: resolved display name
    subscript: str | None        #: after parameter substitution
    is_write: bool
    conditional: bool
    root: str                    #: root routine of this expansion
    routine: str                 #: routine the access appears in textually
    line: int
    phase: int                   #: absolute phase within the root
    region: str
    locks: tuple[str, ...]
    guard: str | None
    frames: tuple[DoallFrame, ...]
    chain: tuple[str, ...]       #: call chain, root first

    @property
    def single_process(self) -> bool:
        return self.region == BARRIER


@dataclass(frozen=True)
class ResolvedLock:
    """One Critical acquisition with its interprocedural held-set."""

    lock: str
    held: tuple[str, ...]        #: locks already held, outermost first
    root: str
    routine: str
    line: int
    phase: int
    chain: tuple[str, ...]


@dataclass
class ProgramSummary:
    """Whole-program analysis state shared by every summary client."""

    program: ForceProgram
    phases: dict[str, RoutinePhases] = field(default_factory=dict)
    accesses: list[ResolvedAccess] = field(default_factory=list)
    locks: list[ResolvedLock] = field(default_factory=list)
    roots: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    statement_count: int = 0

    def phase_count(self, root: str) -> int:
        """Absolute phases the whole expansion of ``root`` crosses."""
        highest = 0
        for access in self.accesses:
            if access.root == root:
                highest = max(highest, access.phase)
        rp = self.phases.get(root)
        local = rp.phase_count if rp else 1
        return max(local, highest + 1)


def summarize(program: ForceProgram) -> ProgramSummary:
    """Partition every routine and expand the Forcecall graph."""
    summary = ProgramSummary(program)
    routines: dict[str, Routine] = {}
    for routine in program.routines:
        name = routine.name.upper()
        routines[name] = routine
        summary.phases[name] = partition(routine)
        summary.statement_count += summary.phases[name].statement_count

    called = {call.callee
              for rp in summary.phases.values() for call in rp.calls}
    summary.roots = [r.name.upper() for r in program.routines
                     if r.kind == "main" or r.name.upper() not in called]

    expander = _Expander(summary, routines)
    for root in summary.roots:
        expander.expand_root(root)
    return summary


class _Expander:
    def __init__(self, summary: ProgramSummary,
                 routines: dict[str, Routine]) -> None:
        self.summary = summary
        self.routines = routines

    def expand_root(self, root: str) -> None:
        self._walk(root, root, phase_offset=0, subst={},
                   locks=(), region=REPLICATED, guard=None, frames=(),
                   chain=(root,), stack=frozenset({root}))

    def _walk(self, root: str, name: str, phase_offset: int,
              subst: dict[str, tuple[str, str]], locks: tuple[str, ...],
              region: str, guard: str | None,
              frames: tuple[DoallFrame, ...], chain: tuple[str, ...],
              stack: frozenset[str]) -> int:
        """Replay one routine's stream; return boundaries consumed."""
        rp = self.summary.phases.get(name)
        if rp is None:
            return 0
        mapping = {formal: text for formal, (text, _own) in subst.items()}
        shift = 0
        for event in rp.events:
            phase = phase_offset + event.site.phase + shift
            if isinstance(event, CallEvent):
                shift += self._call(root, name, event, phase, subst,
                                    mapping, locks, region, guard, frames,
                                    chain, stack)
            elif isinstance(event, LockEvent):
                self.summary.locks.append(ResolvedLock(
                    lock=event.lock,
                    held=locks + event.site.locks,
                    root=root, routine=name, line=event.site.line,
                    phase=phase, chain=chain))
            elif isinstance(event, AccessEvent):
                self._access(root, name, event, phase, subst, mapping,
                             locks, region, guard, frames, chain)
        return rp.boundary_count + shift

    # -- calls ---------------------------------------------------------
    def _call(self, root: str, caller: str, event: CallEvent, phase: int,
              subst: dict[str, tuple[str, str]], mapping: dict[str, str],
              locks: tuple[str, ...], region: str, guard: str | None,
              frames: tuple[DoallFrame, ...], chain: tuple[str, ...],
              stack: frozenset[str]) -> int:
        callee = self.routines.get(event.callee)
        if callee is None:
            return 0        # external subroutine: no summary, no shift
        if event.callee in stack:
            note = (f"recursive Forcecall chain "
                    f"{' -> '.join(chain + (event.callee,))} cut at "
                    f"line {event.site.line}; accesses past the first "
                    f"expansion are not re-analysed")
            if note not in self.summary.notes:
                self.summary.notes.append(note)
            return 0
        implicit = {callee.np_var.upper(), callee.ident_var.upper()}
        formals = [s.name for s in callee.symbols.with_storage(PARAM)
                   if s.name not in implicit]
        new_subst = self._implicit_param_map(callee, caller, mapping)
        for formal, actual in zip(formals, event.args):
            resolved = _substitute(actual, mapping)
            owner = self._owner_of(resolved, caller, subst)
            new_subst[formal] = (_operand(resolved), owner)
        site = event.site
        return self._walk(
            root, event.callee,
            phase_offset=phase,
            subst=new_subst,
            locks=locks + site.locks,
            region=_merge_region(region, site.region),
            guard=_merge_guard(guard,
                               _substitute_guard(site.guard, mapping)),
            frames=frames + _substitute_frames(site.frames, mapping),
            chain=chain + (event.callee,),
            stack=stack | {event.callee})

    def _implicit_param_map(self, callee: Routine, caller: str,
                            mapping: dict[str, str]
                            ) -> dict[str, tuple[str, str]]:
        """Map the callee's NP/ident formals to the caller's own.

        The runtime passes NP and the process identifier implicitly;
        a sub that names its ident ``ID`` while the caller says ``ME``
        still guards on the same value, so ``ID`` must resolve to
        ``ME`` for guard texts to compare equal across the call.
        """
        out: dict[str, tuple[str, str]] = {}
        caller_routine = self.routines.get(caller)
        if caller_routine is None:
            return out
        pairs = ((callee.np_var, caller_routine.np_var),
                 (callee.ident_var, caller_routine.ident_var))
        for formal, actual in pairs:
            if formal and actual:
                out[formal.upper()] = (
                    _substitute(actual, mapping), caller)
        return out

    def _owner_of(self, resolved: str, caller: str,
                  subst: dict[str, tuple[str, str]]) -> str:
        ref = _reference(resolved)
        if ref is None:
            return caller
        for _formal, (text, owner) in subst.items():
            inner = _reference(text)
            if inner and inner.name == ref.name:
                return owner
        return caller

    # -- accesses ------------------------------------------------------
    def _access(self, root: str, name: str, event: AccessEvent,
                phase: int, subst: dict[str, tuple[str, str]],
                mapping: dict[str, str], locks: tuple[str, ...],
                region: str, guard: str | None,
                frames: tuple[DoallFrame, ...],
                chain: tuple[str, ...]) -> None:
        routine = self.routines[name]
        var = event.name
        subscript = event.subscript
        owner = name
        if var in mapping:
            resolved, owner = subst[var]
            ref = _reference(resolved)
            if ref is None:
                return          # actual was an expression: a by-value temp
            var, actual_sub = ref.name, ref.subscript
            if actual_sub is not None:
                # formal bound to an array element: the callee's own
                # subscript (if any) is relative to that element — keep
                # the caller's element subscript as the storage index.
                subscript = actual_sub
        symbol = self._classify(var, owner, routine)
        if symbol is None or symbol.storage != SHARED:
            return
        if subscript is not None:
            subscript = _substitute(subscript, mapping)
        key = (f"/{symbol.common.upper()}/{var}" if symbol.common
               else var)
        self.summary.accesses.append(ResolvedAccess(
            key=key, name=var, subscript=subscript,
            is_write=event.is_write, conditional=event.conditional,
            root=root, routine=name, line=event.site.line, phase=phase,
            region=_merge_region(region, event.site.region),
            locks=locks + event.site.locks,
            guard=_merge_guard(guard,
                               _substitute_guard(event.site.guard,
                                                 mapping)),
            frames=frames + _substitute_frames(event.site.frames, mapping),
            chain=chain))

    def _classify(self, var: str, owner: str, routine: Routine):
        for candidate in (owner, routine.name.upper()):
            owner_routine = self.routines.get(candidate)
            if owner_routine is None:
                continue
            symbol = owner_routine.symbols.lookup(var)
            if symbol is not None and symbol.storage != PARAM:
                return symbol
        # Shared storage is global by name: a declaration anywhere in
        # the program makes every unqualified use of the name shared.
        for other in self.routines.values():
            symbol = other.symbols.lookup(var)
            if symbol is not None and symbol.storage in (SHARED, ASYNC,
                                                         TASKQ):
                return symbol
        return None


def _reference(actual: str):
    """The variable (and element subscript) an actual argument names,
    or ``None`` for a value expression."""
    try:
        expr = parse_expression(actual)
    except FortranError:
        return None
    if expr.__class__ not in (ast.Var, ast.Apply):
        return None
    return target_accesses((expr,), actual)[0]


def _operand(actual: str) -> str:
    """``actual`` as it may stand for a formal inside an expression:
    parenthesised unless it is a name, a constant or an array element,
    so ``2*J`` with ``J`` bound to ``K+1`` reads ``2*(K+1)``."""
    try:
        expr = parse_expression(actual)
    except FortranError:
        return actual
    if expr.__class__ in (ast.Var, ast.Apply, ast.Num):
        return actual
    return f"({actual})"


def _substitute(text: str, mapping: dict) -> str:
    """Whole-word replace each ``mapping`` key (case-insensitive).

    Rewrites a Forcesub's formal parameters to the caller's actual
    arguments inside subscripts, guard predicates and DOALL bounds,
    which are kept as source text for display.
    """
    if not mapping or not text:
        return text
    folded = {key.upper(): value for key, value in mapping.items()}
    pattern = "|".join(re.escape(key) for key in folded)
    return re.sub(rf"\b(?:{pattern})\b",
                  lambda m: folded[m.group(0).upper()], text,
                  flags=re.IGNORECASE)


# ----------------------------------------------------------------------
# context composition helpers
# ----------------------------------------------------------------------
def _merge_region(outer: str, inner: str) -> str:
    """The effective region of an inlined event."""
    if inner != REPLICATED:
        return inner
    return outer


def _merge_guard(outer: str | None, inner: str | None) -> str | None:
    if outer and inner:
        return f"{outer} .AND. {inner}"
    return outer or inner


def _substitute_guard(guard: str | None,
                      mapping: dict[str, str]) -> str | None:
    if guard is None:
        return None
    return " ".join(_substitute(guard, mapping).upper().split())


def _substitute_frames(frames: tuple[DoallFrame, ...],
                       mapping: dict[str, str]) -> tuple[DoallFrame, ...]:
    if not mapping:
        return frames
    return tuple(_substitute_frame(f, mapping) for f in frames)


def _substitute_frame(frame: DoallFrame, mapping: dict) -> DoallFrame:
    bounds = tuple(_substitute(b, mapping) for b in frame.bounds)
    exprs: list[Exprs] = []
    for text in bounds:
        try:    # rewritten text that no longer parses bounds nothing
            exprs.append(parse_expression_list(text) if text.strip() else [])
        except FortranError:
            exprs.append([])
    return replace(frame, bounds=bounds, exprs=tuple(exprs))
