"""F009/F010: variable-scope checks.

A Barrier body or Pcase section runs on exactly one process, so an
update to a *Private* variable there is visible to that one process
only — the other processes keep their stale copies (F009).  And a
name declared both at routine level and inside a common block (or with
two conflicting storage classes) silently shadows itself (F010).
"""

from __future__ import annotations

from repro.analysis.construct_parser import ForceProgram, walk_statements
from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.analysis.symbols import PARAM, PRIVATE
from repro.fortran import ast_nodes as ast


def check_scope(program: ForceProgram) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for routine in program.routines:
        diagnostics.extend(_private_writes_in_single_sections(routine))
        diagnostics.extend(_declaration_conflicts(routine))
    return diagnostics


def _private_writes_in_single_sections(routine) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for stmt, ctx in walk_statements(routine):
        if ctx.single_depth == 0:
            continue
        node = stmt.node
        while node.__class__ is ast.LogicalIf:
            node = node.body
        if node.__class__ is not ast.Assign:
            continue
        name = node.target.name
        symbol = routine.symbols.lookup(name)
        if symbol is None or symbol.storage != PRIVATE:
            continue
        out.append(warning(
            "F009", stmt.line,
            f"Private variable '{name}' is written inside a "
            "single-process section: the update is lost to the other "
            "processes",
            "declare it Shared, or move the update outside the "
            "Barrier/Pcase section"))
    return out


def _declaration_conflicts(routine) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for existing, redecl in routine.symbols.conflicts:
        if PARAM in (existing.storage, redecl.storage):
            continue      # routine arguments may be re-classified
        if (existing.common is None) != (redecl.common is None):
            local, member = ((existing, redecl) if redecl.common
                             else (redecl, existing))
            out.append(warning(
                "F010", redecl.line,
                f"{local.describe()} shadows {member.describe()} declared "
                f"at line {existing.line}",
                "rename one of the two; references will silently bind to "
                "the routine-level variable"))
        elif existing.storage != redecl.storage:
            out.append(error(
                "F010", redecl.line,
                f"'{redecl.name}' declared {redecl.storage.capitalize()} "
                f"here but {existing.storage.capitalize()} at line "
                f"{existing.line}",
                "keep exactly one storage class per variable"))
    return out
