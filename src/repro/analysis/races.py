"""F001: may-happen-in-parallel race detection over shared storage.

The Force's ownership discipline (paper §4.2): replicated code may
touch a Shared variable only under mutual exclusion (a Critical), in
a single-process section (a Barrier body or a Pcase section), in a
region guarded on the process identifier, or — for arrays — at
subscripts partitioned by an enclosing DOALL's index variables.

The seed checker enforced that one assignment at a time.  This
detector works on the interprocedural summaries of
:mod:`repro.analysis.summaries`: every pair of accesses to the same
shared storage (at least one a write) that
:func:`repro.analysis.mhp.may_happen_in_parallel` admits is tested
for protection —

* **lockset**: the two sites hold a common Critical name;
* **address separation**: per-dimension symbolic affine analysis of
  the subscripts — parsed by the Fortran front end into the
  :func:`repro.fortran.accesses.affine` forms the DOALL kernel
  recognizer also lowers from — proves either that the dimensions are
  disjoint
  (distinct constants, a non-divisible stride offset, or an index
  range provably excluding the other side's term) or that a collision
  forces every DOALL index — and hence the iteration, and hence the
  process — to coincide.  Subscripts linear in the process identifier
  partition by construction: two distinct processes never share it.

Anything left is reported as a :class:`RaceReport` carrying both
sites, and rendered as an F001 diagnostic with a two-sided witness.
A statement racing with *itself* across processes (the seed's case)
keeps the seed's message wording; conflicting *pairs* are new.

Assumption, documented in docs/LANGUAGE.md: a Private scalar that is
not a DOALL index and not the process identifier is assumed to hold
the same value on every process within a phase (replicated programs
compute them in lockstep).  Such symbols may justify *disjointness*
(the LU pivot pattern ``A(I,K)`` vs ``A(K,K)`` with ``I`` ranging
over ``K+1, N``) but never *forced equality* — ``A(I+J)`` with a
private ``J`` is still a race, because nothing proves two processes
agree on ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.errors import FortranError
from repro.analysis.construct_parser import ForceProgram
from repro.analysis.diagnostics import (
    Diagnostic,
    Witness,
    WitnessSite,
    error,
)
from repro.analysis.mhp import may_happen_in_parallel
from repro.analysis.summaries import (
    ProgramSummary,
    ResolvedAccess,
    summarize,
)
from repro.analysis.symbols import PARAM, SHARED
from repro.fortran import ast_nodes as ast
from repro.fortran.accesses import CONST, affine, affine_difference
from repro.fortran.parser import parse_expression_list

#: identifier classes inside a subscript dimension.
_INDEX, _IDENT, _STABLE, _PRIVATE = "index", "ident", "stable", "private"


@dataclass(frozen=True)
class RaceReport:
    """One confirmed race: the evidence the diagnostics are built from."""

    key: str                     #: shared-storage key
    name: str
    kind: str                    #: "self" | "write/write" | "read/write"
    first: ResolvedAccess
    second: ResolvedAccess

    @property
    def frame_uids(self) -> frozenset[int]:
        return frozenset(f.uid for side in (self.first, self.second)
                         for f in side.frames)


def detect(summary: ProgramSummary) -> list[RaceReport]:
    """All unprotected MHP conflicts in the program, document order."""
    idents = {r.name.upper(): (r.ident_var or "").upper()
              for r in summary.program.routines}
    groups: dict[tuple[str, str], list[ResolvedAccess]] = {}
    for access in summary.accesses:
        groups.setdefault((access.root, access.key), []).append(access)

    reports: list[RaceReport] = []
    for (root, key), accesses in groups.items():
        ident = idents.get(root, "")
        classify = _classifier(summary, ident)
        self_racy: set[int] = set()
        seen: set[tuple] = set()
        for access in accesses:
            if not access.is_write:
                continue
            if not may_happen_in_parallel(access, access):
                continue
            if access.locks:
                continue
            if _address_safe(access, access, classify):
                continue
            if access.line in self_racy:
                continue
            self_racy.add(access.line)
            reports.append(RaceReport(
                key=key, name=access.name, kind="self",
                first=access, second=access))
        for i, a in enumerate(accesses):
            for b in accesses[i + 1:]:
                if not (a.is_write or b.is_write):
                    continue
                if a.line == b.line and a.routine == b.routine:
                    continue    # a statement's own read/write halves
                if (a.is_write and b.is_write
                        and a.line in self_racy and b.line in self_racy):
                    continue    # both sides already reported singly
                if not may_happen_in_parallel(a, b):
                    continue
                if set(a.locks) & set(b.locks):
                    continue
                if _address_safe(a, b, classify):
                    continue
                first, second = _order(a, b)
                kind = ("write/write" if a.is_write and b.is_write
                        else "read/write")
                dedup = (kind, first.line, first.routine,
                         second.line, second.routine)
                if dedup in seen:
                    continue
                seen.add(dedup)
                reports.append(RaceReport(
                    key=key, name=a.name, kind=kind,
                    first=first, second=second))
    reports.sort(key=lambda r: (r.first.line, r.second.line, r.key))
    return reports


def check_races(program: ForceProgram,
                summary: ProgramSummary | None = None) -> list[Diagnostic]:
    """Render every detected race as an F001 diagnostic with witness."""
    if summary is None:
        summary = summarize(program)
    diagnostics = [_diagnose(report, summary) for report in detect(summary)]
    return diagnostics


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------
def _diagnose(report: RaceReport, summary: ProgramSummary) -> Diagnostic:
    first, second = report.first, report.second
    witness = Witness(kind=report.kind,
                      first=_witness_site(first),
                      second=_witness_site(second))
    if report.kind == "self":
        where = ("inside the DOALL body" if first.frames
                 else "in replicated code")
        hint = (
            "index the array with the DOALL loop variable, or wrap "
            "the update in Critical/End critical"
            if first.frames else
            "wrap the update in Critical/End critical or move it "
            "into a Barrier body")
        message = (f"assignment to Shared variable '{first.name}' {where} "
                   "— every process races on this update")
        if first.routine != first.root:
            message += (" (reached via Forcecall chain "
                        f"{' -> '.join(first.chain)})")
        return error("F001", first.line, message, hint, witness=witness)
    message = (f"conflicting accesses to Shared variable '{report.name}' "
               f"({report.kind}): {_describe(first)}; {_describe(second)}"
               " — nothing orders the two sites, so different processes "
               "can execute them at the same time")
    hint = ("make both sites hold the same Critical lock, separate them "
            "with a Barrier, or partition both subscripts by the DOALL "
            "index")
    return error("F001", first.line, message, hint, witness=witness)


def _describe(access: ResolvedAccess) -> str:
    verb = "writes" if access.is_write else "reads"
    where = (f" in {access.routine}" if access.routine != access.root
             else "")
    locks = ", ".join(access.locks)
    return (f"line {access.line}{where} {verb} {_display(access)} in "
            f"phase {access.phase} holding {{{locks}}}")


def _display(access: ResolvedAccess) -> str:
    if access.subscript is not None:
        return f"{access.name}({access.subscript})"
    return access.name


def _witness_site(access: ResolvedAccess) -> WitnessSite:
    return WitnessSite(
        routine=access.routine, line=access.line,
        access="write" if access.is_write else "read",
        variable=_display(access), phase=access.phase,
        locks=access.locks, region=access.region, guard=access.guard,
        chain=access.chain)


def _order(a: ResolvedAccess,
           b: ResolvedAccess) -> tuple[ResolvedAccess, ResolvedAccess]:
    """Write side first, then by line — stable witness ordering."""
    if a.is_write != b.is_write:
        return (a, b) if a.is_write else (b, a)
    return (a, b) if a.line <= b.line else (b, a)


# ----------------------------------------------------------------------
# address separation
# ----------------------------------------------------------------------
def _classifier(summary: ProgramSummary, ident: str):
    routines = {r.name.upper(): r for r in summary.program.routines}

    def classify(var: str, indices: frozenset[str],
                 access: ResolvedAccess) -> str:
        if var in indices:
            return _INDEX
        if ident and var == ident:
            return _IDENT
        for candidate in (access.routine, access.root):
            routine = routines.get(candidate)
            if routine is None:
                continue
            symbol = routine.symbols.lookup(var)
            if symbol is None:
                continue
            return (_STABLE if symbol.storage in (SHARED, PARAM)
                    else _PRIVATE)
        return _PRIVATE

    return classify


def _address_safe(a: ResolvedAccess, b: ResolvedAccess, classify) -> bool:
    """True when the two accesses provably never touch the same cell
    from two different processes."""
    if a.subscript is None or b.subscript is None:
        return False
    common = {f.uid for f in a.frames} & {f.uid for f in b.frames}
    indices = frozenset(
        v for f in a.frames if f.uid in common for v in f.indices)
    dims_a = _dimensions(a.subscript)
    dims_b = _dimensions(b.subscript)
    if dims_a is None or dims_b is None or len(dims_a) != len(dims_b):
        return False
    forced: set[str] = set()
    for da, db in zip(dims_a, dims_b):
        outcome, vars_ = _dim_outcome(da, db, a, b, indices, classify)
        if outcome == "disjoint":
            return True
        if outcome == "forces":
            forced.update(vars_)
    if any(classify(v, indices, a) == _IDENT for v in forced):
        return True            # distinct processes never share ME
    return bool(indices) and forced >= indices


def _dimensions(subscript: str) -> list[ast.Expr] | None:
    """The subscript's dimension expressions; ``None`` when the text
    (rewritten by Forcecall substitution) no longer parses."""
    try:
        return [expr for expr, _ in parse_expression_list(subscript)]
    except FortranError:
        return None


def _dim_outcome(da: ast.Expr, db: ast.Expr, a: ResolvedAccess,
                 b: ResolvedAccess, indices: frozenset[str],
                 classify) -> tuple[str, tuple[str, ...]]:
    fa = affine(da)
    fb = affine(db)
    if fa is None or fb is None:
        return "nothing", ()
    partition_vars = {
        v for v in (set(fa) | set(fb)) - {CONST}
        if classify(v, indices, a) in (_INDEX, _IDENT)}
    a_idx = {v: fa.get(v, 0) for v in partition_vars}
    b_idx = {v: fb.get(v, 0) for v in partition_vars}
    symbols = (set(fa) | set(fb)) - partition_vars - {CONST}
    sym_diff_nonzero = any(fa.get(v, 0) != fb.get(v, 0) for v in symbols)
    d = fa.get(CONST, 0) - fb.get(CONST, 0)

    if a_idx == b_idx:
        if sym_diff_nonzero:
            return "nothing", ()
        nonzero = [v for v, c in a_idx.items() if c]
        if not nonzero:
            return ("disjoint", ()) if d != 0 else ("nothing", ())
        if len(nonzero) == 1:
            var, coeff = nonzero[0], a_idx[nonzero[0]]
            if d == 0:
                # Forced equality is only sound when every other term
                # is replicated-identical *by storage class*: shared
                # or parameter.  A private symbol (A(I+J)) proves
                # nothing — two processes may disagree on it.
                if all(classify(v, indices, a) == _STABLE
                       for v in symbols if fa.get(v, 0) != 0):
                    return "forces", (var,)
                return "nothing", ()
            if d % coeff != 0:
                return "disjoint", ()
            return "nothing", ()
        return "nothing", ()

    # Different index coefficients.  One tractable shape: one side is
    # linear in a single index, the other index-free — then collision
    # pins the index to a symbolic value we can test against the
    # loop bounds (the LU pivot-row pattern).
    for p, q, side in ((fa, fb, a), (fb, fa, b)):
        p_nz = [v for v in partition_vars if p.get(v, 0)]
        q_nz = [v for v in partition_vars if q.get(v, 0)]
        if len(p_nz) != 1 or q_nz:
            continue
        var = p_nz[0]
        coeff = p.get(var, 0)
        if abs(coeff) != 1 or classify(var, indices, a) != _INDEX:
            continue
        target = {v: (q.get(v, 0) - p.get(v, 0)) * coeff
                  for v in symbols | {CONST}}
        frame = next((f for f in side.frames if var in f.indices), None)
        if frame is None:
            continue
        for position, sign in ((0, 1), (1, -1)):
            piece = frame.bound(var, position)
            if piece is None:
                continue
            parsed = affine(piece[0])
            if parsed is None:
                continue
            diff = affine_difference(parsed, target)
            if diff is not None and diff * sign > 0:
                return "disjoint", ()
    return "nothing", ()
