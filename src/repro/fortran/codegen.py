"""The compiled execution tier: Python *source* code generation.

This is the one compiled tier beside the tree-walking interpreter
(:mod:`repro.fortran.interp`, the oracle).  It emits one generated
Python function per program unit — the whole statement tree flattened
into a ``while`` dispatch loop over basic-block regions, with names
resolved to frame-slot accesses at emit time — and compiles it once
with :func:`compile`.  Four things make it fast:

* **No per-statement dispatch.**  Straight-line statement runs become
  straight-line Python; GOTO / computed GOTO / block IF lower to
  ``pc``-dispatch over region leaders.

* **Direct element access.**  Each invocation binds numpy fast views
  of its 1-D and 2-D numeric arrays (data, lower bound and extent per
  dimension), kept in one list per rank.  In-bounds, exact-type
  element loads and stores read ``data.item(...)`` or write
  ``data[...]`` (:func:`_ld1`/:func:`_st1`, :func:`_ld2`/:func:`_st2`);
  every other access falls through to ``FArray.get``/``set``, so error
  texts and coercions are the tree walker's.

* **Batched cost accounting.**  The tree walker yields one
  :class:`~repro.fortran.interp.Cost` per statement.  Generated code
  accumulates cycles and statement counts in two locals and emits one
  aggregate ``Cost(cycles, statements)`` event per straight-line run,
  flushing before every observable point (external calls, CALLs into
  other units, WRITE/READ, RETURN/STOP, backward jumps) so the
  process clock at every interaction is bit-identical to the
  tree-walker's.

* **Facts-gated DOALL vectorization.**  A DO loop whose terminal label
  the analysis facts proved race-free (``kernel_eligible``) and whose
  body is a run of 1-D REAL array assignments, or a run of 2-D ones
  followed by one inner DO of them, is lowered to numpy slab kernels,
  one whole-slab operation per statement in source order, guarded by
  a runtime check (:func:`_kg`: float storage, in-bounds, same-array
  accesses identical or disjoint, no cross-array aliasing, integer
  bounds, no stale do-stack entry).  After the numpy compute the
  kernel replays the generic loop's cost events (repeated ones as one
  :class:`~repro.fortran.interp.Cost` with ``repeat``), so the
  scheduler interleaves processes exactly as it would for the generic
  loop; if the guard fails the loop runs on the generic path emitted
  right below it, and the failed check is reported with the
  recognizer's refusals.

Artifacts are cached per ``(unit, facts_digest, cost_scale)`` — the
facts digest in the key is what invalidates ``kernel_eligible``
decisions when a different (or stale) facts document is supplied.  The
parser hands out one shared unit object per distinct unit text, so a
re-parsed program finds its units' artifacts here and emits and
``compile()``s nothing.  A shared unit belongs to many programs, so an
artifact must not depend on which program emitted it: generated code
names its callees (``rt.call("NAME", ...)``) and resolves them in the
running interpreter's program, and every question the emitter asks
about the program or the handler is recorded as a consult and replayed
before the artifact is reused.
A unit using a construct this layer cannot prove equivalent raises
:class:`CodegenUnsupported`; the interpreter then tree-walks that unit
and records the reason in ``compile_fallbacks``.
"""

from __future__ import annotations

import hashlib
import json
import weakref
import zlib
from collections.abc import Mapping

import numpy as np

from repro._util.errors import FortranError
from repro.fortran import ast_nodes as ast
from repro.fortran.accesses import unit_term
from repro.fortran.formats import apply_format, parse_format
from repro.fortran.intrinsics import call_intrinsic, is_intrinsic
from repro.fortran.interp import (
    ArrayRef,
    CellRef,
    Cost,
    ElementRef,
    StopSignal,
    ValueRef,
    _require_numeric,
)
from repro.fortran.values import (
    FArray,
    FType,
    default_type_for,
    format_value,
)

_INT = FType.INTEGER
_REAL = FType.REAL
_DOUBLE = FType.DOUBLE

# slot kinds
_CELL = "cell"        # provably a Cell for the whole invocation
_ARRAY = "array"      # provably an FArray (declared bounds)
_MAYBE = "maybe"      # dummy argument: Cell or FArray per call site
_DYNAMIC = "dynamic"  # procedure-named: replicate dict semantics exactly

#: declaration-like statements: no cost, no execution
_SKIP_CLASSES = (ast.Declaration, ast.DimensionDecl, ast.CommonDecl,
                 ast.ParameterDecl, ast.DataDecl, ast.ExternalDecl,
                 ast.FormatStmt)


class CodegenUnsupported(Exception):
    """The unit uses a construct source codegen does not handle."""


def kernel_eligible_doalls(facts) -> dict[str, set[int]]:
    """Routine name -> DOALL labels the analyzer proved race-free.

    ``facts`` is a ``force check --facts`` document (see
    :mod:`repro.analysis.facts`).  A DOALL whose body the race engine
    could not fault keeps its numeric label through translation (the
    sed expansion emits ``DO <label> I = ...``), so this tier can find
    the exact loop and treat it as an array-kernel candidate: its
    iterations touch disjoint storage.  Loops absent here stay on the
    generic path.  Reads the document only, so importing this module
    does not load :mod:`repro.analysis`.
    """
    out: dict[str, set[int]] = {}
    if not facts:
        return out
    for entry in facts.get("files", []):
        for doall in entry.get("doalls", []):
            if not doall.get("race_free"):
                continue
            try:
                label = int(doall.get("label") or 0)
            except (TypeError, ValueError):
                continue
            if label > 0:
                out.setdefault(
                    str(doall["routine"]).upper(), set()).add(label)
    return out


def facts_digest(doc) -> str:
    """Stable digest of a facts document (cache-key component).

    ``None``/empty documents share a sentinel digest, so runs without
    facts still hit the cache."""
    if not doc:
        return "no-facts"
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# runtime helpers referenced by generated code
# ----------------------------------------------------------------------
def _rnn(a, b):
    _require_numeric(a)
    _require_numeric(b)


def _tr(v):
    if v is True:
        return True
    if v is False:
        return False
    raise FortranError(f"expected LOGICAL, got {v!r}")


def _add(a, b):
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
        _rnn(a, b)
    return a + b


def _sub(a, b):
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
        _rnn(a, b)
    return a - b


def _mul(a, b):
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
        _rnn(a, b)
    return a * b


def _div(a, b):
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
        _rnn(a, b)
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise FortranError("integer division by zero")
        quotient = abs(a) // abs(b)
        return quotient if (a < 0) == (b < 0) else -quotient
    if b == 0:
        raise FortranError("division by zero")
    return a / b


def _pow(a, b):
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
        _rnn(a, b)
    if isinstance(a, int) and isinstance(b, int):
        if b < 0:
            return 1 if a == 1 else (-1) ** b if a == -1 else 0
        return a ** b
    return float(a) ** float(b)


def _neg(v):
    if isinstance(v, (bool, str)):
        raise FortranError(f"expected numeric operand, got {v!r}")
    return -v


def _pos(v):
    if isinstance(v, (bool, str)):
        raise FortranError(f"expected numeric operand, got {v!r}")
    return v


def _not(v):
    if v is True:
        return False
    if v is False:
        return True
    raise FortranError(f"expected LOGICAL, got {v!r}")


def _concat(a, b):
    if not isinstance(a, str) or not isinstance(b, str):
        raise FortranError("// requires CHARACTER operands")
    return a + b


def _chkcmp(a, b):
    if isinstance(a, str) != isinstance(b, str):
        raise FortranError("cannot compare CHARACTER with numeric")


def _eq(a, b):
    _chkcmp(a, b)
    return a == b


def _ne(a, b):
    _chkcmp(a, b)
    return a != b


def _lt(a, b):
    _chkcmp(a, b)
    return a < b


def _le(a, b):
    _chkcmp(a, b)
    return a <= b


def _gt(a, b):
    _chkcmp(a, b)
    return a > b


def _ge(a, b):
    _chkcmp(a, b)
    return a >= b


def _ld1(cell, fast, sub):
    """1-D array element load, reading numpy storage directly when
    the subscript is in bounds."""
    if sub.__class__ is not int:
        sub = int(sub)
    if fast is not None:
        data, lb, n, _ = fast
        offset = sub - lb
        if 0 <= offset < n:
            return data.item(offset)
    return cell.get((sub,))


def _st1(cell, fast, v, sub):
    """1-D array element store, writing numpy storage directly when
    the subscript is in bounds and the value already has the element's
    type."""
    if sub.__class__ is not int:
        sub = int(sub)
    if fast is not None:
        data, lb, n, is_int = fast
        offset = sub - lb
        if 0 <= offset < n:
            if is_int:
                if v.__class__ is int:
                    data[offset] = v
                    return
            elif v.__class__ is float or v.__class__ is int:
                data[offset] = v
                return
    cell.set((sub,), v)


def _ld2(cell, fast, a, b):
    """2-D array element load, reading numpy storage directly when
    both subscripts are in bounds."""
    if a.__class__ is not int:
        a = int(a)
    if b.__class__ is not int:
        b = int(b)
    if fast is not None:
        data, la, na, lb, nb, _ = fast
        i = a - la
        j = b - lb
        if 0 <= i < na and 0 <= j < nb:
            return data.item(i, j)
    return cell.get((a, b))


def _st2(cell, fast, v, a, b):
    """2-D array element store: :func:`_st1`'s rules, two subscripts."""
    if a.__class__ is not int:
        a = int(a)
    if b.__class__ is not int:
        b = int(b)
    if fast is not None:
        data, la, na, lb, nb, is_int = fast
        i = a - la
        j = b - lb
        if 0 <= i < na and 0 <= j < nb:
            if is_int:
                if v.__class__ is int:
                    data[i, j] = v
                    return
            elif v.__class__ is float or v.__class__ is int:
                data[i, j] = v
                return
    cell.set((a, b), v)


def _sca(cell, v):
    """Scalar cell assignment, type-specialized per value class."""
    cls = v.__class__
    ftype = cell.ftype
    if cls is float:
        if ftype is _REAL or ftype is _DOUBLE:
            cell.value = v
            return
        if ftype is _INT:
            cell.value = int(v)
            return
    elif cls is int:
        if ftype is _INT:
            cell.value = v
            return
        if ftype is _REAL or ftype is _DOUBLE:
            cell.value = float(v)
            return
    cell.set(v)


def _sma(entry, v, name, unit):
    """Assign to a dummy that must be a scalar at this call site."""
    if entry.__class__ is FArray:
        raise FortranError(
            f"cannot assign scalar to whole array {name}", unit=unit)
    entry.set(v)


def _sdy(frame, name, v, unit):
    """Assign to a dynamically-resolved scalar name."""
    entry = frame.vars.get(name)
    if entry is not None and entry.__class__ is FArray:
        raise FortranError(
            f"cannot assign scalar to whole array {name}", unit=unit)
    frame.get_or_create_scalar(name).set(v)


def _mv(entry, name, unit):
    """Read a MAYBE (dummy) name as a scalar."""
    if entry.__class__ is FArray:
        raise FortranError(
            f"whole array {name} in scalar expression", unit=unit)
    return entry.value


def _dv(frame, name, unit):
    """Read a dynamically-resolved name as a scalar."""
    entry = frame.vars.get(name)
    if entry is None:
        return frame.get_or_create_scalar(name).value
    if entry.__class__ is FArray:
        raise FortranError(
            f"whole array {name} in scalar expression", unit=unit)
    return entry.value


def _ea(name, unit):
    raise FortranError(f"whole array {name} in scalar expression",
                       unit=unit)


def _nofn(name, unit):
    raise FortranError(
        f"{name} is not an array, intrinsic or function", unit=unit)


def _dvc(entry, name, unit):
    """DO variable cell for MAYBE/ARRAY-classified names."""
    if entry.__class__ is FArray:
        raise FortranError(f"{name} is an array, not a scalar", unit=unit)
    return entry


def _adv(frame, executed, nxt):
    """DO terminal advance — identical trip accounting to the tree
    walker (typed increment of the loop variable)."""
    stack = frame.do_stack
    while stack and stack[-1][1] == executed:
        entry = stack[-1]
        entry[4] -= 1
        cell = entry[2]
        # F77: the DO variable is incremented on every pass, including
        # the one that exhausts the trip count.
        value = cell.value + entry[3]
        if value.__class__ is int and cell.ftype is _INT:
            cell.value = value
        else:
            cell.set(value)
        if entry[4] > 0:
            return entry[0] + 1
        stack.pop()
    return nxt


def _dofin(cell, v):
    """Set the DO variable's post-loop value after a kernelized run."""
    if v.__class__ is int and cell.ftype is _INT:
        cell.value = v
    else:
        cell.set(v)


def _mkdyn(frame, name, const):
    """Actual-argument reference for a dynamically-resolved name."""
    entry = frame.vars.get(name)
    if entry is not None:
        if entry.__class__ is FArray:
            return ArrayRef(entry)
        return CellRef(entry)
    if const is not None:
        return const
    return CellRef(frame.get_or_create_scalar(name))


def _num2(v):
    return v.__class__ is int or v.__class__ is float


def _kg(frame, spec, ranges):
    """Runtime kernel guard: the numpy slab of every access, or None.

    ``spec`` is ``(loops, accesses)``: the statement indices of the
    nest's DO loops, outer first, and one ``(slot, dims, written)``
    per distinct array access, ``dims`` holding one ``(axis, c)`` per
    subscript.  The subscript is ``ranges[axis][0] + c``, stepping by
    ``ranges[axis][1]`` over ``ranges[axis][2]`` trips: axes below
    the nest depth are its DO loops, the rest loop-invariant INTEGER
    scalars (one trip, no step); axis None is the constant ``c``.

    Every access must reach a float fast view of the nest's rank and
    stay in bounds over its whole box of subscripts.  Each write,
    paired with another access of the same array, needs the identical
    subscript (a same-iteration access, which running the statements
    one after another keeps in order) or a box disjoint from it; a
    write may share no storage with any other array.  An access that
    a zero-trip loop never makes has no box and no slab.  A stale
    do-stack entry for a loop of the nest (re-entry after a GOTO
    jumped out of it) also bails out: the generic path filters such
    entries, the kernel path cannot.

    A slab has the nest's shape: ``(trips,)`` for one loop,
    ``(outer trips, inner trips)`` for two, with size-1 axes where a
    subscript leaves a loop out; a loop-invariant element is a 0-d
    view.

    A failed check returns None and records its reason
    (:func:`_kgno`), so a lowered loop that ran generic is reported
    rather than skipped silently."""
    loops, accesses = spec
    for entry in frame.do_stack:
        if entry[0] in loops:
            return _kgno(frame, loops, "stale DO entry of the nest")
    depth = len(loops)
    fast = frame.fast if depth == 1 else frame.fast2
    boxes = []
    slabs = []
    for slot, dims, _written in accesses:
        f = fast[slot]
        if f is None or f[-1]:
            return _kgno(frame, loops, f"no float rank-{depth} view")
        box = []
        index = []
        walks = []
        d = 1                   # f[d], f[d + 1]: this dimension's
        for axis, c in dims:    # lower bound and extent
            lower = f[d]
            if axis is None:
                lo = hi = c
            else:
                first, step, trips = ranges[axis]
                if first.__class__ is not int:
                    return _kgno(frame, loops, "non-integer subscript")
                if not trips:
                    box = None
                    break
                lo = first + c
                hi = lo + (trips - 1) * step
                if axis < depth:
                    start = lo - lower
                    stop = start + trips * step
                    index.append(slice(start, None if stop < 0 else stop,
                                       step))
                    walks.append(axis)
                if lo > hi:
                    lo, hi = hi, lo
            if lo < lower or hi >= lower + f[d + 1]:
                return _kgno(frame, loops, "subscript out of bounds")
            box.append((lo, hi))
            if len(index) < len(box):
                index.append(lo - lower)
            d += 2
        boxes.append(box)
        if box is None:
            slabs.append(None)
            continue
        slab = f[0][(*index, ...)]
        if walks == [1, 0]:
            slab = slab.T
        elif walks == [0] and depth == 2:
            slab = slab[:, None]
        slabs.append(slab)
    for a, (slot, _dims, written) in enumerate(accesses):
        if not written or boxes[a] is None:
            continue
        data = fast[slot][0]
        for b, (other, _odims, _w) in enumerate(accesses):
            if b == a or boxes[b] is None:
                continue
            if other != slot:
                if np.may_share_memory(data, fast[other][0]):
                    return _kgno(frame, loops,
                                 "written array aliases another")
                continue
            for (lo, hi), (olo, ohi) in zip(boxes[a], boxes[b]):
                if hi < olo or ohi < lo:
                    break       # disjoint in this dimension
            else:
                return _kgno(frame, loops,
                             "write overlaps another access")
    return slabs


def _kgno(frame, loops, why):
    """Record why the kernel guard sent the DOALL heading ``loops``
    down the generic path (the first reason per loop, reported beside
    the recognizer's refusals); returns None."""
    unit = frame.unit
    label = unit.statements[loops[0]].term_label
    refused = frame.interpreter._codegen.guard_refused
    refused.setdefault(unit.name, {}).setdefault(
        label, f"runtime guard: {why}")


#: Names injected into every generated module's namespace.
_BASE_NAMESPACE = {
    "_C": Cost,
    "_FE": FortranError,
    "_SS": StopSignal,
    "_FA": FArray,
    "_np": np,
    "_arange": np.arange,
    "_intr": call_intrinsic,
    "_ER": ElementRef,
    "_VR": ValueRef,
    "_tr": _tr,
    "_add": _add,
    "_sub": _sub,
    "_mul": _mul,
    "_div": _div,
    "_pow": _pow,
    "_neg": _neg,
    "_pos": _pos,
    "_not": _not,
    "_concat": _concat,
    "_eq": _eq,
    "_ne": _ne,
    "_lt": _lt,
    "_le": _le,
    "_gt": _gt,
    "_ge": _ge,
    "_ld1": _ld1,
    "_st1": _st1,
    "_ld2": _ld2,
    "_st2": _st2,
    "_sca": _sca,
    "_sma": _sma,
    "_sdy": _sdy,
    "_mv": _mv,
    "_dv": _dv,
    "_ea": _ea,
    "_nofn": _nofn,
    "_dvc": _dvc,
    "_adv": _adv,
    "_dofin": _dofin,
    "_mkdyn": _mkdyn,
    "_num2": _num2,
    "_kg": _kg,
}

_REL_FN = {
    ".EQ.": "_eq",
    ".NE.": "_ne",
    ".LT.": "_lt",
    ".LE.": "_le",
    ".GT.": "_gt",
    ".GE.": "_ge",
}


# ----------------------------------------------------------------------
# per-interpreter runtime bridge
# ----------------------------------------------------------------------
class _Runtime:
    """The only interpreter-specific object generated code touches.

    Artifacts are cached across interpreters and programs (same unit,
    same facts digest), so the generated namespace must stay free of
    both; everything that needs *this* run's program, handler, output
    or input goes through one ``rt`` parameter instead.
    """

    __slots__ = ("interp",)

    def __init__(self, interp) -> None:
        self.interp = interp

    def ext(self, name, refs, frame):
        """External (Force runtime) CALL — returns an event generator."""
        return self.interp.external.call(name, refs, frame)

    def call(self, name, refs, frame):
        """CALL into another program unit of this run's program —
        returns its generator."""
        interp = self.interp
        return interp.run_unit(interp.program.units[name], refs,
                               frame.depth + 1, process=frame.process)

    def ufn(self, name, refs, frame):
        """User FUNCTION in an expression: run synchronously."""
        interp = self.interp
        gen = interp.run_unit(interp.program.units[name], refs, 1,
                              process=frame.process)
        while True:
            try:
                event = next(gen)
            except StopIteration as stop:
                return stop.value
            if not isinstance(event, Cost):
                raise FortranError(
                    f"function {name} attempted a blocking "
                    "operation (not allowed inside an expression)")

    def extfn(self, name, refs, frame):
        return self.interp.external.call_function(name, refs, frame)

    def wl(self, values, frame):
        """List-directed WRITE."""
        interp = self.interp
        line = " ".join(format_value(v) for v in values)
        interp.output.append(line)
        callback = interp.on_output
        if callback is not None:
            callback(line, frame)

    def wf(self, edits, values, frame):
        """FORMAT-directed WRITE (edits resolved at emit time)."""
        interp = self.interp
        callback = interp.on_output
        for line in apply_format(edits, list(values)):
            interp.output.append(line)
            if callback is not None:
                callback(line, frame)

    def rd(self, frame):
        return self.interp._next_input(frame)

    def co(self, frame):
        self.interp._run_copy_outs(frame)


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
class _Artifact:
    """One compiled emission of a unit (or a recorded failure).

    The generated source is kept zlib-compressed: artifacts live as
    long as their shared unit, and the source is read only for
    reports and dumps."""

    __slots__ = ("facts_key", "cost_scale", "consults", "fn", "packed",
                 "slot_names", "kernel_labels", "kernel_refused", "error")

    def __init__(self, facts_key, cost_scale, consults, *,
                 fn=None, source="", slot_names=(), kernel_labels=(),
                 kernel_refused=None, error=None):
        self.facts_key = facts_key
        self.cost_scale = cost_scale
        self.consults = consults
        self.fn = fn
        self.packed = zlib.compress(source.encode())
        self.slot_names = slot_names
        self.kernel_labels = kernel_labels
        #: label -> why an eligible loop was left on the generic path
        self.kernel_refused = kernel_refused or {}
        self.error = error

    @property
    def source(self) -> str:
        return zlib.decompress(self.packed).decode()


class _Sources(Mapping):
    """Unit name -> generated source, inflated when read."""

    __slots__ = ("_artifacts",)

    def __init__(self, artifacts: dict[str, _Artifact]) -> None:
        self._artifacts = artifacts

    def __getitem__(self, name: str) -> str:
        return self._artifacts[name].source

    def __iter__(self):
        return iter(self._artifacts)

    def __len__(self) -> int:
        return len(self._artifacts)


#: unit -> list of cached artifacts.  Weak, so an artifact lives as
#: long as its unit: for the parser's shared units, the process.
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _consults_valid(consults, interp) -> bool:
    """Replay the queries recorded at emit time: an artifact is
    reusable only under a handler and a program that answer them
    identically."""
    handler = interp.external
    units = interp.program.units
    for name, kind, expected in consults:
        if kind == "unit":
            unit = units.get(name)
            actual = unit.kind if unit is not None else ""
        elif kind == "ext":
            actual = bool(handler.is_external(name))
        else:
            actual = bool(handler.is_external_function(name))
        if actual != expected:
            return False
    return True


# ----------------------------------------------------------------------
# program / unit wrappers
# ----------------------------------------------------------------------
class CodegenProgram:
    """Per-interpreter cache of source-generated units."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self._units: dict[str, "CodegenUnit | None"] = {}
        #: unit name -> reason the tree walker runs it instead
        self.fallbacks: dict[str, str] = {}
        self.facts_key = facts_digest(getattr(interp, "facts", None))
        #: routine -> race-free DOALL labels from the analysis facts
        self.eligible = kernel_eligible_doalls(
            getattr(interp, "facts", None))
        #: unit name -> labels of its kernel-eligible loops
        self.kernel_eligible: dict[str, list[int]] = {}
        #: unit name -> labels actually lowered to numpy kernels
        self.kernelized: dict[str, list[int]] = {}
        #: unit name -> {label: reason} of eligible loops not lowered
        self.kernel_refused: dict[str, dict[int, str]] = {}
        #: unit name -> {label: reason} of lowered loops whose runtime
        #: guard failed on some entry (see :func:`_kgno`)
        self.guard_refused: dict[str, dict[int, str]] = {}
        #: unit name -> the artifact its generated code came from
        self.emitted: dict[str, _Artifact] = {}

    def sources(self) -> Mapping:
        """Unit name -> generated Python source (provenance-annotated)
        of every unit emitted so far."""
        return _Sources(dict(self.emitted))

    def unit_for(self, unit) -> "CodegenUnit | None":
        name = unit.name
        try:
            return self._units[name]
        except KeyError:
            pass
        artifact = self._artifact_for(unit)
        if artifact.error is not None:
            self.fallbacks[name] = artifact.error
            generated = None
        else:
            generated = CodegenUnit(unit, self.interp, artifact)
            self.emitted[name] = artifact
            if artifact.kernel_labels:
                self.kernelized[name] = list(artifact.kernel_labels)
            if artifact.kernel_refused:
                self.kernel_refused[name] = dict(artifact.kernel_refused)
        self._units[name] = generated
        if generated is not None:
            proven = self.eligible.get(name.upper())
            if proven:
                labels = sorted(
                    stmt.term_label for stmt in unit.statements
                    if isinstance(stmt, ast.Do)
                    and stmt.term_label in proven)
                if labels:
                    self.kernel_eligible[name] = labels
        return generated

    def _artifact_for(self, unit) -> _Artifact:
        interp = self.interp
        scale = interp.cost_scale
        cached = _CACHE.get(unit)
        if cached is None:
            cached = _CACHE.setdefault(unit, [])
        for artifact in cached:
            if artifact.facts_key == self.facts_key \
                    and artifact.cost_scale == scale \
                    and _consults_valid(artifact.consults, interp):
                return artifact
        emitter = _Emitter(unit, interp,
                           self.eligible.get(unit.name.upper()) or set())
        try:
            source, namespace = emitter.emit()
            exec(compile(source, f"<codegen {unit.name}>", "exec"),
                 namespace)
            artifact = _Artifact(
                self.facts_key, scale, tuple(sorted(set(emitter.consults))),
                fn=namespace["_gen"], source=source,
                slot_names=tuple(emitter.slot_names),
                kernel_labels=tuple(emitter.kernel_labels),
                kernel_refused=emitter.kernel_refused)
        except CodegenUnsupported as exc:
            artifact = _Artifact(
                self.facts_key, scale, tuple(sorted(set(emitter.consults))),
                error=str(exc))
        cached.append(artifact)
        return artifact


class CodegenUnit:
    """One program unit lowered to generated Python source."""

    def __init__(self, unit, interp, artifact) -> None:
        self.unit = unit
        self.interp = interp
        self.slot_names = artifact.slot_names
        self._fn = artifact.fn
        self._rt = _Runtime(interp)

    def run(self, args, depth, process):
        """Generator executing one invocation (same contract as the
        tree-walker's ``run_unit``)."""
        interp = self.interp
        if depth > interp.max_call_depth:
            raise FortranError(
                f"call depth exceeds {interp.max_call_depth} "
                f"(runaway recursion?)", unit=self.unit.name)
        frame = interp._make_frame(self.unit, args, process)
        frame.depth = depth
        self._bind(frame)
        yield from self._fn(frame, self._rt)
        if self.unit.kind == "function":
            assert frame.result_cell is not None
            return frame.result_cell.get()
        return None

    def _bind(self, frame) -> None:
        """Resolve slots to this invocation's storage: ``slots`` and
        ``argrefs`` per name, plus numpy fast views of numeric arrays,
        kept apart by rank so that a view only ever reaches the helpers
        of its own rank: ``fast`` for 1-D arrays (read by
        :func:`_ld1`/:func:`_st1`) and ``fast2`` for 2-D ones (read by
        :func:`_ld2`/:func:`_st2`); the kernel guard :func:`_kg` reads
        the list of its nest's rank.  A name with
        no view of a rank has None there, so its accesses of that rank
        take the generic path and its errors."""
        from repro.fortran.interp import Cell
        variables = frame.vars
        slots = []
        argrefs = []
        fast = []
        fast2 = []
        for name in self.slot_names:
            entry = variables.get(name)
            if entry is None:
                entry = Cell(default_type_for(name))
                variables[name] = entry
            slots.append(entry)
            view = view2 = None
            if entry.__class__ is FArray:
                argrefs.append(ArrayRef(entry))
                data = entry.data
                kind = data.dtype.kind
                if kind in "if":
                    shape = entry.shape
                    lower = entry.lower
                    if len(shape) == 1:
                        view = (data, lower[0], shape[0], kind == "i")
                    elif len(shape) == 2:
                        view2 = (data, lower[0], shape[0], lower[1],
                                 shape[1], kind == "i")
            else:
                argrefs.append(CellRef(entry))
            fast.append(view)
            fast2.append(view2)
        frame.slots = slots
        frame.argrefs = argrefs
        frame.fast = fast
        frame.fast2 = fast2


def compile_all(interp) -> dict[str, str]:
    """Force source-codegen of every unit; returns the fallback map."""
    for unit in interp.program.units.values():
        interp._codegen_unit(unit)
    return dict(interp._codegen.fallbacks)


# ----------------------------------------------------------------------
# the emitter
# ----------------------------------------------------------------------
class _EmitterBase:
    """Emit one unit's generated Python source.

    The unit's flat statement list is partitioned at *leaders* (jump
    targets); each region becomes one arm of a ``pc`` dispatch loop.
    Costs accumulate statically while emitting straight-line code and
    are materialized into the ``_p``/``_n`` runtime accumulators before
    any control transfer, then flushed as one aggregate ``Cost`` event
    before every observable point.
    """

    def __init__(self, unit, interp, eligible_labels) -> None:
        self.unit = unit
        self.interp = interp
        self.program = interp.program
        self.handler = interp.external
        self.scale = interp.cost_scale
        self.eligible_labels = eligible_labels
        self.consults: list[tuple[str, str, bool]] = []
        self.kernel_labels: list[int] = []
        self.kernel_refused: dict[int, str] = {}

        # name classification
        self._params = set(unit.params)
        self._bounds_names: set[str] = set()
        self._externals: set[str] = set()
        self._decl_type: dict[str, FType] = {}
        for stmt in unit.statements:
            if isinstance(stmt, (ast.Declaration, ast.DimensionDecl,
                                 ast.CommonDecl)):
                for name, bounds in stmt.entities:
                    if bounds is not None:
                        self._bounds_names.add(name)
                    if isinstance(stmt, ast.Declaration):
                        self._decl_type[name] = stmt.ftype
            elif isinstance(stmt, ast.ExternalDecl):
                self._externals.update(stmt.names)

        self.slot_index: dict[str, int] = {}
        self.slot_names: list[str] = []
        self.slot_kinds: list[str] = []

        self.lines: list[str] = []
        self.inits: list[str] = []   # locals initialized before the loop
        self.indent = 2
        self.stat_c = 0          # statically-pending cycles
        self.stat_n = 0          # statically-pending statement count
        self.tmp = 0
        self.consts: dict[str, object] = {}
        self.const_ids: dict[int, str] = {}

    # -- low-level emission helpers ------------------------------------
    def w(self, text: str, provenance=None) -> None:
        pad = "    " * self.indent
        if provenance is not None:
            text = f"{text}  # L{provenance}"
        self.lines.append(pad + text)

    def temp(self, prefix: str = "_t") -> str:
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    def const(self, value, prefix: str) -> str:
        key = id(value)
        name = self.const_ids.get(key)
        if name is None:
            name = f"{prefix}{len(self.consts)}"
            self.const_ids[key] = name
            self.consts[name] = value
        return name

    def mat(self) -> None:
        """Materialize statically-pending costs into ``_p``/``_n``."""
        if self.stat_n:
            self.w(f"_p += {self.stat_c}")
            self.w(f"_n += {self.stat_n}")
            self.stat_c = 0
            self.stat_n = 0

    def flush(self) -> None:
        """Yield the pending aggregate cost event, if any."""
        self.mat()
        self.w("if _n:")
        self.w("    yield _C(_p, _n)")
        self.w("    _p = 0")
        self.w("    _n = 0")

    # -- consults (recorded for cache validation) ----------------------
    def _unit_kind(self, name: str) -> str:
        """Kind of the program's unit ``name``, or "" if there is none."""
        unit = self.program.units.get(name)
        result = unit.kind if unit is not None else ""
        self.consults.append((name, "unit", result))
        return result

    def _is_ext(self, name: str) -> bool:
        result = bool(self.handler.is_external(name))
        self.consults.append((name, "ext", result))
        return result

    def _is_extfn(self, name: str) -> bool:
        result = bool(self.handler.is_external_function(name))
        self.consults.append((name, "extfn", result))
        return result

    def _kind(self, name: str) -> str:
        if name in self._params:
            return _MAYBE
        if name in self._bounds_names:
            return _ARRAY
        if self._unit_kind(name) or name in self._externals \
                or self._is_ext(name) or self._is_extfn(name):
            return _DYNAMIC
        return _CELL

    def _slot(self, name: str) -> int:
        index = self.slot_index.get(name)
        if index is None:
            index = len(self.slot_names)
            self.slot_index[name] = index
            self.slot_names.append(name)
            self.slot_kinds.append(self._kind(name))
        return index

    def _ftype(self, name: str) -> FType:
        return self._decl_type.get(name, default_type_for(name))

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def emit(self):
        unit = self.unit
        statements = unit.statements
        count = len(statements)
        if count == 0:
            raise CodegenUnsupported("empty unit")

        self.is_terminal = [False] * count
        for stmt in statements:
            if isinstance(stmt, ast.Do) and 0 <= stmt.terminal < count:
                self.is_terminal[stmt.terminal] = True

        leaders = self._leaders()
        self.lines = [
            f"# generated by repro.fortran.codegen for unit "
            f"{unit.name} ({unit.kind})",
            "def _gen(frame, rt):",
            "    _sl = frame.slots",
            "    _fv = frame.fast",
            "    _fw = frame.fast2",
            "    _ag = frame.argrefs",
            "    _p = 0",
            "    _n = 0",
            "    pc = 0",
            "    via = False",
            "    while True:",
        ]
        first = True
        for pos, leader in enumerate(leaders):
            end = leaders[pos + 1] if pos + 1 < len(leaders) else count
            head = "if" if first else "elif"
            first = False
            self.indent = 2
            self.w(f"{head} pc == {leader}:")
            self.indent = 3
            self._region(leader, end, count)
        self.indent = 2
        self.w("else:")
        self.indent = 3
        self.w(f'raise _FE("fell off the end of unit", unit=_UN)')

        # kernel memo cells etc. live ahead of the dispatch loop (the
        # preamble is a fixed 10-line prefix ending in "while True:")
        for j, init in enumerate(self.inits):
            self.lines.insert(9 + j, "    " + init)

        self.consts["_UN"] = unit.name
        namespace = dict(_BASE_NAMESPACE)
        namespace.update(self.consts)
        return "\n".join(self.lines) + "\n", namespace

    def _leaders(self) -> list[int]:
        count = len(self.unit.statements)
        leaders = {0}

        def add(index):
            if 0 <= index < count:
                leaders.add(index)

        def scan(stmt):
            if isinstance(stmt, ast.Goto):
                add(stmt.target)
            elif isinstance(stmt, ast.ComputedGoto):
                for target in stmt.targets:
                    add(target)
            elif isinstance(stmt, ast.IfThen):
                add(stmt.false_target)
            elif isinstance(stmt, ast.ElseIf):
                add(stmt.false_target)
                add(stmt.end_target)
            elif isinstance(stmt, ast.Else):
                add(stmt.end_target)
            elif isinstance(stmt, ast.Do):
                add(stmt.index + 1)
                add(stmt.terminal + 1)
            elif isinstance(stmt, ast.LogicalIf):
                scan(stmt.body)

        for stmt in self.unit.statements:
            scan(stmt)
            # ELSE IF / ELSE read the via flag, so they must head their
            # own region even if nothing jumps to them explicitly.
            if isinstance(stmt, (ast.ElseIf, ast.Else)):
                add(stmt.index)
        return sorted(leaders)

    def _region(self, start: int, end: int, count: int) -> None:
        statements = self.unit.statements
        top = len(self.lines)
        for i in range(start, end):
            stmt = statements[i]
            if isinstance(stmt, _SKIP_CLASSES):
                if self.is_terminal[i]:
                    self._advance(i)
                continue
            self.stat_c += stmt.weight * self.scale
            self.stat_n += 1
            transferred = self._stmt(stmt, i)
            if transferred:
                if len(self.lines) == top:
                    self.w("pass")
                return
            if self.is_terminal[i]:
                self._advance(i)
        # sequential fall-through to the next region (or off the end)
        self.mat()
        if end >= count:
            self.flush()
            self.w('raise _FE("fell off the end of unit", unit=_UN)')
        else:
            self.w(f"pc = {end}")
            self.w("via = False")
            self.w("continue")

    def _advance(self, i: int) -> None:
        """DO terminal bookkeeping after sequential completion of the
        statement at index ``i`` (flush keeps the clock loop-accurate
        at every backward jump)."""
        self.mat()
        self.w(f"if frame.do_stack and frame.do_stack[-1][1] == {i}:")
        self.indent += 1
        self.flush()
        self.w(f"pc = _adv(frame, {i}, {i + 1})")
        self.w(f"via = pc != {i + 1}")
        self.w("continue")
        self.indent -= 1

    # ------------------------------------------------------------------
    # statements — each returns True when it ends the region
    # ------------------------------------------------------------------
    def _stmt(self, stmt, i: int) -> bool:
        cls = stmt.__class__
        method = _GEN_DISPATCH.get(cls)
        if method is None:
            raise CodegenUnsupported(
                f"statement {cls.__name__} not supported")
        return method(self, stmt, i)

    def _g_continue(self, stmt, i) -> bool:
        return False

    _g_end_if = _g_continue
    _g_end_do = _g_continue

    def _g_goto(self, stmt, i) -> bool:
        self.mat()
        if stmt.target <= i:
            self.flush()
        self.w(f"pc = {stmt.target}", stmt.line)
        self.w("via = True")
        self.w("continue")
        return True

    def _g_computed_goto(self, stmt, i) -> bool:
        selector = self._expr(stmt.selector)
        self._maybe_flush_exprs((stmt.selector,))
        self.mat()
        sel = self.temp()
        self.w(f"{sel} = int({selector})", stmt.line)
        targets = tuple(stmt.targets)
        cg = self.const(targets, "_CG")
        self.w(f"if 1 <= {sel} <= {len(targets)}:")
        self.indent += 1
        if any(t <= i for t in targets):
            self.flush()
        self.w(f"pc = {cg}[{sel} - 1]")
        self.w("via = True")
        self.w("continue")
        self.indent -= 1
        return False

    def _g_if_then(self, stmt, i) -> bool:
        cond = self._expr(stmt.cond)
        self._maybe_flush_exprs((stmt.cond,))
        self.mat()
        self.w(f"if not _tr({cond}):", stmt.line)
        self.indent += 1
        self.w(f"pc = {stmt.false_target}")
        self.w("via = True")
        self.w("continue")
        self.indent -= 1
        return False

    def _g_else_if(self, stmt, i) -> bool:
        # Region head: sequential arrival means the previous arm just
        # finished, so control jumps to END IF; arrival by jump tests
        # this arm's condition.
        cond = self._expr(stmt.cond)
        self._maybe_flush_exprs((stmt.cond,))
        self.mat()
        self.w("if not via:", stmt.line)
        self.indent += 1
        if stmt.end_target <= i:
            self.flush()
        self.w(f"pc = {stmt.end_target}")
        self.w("via = True")
        self.w("continue")
        self.indent -= 1
        self.w(f"if not _tr({cond}):")
        self.indent += 1
        self.w(f"pc = {stmt.false_target}")
        self.w("via = True")
        self.w("continue")
        self.indent -= 1
        return False

    def _g_else(self, stmt, i) -> bool:
        self.mat()
        self.w("if not via:", stmt.line)
        self.indent += 1
        if stmt.end_target <= i:
            self.flush()
        self.w(f"pc = {stmt.end_target}")
        self.w("via = True")
        self.w("continue")
        self.indent -= 1
        return False

    _IF_BODIES = (ast.Goto, ast.Assign, ast.Call, ast.Stop, ast.Return,
                  ast.Write, ast.Read, ast.Continue, ast.ComputedGoto)

    def _g_logical_if(self, stmt, i) -> bool:
        body = stmt.body
        if not isinstance(body, self._IF_BODIES):
            raise CodegenUnsupported(
                f"IF body {body.__class__.__name__} not supported")
        cond = self._expr(stmt.cond)
        self._maybe_flush_exprs((stmt.cond,))
        self.mat()
        self.w(f"if _tr({cond}):", stmt.line)
        self.indent += 1
        top = len(self.lines)
        self._stmt(body, i)
        if len(self.lines) == top:
            self.w("pass")
        self.indent -= 1
        # a labelled logical IF can be a DO terminal; the advance (in
        # _region) runs on sequential completion whether or not the
        # body executed, which the body's own transfer skips.
        return False

    def _g_assign(self, stmt, i) -> bool:
        self._maybe_flush_stmt_exprs(stmt)
        value = self._expr(stmt.expr)
        target = stmt.target
        if target.__class__ is ast.Var:
            name = target.name
            kind = self._kind(name)
            if kind is _CELL:
                s = self._slot(name)
                self.w(f"_sca(_sl[{s}], {value})", stmt.line)
                return False
            if kind is _ARRAY:
                tv = self.temp()
                self.w(f"{tv} = {value}", stmt.line)
                self.w(f'raise _FE("cannot assign scalar to whole array '
                       f'{name}", unit=_UN)')
                return True
            if kind is _MAYBE:
                s = self._slot(name)
                self.w(f'_sma(_sl[{s}], {value}, "{name}", _UN)',
                       stmt.line)
                return False
            self.w(f'_sdy(frame, "{name}", {value}, _UN)', stmt.line)
            return False
        if target.__class__ is ast.Apply:
            name = target.name
            kind = self._kind(name)
            subs = [self._expr(a) for a in target.args]
            if kind is _ARRAY:
                s = self._slot(name)
                if len(subs) == 1:
                    self.w(f"_st1(_sl[{s}], _fv[{s}], {value}, {subs[0]})",
                           stmt.line)
                    return False
                if len(subs) == 2:
                    self.w(f"_st2(_sl[{s}], _fw[{s}], {value}, "
                           f"{subs[0]}, {subs[1]})", stmt.line)
                    return False
                tv = self.temp()
                self.w(f"{tv} = {value}", stmt.line)
                tup = ", ".join(f"int({sub})" for sub in subs)
                self.w(f"_sl[{s}].set(({tup},), {tv})")
                return False
            tv = self.temp()
            te = self.temp("_e")
            self.w(f"{tv} = {value}", stmt.line)
            if kind is _MAYBE:
                s = self._slot(name)
                self.w(f"{te} = _sl[{s}]")
            else:
                self.w(f'{te} = frame.vars.get("{name}")')
            self.w(f"if {te}.__class__ is not _FA:")
            self.w(f'    raise _FE("{name} is not an array", unit=_UN)')
            tup = ", ".join(f"int({sub})" for sub in subs)
            comma = "," if len(subs) == 1 else ""
            self.w(f"{te}.set(({tup}{comma}), {tv})")
            return False
        raise CodegenUnsupported("bad assignment target")

    def _g_call(self, stmt, i) -> bool:
        name = stmt.name
        if self._is_ext(name):
            refs = ", ".join(self._argref(a) for a in stmt.args)
            self.flush()
            self.w(f'yield from rt.ext("{name}", [{refs}], frame)',
                   stmt.line)
            return False
        if self._unit_kind(name) != "subroutine":
            self.mat()
            self.w(f'raise _FE("no subroutine named {name}", '
                   f"line={stmt.line}, unit=_UN)", stmt.line)
            return True
        refs = ", ".join(self._argref(a) for a in stmt.args)
        self.flush()
        self.w(f'yield from rt.call("{name}", [{refs}], frame)', stmt.line)
        return False

    def _g_return(self, stmt, i) -> bool:
        self.flush()
        if self.unit.params:
            self.w("rt.co(frame)", stmt.line)
            self.w("return")
        else:
            self.w("return", stmt.line)
        return True

    _g_end_unit = _g_return

    def _g_stop(self, stmt, i) -> bool:
        self.flush()
        self.w(f"raise _SS({stmt.message!r})", stmt.line)
        return True

    def _g_write(self, stmt, i) -> bool:
        items = [self._expr(e) for e in stmt.items]
        self.flush()
        values = ", ".join(items)
        comma = "," if len(items) == 1 else ""
        if stmt.fmt_label is None:
            self.w(f"rt.wl(({values}{comma}), frame)", stmt.line)
            return False
        edits = self._resolve_format(stmt)
        fc = self.const(edits, "_FMT")
        self.w(f"rt.wf({fc}, ({values}{comma}), frame)", stmt.line)
        return False

    def _resolve_format(self, stmt):
        if stmt.compiled_format is not None:
            return stmt.compiled_format
        unit = self.unit
        index = unit.label_index.get(stmt.fmt_label)
        if index is None:
            raise CodegenUnsupported(
                f"no FORMAT labelled {stmt.fmt_label}")
        fmt_stmt = unit.statements[index]
        if not isinstance(fmt_stmt, ast.FormatStmt):
            raise CodegenUnsupported(
                f"label {stmt.fmt_label} is not a FORMAT statement")
        text = fmt_stmt.text.strip()
        open_paren = text.find("(")
        if not text.upper().startswith("FORMAT") or open_paren < 0 \
                or not text.endswith(")"):
            raise CodegenUnsupported(f"malformed FORMAT: {text!r}")
        try:
            stmt.compiled_format = parse_format(text[open_paren + 1:-1])
        except FortranError as exc:
            raise CodegenUnsupported(str(exc)) from exc
        return stmt.compiled_format

    def _g_read(self, stmt, i) -> bool:
        self.flush()
        first = True
        for target in stmt.targets:
            prov = stmt.line if first else None
            first = False
            self._read_store(target, prov)
        if not stmt.targets:
            self.w("pass", stmt.line)
        return False

    def _read_store(self, target, prov) -> None:
        if target.__class__ is ast.Var:
            name = target.name
            kind = self._kind(name)
            if kind is _CELL:
                s = self._slot(name)
                self.w(f"_sl[{s}].set(rt.rd(frame))", prov)
                return
            if kind is _MAYBE or kind is _ARRAY:
                s = self._slot(name)
                self.w(f'_sma(_sl[{s}], rt.rd(frame), "{name}", _UN)',
                       prov)
                return
            self.w(f'_sdy(frame, "{name}", rt.rd(frame), _UN)', prov)
            return
        if target.__class__ is ast.Apply:
            name = target.name
            kind = self._kind(name)
            subs = [self._expr(a) for a in target.args]
            tv = self.temp()
            te = self.temp("_e")
            self.w(f"{tv} = rt.rd(frame)", prov)
            if kind is _ARRAY or kind is _MAYBE:
                s = self._slot(name)
                self.w(f"{te} = _sl[{s}]")
            else:
                self.w(f'{te} = frame.vars.get("{name}")')
            self.w(f"if {te}.__class__ is not _FA:")
            self.w(f'    raise _FE("{name} is not an array", unit=_UN)')
            tup = ", ".join(f"int({sub})" for sub in subs)
            comma = "," if len(subs) == 1 else ""
            self.w(f"{te}.set(({tup}{comma}), {tv})")
            return
        raise CodegenUnsupported("bad assignment target")

    def _g_do(self, stmt, i) -> bool:
        exprs = [stmt.first, stmt.last]
        if stmt.step is not None:
            exprs.append(stmt.step)
        self._maybe_flush_exprs(exprs)
        if self.is_terminal[i]:
            raise CodegenUnsupported("DO statement is its own terminal")
        self._maybe_kernel(stmt)
        first = self._expr(stmt.first)
        last = self._expr(stmt.last)
        step = self._expr(stmt.step) if stmt.step is not None else "1"
        self.mat()
        tf = self.temp("_f")
        tl = self.temp("_l")
        ts = self.temp("_s")
        tc = self.temp("_c")
        tt = self.temp("_n")
        self.w(f"{tf} = {first}", stmt.line)
        self.w(f"{tl} = {last}")
        self.w(f"{ts} = {step}")
        self.w(f"if {ts} == 0:")
        self.w(f'    raise _FE("DO step of zero", line={stmt.line}, '
               "unit=_UN)")
        name = stmt.var
        kind = self._kind(name)
        if kind is _CELL:
            s = self._slot(name)
            self.w(f"{tc} = _sl[{s}]")
        elif kind is _DYNAMIC:
            self.w(f'{tc} = frame.get_or_create_scalar("{name}")')
        else:
            s = self._slot(name)
            self.w(f'{tc} = _dvc(_sl[{s}], "{name}", _UN)')
        self.w(f"{tc}.set({tf})")
        self.w(f"{tt} = int(({tl} - {tf} + {ts}) // {ts})")
        self.w(f"if isinstance({tf}, float) or isinstance({tl}, float) "
               f"or isinstance({ts}, float):")
        self.w(f"    {tt} = int(({tl} - {tf} + {ts}) / {ts})")
        self.w(f"if {tt} <= 0:")
        self.indent += 1
        self.w(f"pc = {stmt.terminal + 1}")
        self.w("via = True")
        self.w("continue")
        self.indent -= 1
        self.w("if frame.do_stack:")
        self.w(f"    frame.do_stack[:] = [e for e in frame.do_stack "
               f"if e[0] != {stmt.index}]")
        self.w(f"frame.do_stack.append([{stmt.index}, {stmt.terminal}, "
               f"{tc}, {ts}, {tt}])")
        return False

    # ------------------------------------------------------------------
    # flush-point analysis
    # ------------------------------------------------------------------
    def _risky_expr(self, expr) -> bool:
        """True when evaluating ``expr`` may run user/external code
        (which can observe the process clock), so pending costs must
        be flushed first."""
        cls = expr.__class__
        if cls is ast.BinOp:
            return self._risky_expr(expr.left) \
                or self._risky_expr(expr.right)
        if cls is ast.UnaryOp:
            return self._risky_expr(expr.operand)
        if cls is ast.Apply:
            kind = self._kind(expr.name)
            if kind is _ARRAY:
                pass            # pure element load; check args below
            elif kind is _CELL and is_intrinsic(expr.name) \
                    and not self._is_extfn(expr.name):
                pass            # pure intrinsic; check args below
            else:
                return True     # MAYBE/DYNAMIC or function resolution
            return any(self._risky_expr(a) for a in expr.args)
        return False

    def _maybe_flush_exprs(self, exprs) -> None:
        if any(self._risky_expr(e) for e in exprs):
            self.flush()

    def _maybe_flush_stmt_exprs(self, stmt) -> None:
        exprs = []
        if isinstance(stmt, ast.Assign):
            exprs.append(stmt.expr)
            if stmt.target.__class__ is ast.Apply:
                exprs.extend(stmt.target.args)
        self._maybe_flush_exprs(exprs)

    # ------------------------------------------------------------------
    # expressions — return Python source strings
    # ------------------------------------------------------------------
    def _expr(self, expr) -> str:
        cls = expr.__class__
        if cls is ast.Num:
            return repr(expr.value)
        if cls is ast.Str:
            return repr(expr.value)
        if cls is ast.LogConst:
            return repr(expr.value)
        if cls is ast.Var:
            return self._var_read(expr.name)
        if cls is ast.BinOp:
            return self._binop(expr)
        if cls is ast.UnaryOp:
            return self._unary(expr)
        if cls is ast.Apply:
            return self._apply(expr)
        raise CodegenUnsupported(f"cannot compile {expr!r}")

    def _var_read(self, name: str) -> str:
        kind = self._kind(name)
        if kind is _CELL:
            return f"_sl[{self._slot(name)}].value"
        if kind is _ARRAY:
            return f'_ea("{name}", _UN)'
        if kind is _MAYBE:
            return f'_mv(_sl[{self._slot(name)}], "{name}", _UN)'
        return f'_dv(frame, "{name}", _UN)'

    def _unary(self, expr) -> str:
        operand = self._expr(expr.operand)
        op = expr.op
        if op == "-":
            return f"_neg({operand})"
        if op == "+":
            return f"_pos({operand})"
        if op == ".NOT.":
            return f"_not({operand})"
        raise CodegenUnsupported(f"unary operator {op}")

    def _binop(self, expr) -> str:
        op = expr.op
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        if op == ".AND.":
            return f"(_tr({left}) and _tr({right}))"
        if op == ".OR.":
            return f"(_tr({left}) or _tr({right}))"
        if op == "//":
            return f"_concat({left}, {right})"
        rel = _REL_FN.get(op)
        if rel is not None:
            return f"{rel}({left}, {right})"
        fn = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div",
              "**": "_pow"}.get(op)
        if fn is None:
            raise CodegenUnsupported(f"operator {op}")
        return f"{fn}({left}, {right})"

    def _apply(self, expr) -> str:
        name = expr.name
        kind = self._kind(name)
        if kind is _ARRAY:
            s = self._slot(name)
            subs = [self._expr(a) for a in expr.args]
            if len(subs) == 1:
                return f"_ld1(_sl[{s}], _fv[{s}], {subs[0]})"
            if len(subs) == 2:
                return f"_ld2(_sl[{s}], _fw[{s}], {subs[0]}, {subs[1]})"
            tup = ", ".join(f"int({sub})" for sub in subs)
            return f"_sl[{s}].get(({tup},))"
        if kind is _MAYBE:
            s = self._slot(name)
            subs = [self._expr(a) for a in expr.args]
            tup = ", ".join(f"int({sub})" for sub in subs)
            comma = "," if len(subs) == 1 else ""
            fallback = self._apply_fn(name, expr.args)
            return (f"(_sl[{s}].get(({tup}{comma})) "
                    f"if _sl[{s}].__class__ is _FA else {fallback})")
        if kind is _DYNAMIC:
            subs = [self._expr(a) for a in expr.args]
            tup = ", ".join(f"int({sub})" for sub in subs)
            comma = "," if len(subs) == 1 else ""
            fallback = self._apply_fn(name, expr.args)
            tw = self.temp("_w")
            return (f"({tw}.get(({tup}{comma})) "
                    f'if ({tw} := frame.vars.get("{name}")).__class__ '
                    f"is _FA else {fallback})")
        return self._apply_fn(name, expr.args)

    def _apply_fn(self, name: str, arg_exprs) -> str:
        """Function-resolution path of Apply, in the interpreter's
        order: external function, intrinsic, user FUNCTION, error."""
        if self._is_extfn(name):
            refs = ", ".join(self._argref(a) for a in arg_exprs)
            return f'rt.extfn("{name}", [{refs}], frame)'
        if is_intrinsic(name):
            args = ", ".join(self._expr(a) for a in arg_exprs)
            return f'_intr("{name}", [{args}])'
        if self._unit_kind(name) == "function":
            refs = ", ".join(self._argref(a) for a in arg_exprs)
            return f'rt.ufn("{name}", [{refs}], frame)'
        return f'_nofn("{name}", _UN)'

    def _argref(self, expr) -> str:
        """Source for an actual-argument reference (pass-by-reference)."""
        if expr.__class__ is ast.Var:
            name = expr.name
            kind = self._kind(name)
            if kind is not _DYNAMIC:
                return f"_ag[{self._slot(name)}]"
            procedure = (self._unit_kind(name)
                         or name in self._externals
                         or self._is_ext(name))
            const = "None"
            if procedure:
                const = self.const(ValueRef(name), "_VC")
            return f'_mkdyn(frame, "{name}", {const})'
        if expr.__class__ is ast.Apply:
            name = expr.name
            kind = self._kind(name)
            subs = [self._expr(a) for a in expr.args]
            tup = ", ".join(f"int({sub})" for sub in subs)
            comma = "," if len(subs) == 1 else ""
            if kind is _ARRAY:
                s = self._slot(name)
                return f"_ER(_sl[{s}], ({tup}{comma}))"
            if kind is _MAYBE:
                s = self._slot(name)
                value = self._expr(expr)
                return (f"(_ER(_sl[{s}], ({tup}{comma})) "
                        f"if _sl[{s}].__class__ is _FA "
                        f"else _VR({value}))")
            if kind is _DYNAMIC:
                value = self._expr(expr)
                tw = self.temp("_w")
                return (f"(_ER({tw}, ({tup}{comma})) "
                        f'if ({tw} := frame.vars.get("{name}")).__class__ '
                        f"is _FA else _VR({value}))")
        return f"_VR({self._expr(expr)})"


class _KernelRefused(Exception):
    """Loop shape outside the vectorizable subset (not a unit failure —
    the loop simply runs on the generic path)."""


class _Nest:
    """What the kernel recognizer learned about one DOALL nest: its DO
    loops (outer first) and, per loop level, the statements as numpy
    slab assignments.  A level-1 statement runs once per outer
    iteration, a level-2 one once per (outer, inner) pair."""

    def __init__(self, loops, bodies) -> None:
        self.loops = loops
        #: per level, its assignment statements in source order
        self.bodies = bodies
        self.vars = [do.var for do in loops]
        self.depth = len(loops)
        #: (slot, dims) -> [slab temp, written]; see :func:`_kg`
        self.slabs: dict[tuple, list] = {}
        #: loop-invariant subscript scalar slot -> its axis in ranges
        self.invariants: dict[int, int] = {}
        #: value scalar slot -> temp
        self.scalars: dict[int, str] = {}
        #: slab temp of a loop-invariant element -> its float temp
        self.elements: dict[str, str] = {}
        #: temps that must hold a nonzero float (divisors)
        self.divisors: list[str] = []
        #: loop axis -> temp holding that DO variable's values
        self.values: dict[int, str] = {}
        #: per level, (target slab temp, numpy rhs) in source order
        self.runs: tuple[list, list] = ([], [])


class _Emitter(_EmitterBase):
    # ------------------------------------------------------------------
    # facts-gated DOALL vectorization
    # ------------------------------------------------------------------
    def _maybe_kernel(self, stmt) -> None:
        """Emit a guarded numpy kernel for an eligible DOALL ahead of
        the generic loop lowering; guard failure falls through to the
        generic path right below."""
        if stmt.term_label is None \
                or stmt.term_label not in self.eligible_labels:
            return
        try:
            nest = self._kernel_plan(stmt)
        except _KernelRefused as exc:
            self.kernel_refused[stmt.term_label] = str(exc)
            return
        self.kernel_labels.append(stmt.term_label)
        self._emit_kernel(stmt, nest)

    def _kernel_plan(self, stmt) -> _Nest:
        """Recognize a DOALL whose body is a run of assignments,
        optionally followed by one inner DO of assignments that ends
        right before the DOALL's terminal.  A one-loop body assigns
        1-D array elements, a nest 2-D ones."""
        statements = self.unit.statements
        self._kernel_terminal(stmt)
        body = statements[stmt.index + 1:stmt.terminal]
        lead = []
        for s in body:
            if s.__class__ is not ast.Assign:
                break
            lead.append(s)
        loops = [stmt]
        inner_body = []
        rest = body[len(lead):]
        if rest:
            inner = rest[0]
            if inner.__class__ is not ast.Do \
                    or inner.terminal != stmt.terminal - 1:
                raise _KernelRefused("body not a run of assignments")
            inner_body = rest[1:-1]
            if not inner_body or not all(s.__class__ is ast.Assign
                                         for s in inner_body):
                raise _KernelRefused(
                    "inner DO body not a run of assignments")
            self._kernel_terminal(inner)
            loops.append(inner)
        elif not lead:
            raise _KernelRefused("body not a run of assignments")
        for do in loops:
            if self._kind(do.var) is not _CELL \
                    or self._ftype(do.var) is not _INT:
                raise _KernelRefused("DO variable not a local INTEGER")
        nest = _Nest(loops, (lead, inner_body))
        if len(set(nest.vars)) != nest.depth:
            raise _KernelRefused("inner DO reuses the DO variable")
        for bound in (stmt.first, stmt.last, stmt.step):
            if bound is not None:
                self._check_pure(bound)
        if nest.depth == 2:
            for bound in (inner.first, inner.last, inner.step):
                if bound is not None:
                    self._check_invariant(bound, nest)
        for level, body in enumerate(nest.bodies, 1):
            for assign in body:
                target = self._kslab(assign.target, level, nest, True)[0]
                rhs = self._kexpr(assign.expr, level, nest)[0]
                nest.runs[level - 1].append((target, rhs))
        return nest

    def _kernel_terminal(self, do) -> None:
        statements = self.unit.statements
        terminal = statements[do.terminal] \
            if 0 <= do.terminal < len(statements) else None
        if not isinstance(terminal, (ast.Continue, ast.EndDo)):
            raise _KernelRefused("terminal not CONTINUE/END DO")
        # the kernel jumps past the terminal, skipping the advance of
        # any enclosing loop that ends on the same statement
        if any(other.__class__ is ast.Do and other is not do
               and other.terminal == do.terminal
               for other in statements):
            raise _KernelRefused("terminal shared with another DO")

    def _check_pure(self, expr) -> None:
        """Bounds must be side-effect free: the kernel path evaluates
        them, and the generic fallback below evaluates them again."""
        cls = expr.__class__
        if cls is ast.Num:
            return
        if cls is ast.Var:
            if self._kind(expr.name) in (_CELL, _MAYBE, _DYNAMIC):
                return
            raise _KernelRefused("whole-array DO bound")
        if cls is ast.BinOp:
            self._check_pure(expr.left)
            self._check_pure(expr.right)
            return
        if cls is ast.UnaryOp:
            self._check_pure(expr.operand)
            return
        raise _KernelRefused("impure DO bound")

    def _check_invariant(self, expr, nest) -> None:
        """Inner DO bounds are evaluated once for the whole nest, ahead
        of the statements the generic path runs before them, so they
        must be INTEGER arithmetic on scalars the nest never writes:
        then the slab is a rectangle and evaluating early can neither
        fail nor differ."""
        cls = expr.__class__
        if cls is ast.Num and expr.value.__class__ is int:
            return
        if cls is ast.Var and expr.name not in nest.vars \
                and self._kind(expr.name) is _CELL \
                and self._ftype(expr.name) is _INT:
            return
        if cls is ast.BinOp and expr.op in ("+", "-", "*"):
            self._check_invariant(expr.left, nest)
            self._check_invariant(expr.right, nest)
            return
        if cls is ast.UnaryOp and expr.op == "-":
            self._check_invariant(expr.operand, nest)
            return
        raise _KernelRefused("inner DO bounds not loop-invariant")

    def _kslab(self, ref, level, nest, write):
        """Register an array access; returns ``(slab temp, element)``,
        ``element`` when no subscript walks a loop."""
        depth = nest.depth
        if write:
            if ref.__class__ is not ast.Apply or len(ref.args) != depth:
                raise _KernelRefused(f"target not a {depth}-D element")
            if self._kind(ref.name) is not _ARRAY \
                    or self._ftype(ref.name) not in (_REAL, _DOUBLE):
                raise _KernelRefused(f"{ref.name} not a REAL array")
        elif self._kind(ref.name) is not _ARRAY \
                or self._ftype(ref.name) not in (_REAL, _DOUBLE) \
                or len(ref.args) != depth:
            raise _KernelRefused(f"{ref.name} not a {depth}-D REAL array")
        dims = tuple(self._kdim(arg, level, nest) for arg in ref.args)
        walks = [axis for axis, _c in dims
                 if axis is not None and axis < depth]
        if len(set(walks)) != len(walks):
            raise _KernelRefused("DO variable in two subscripts")
        if write and set(walks) != set(range(level)):
            raise _KernelRefused(
                f"target {ref.name} not indexed by every DO variable")
        entry = nest.slabs.setdefault((self._slot(ref.name), dims),
                                      [self.temp("_v"), write])
        entry[1] = entry[1] or write
        return entry[0], not walks

    def _kdim(self, arg, level, nest):
        """``(axis, c)`` form of one subscript (see :func:`_kg`)."""
        term = unit_term(arg)
        if term is None:
            raise _KernelRefused("non-affine subscript")
        name, c = term
        if name is None:
            return None, c
        if name in nest.vars:
            axis = nest.vars.index(name)
            if axis >= level:
                raise _KernelRefused(f"{name} used outside its DO")
            return axis, c
        if self._kind(name) is not _CELL or self._ftype(name) is not _INT:
            raise _KernelRefused(
                f"subscript {name} not a loop-invariant INTEGER")
        return nest.invariants.setdefault(
            self._slot(name), nest.depth + len(nest.invariants)), c

    def _kexpr(self, expr, level, nest):
        """Vectorized RHS: returns ``(numpy source, float-certain)``.

        Restrictions keep the elementwise result bit-identical to the
        scalar path: float-array reads in the subscript forms of
        :meth:`_kdim`, INTEGER/REAL/DOUBLE scalars (runtime-checked
        numeric), ``+ - *`` freely, ``/`` by a nonzero literal with a
        float-certain side or by a loop-invariant REAL value (an
        element or a scalar) the runtime check finds a nonzero float,
        unary sign.  Anything else refuses the kernel."""
        cls = expr.__class__
        if cls is ast.Num:
            return repr(expr.value), expr.value.__class__ is float
        if cls is ast.Var:
            name = expr.name
            if name in nest.vars:
                axis = nest.vars.index(name)
                if axis >= level:
                    raise _KernelRefused(f"{name} used outside its DO")
                temp = nest.values.get(axis)
                if temp is None:
                    temp = nest.values[axis] = self.temp("_kiv")
                return temp, False
            if self._kind(name) is not _CELL:
                raise _KernelRefused(f"scalar {name} not a local cell")
            ftype = self._ftype(name)
            if ftype not in (_INT, _REAL, _DOUBLE):
                raise _KernelRefused(f"scalar {name} not numeric")
            slot = self._slot(name)
            temp = nest.scalars.get(slot)
            if temp is None:
                temp = nest.scalars[slot] = self.temp("_x")
            return temp, ftype is not _INT
        if cls is ast.Apply:
            temp, element = self._kslab(expr, level, nest, False)
            if element:
                value = nest.elements.get(temp)
                if value is None:
                    value = nest.elements[temp] = self.temp("_e")
                return value, True
            return temp, True
        if cls is ast.UnaryOp and expr.op in ("-", "+"):
            code, certain = self._kexpr(expr.operand, level, nest)
            return (f"(-{code})" if expr.op == "-" else code), certain
        if cls is ast.BinOp:
            op = expr.op
            if op not in ("+", "-", "*", "/"):
                raise _KernelRefused(f"operator {op} in kernel body")
            lcode, lcert = self._kexpr(expr.left, level, nest)
            rcode, rcert = self._kexpr(expr.right, level, nest)
            if op == "/":
                divisor = expr.right
                if divisor.__class__ is ast.Num:
                    if divisor.value == 0:
                        raise _KernelRefused("division by zero literal")
                    if not (lcert or rcert):
                        raise _KernelRefused("integer division in kernel")
                elif divisor.__class__ is ast.Var and rcert \
                        or rcode in nest.elements.values():
                    nest.divisors.append(rcode)
                else:
                    raise _KernelRefused("division not by a nonzero "
                                         "literal or invariant REAL")
                return f"({lcode} / {rcode})", True
            return f"({lcode} {op} {rcode})", lcert or rcert
        raise _KernelRefused(
            f"{cls.__name__} in kernel body")

    def _emit_kernel(self, stmt, nest) -> None:
        base = self.indent
        self.mat()
        first = self._expr(stmt.first)
        last = self._expr(stmt.last)
        step = self._expr(stmt.step) if stmt.step is not None else "1"
        kf = self.temp("_kf")
        kl = self.temp("_kl")
        ks = self.temp("_ks")
        kt = self.temp("_kt")
        # The guard verdict and slabs depend only on the ranges (loop
        # bounds, trips and invariant subscript values) and the frame's
        # fast views, which are fixed for the whole invocation —
        # memoize them in function locals so a loop re-entered every
        # outer sweep pays the guard once.
        mk = self.temp("_mk")
        mo = self.temp("_mo")
        self.inits.append(f"{mk} = None")
        self.inits.append(f"{mo} = None")
        self.w(f"{kf} = {first}", stmt.line)
        self.w(f"{kl} = {last}")
        self.w(f"{ks} = {step}")
        self.w(f"if {kf}.__class__ is int and {kl}.__class__ is int "
               f"and {ks}.__class__ is int and {ks} != 0:")
        self.indent += 1
        self.w(f"{kt} = ({kl} - {kf} + {ks}) // {ks}")
        self.w(f"if {kt} > 0:")
        self.indent += 1
        ranges = [f"({kf}, {ks}, {kt})"]
        if nest.depth == 2:
            inner = nest.loops[1]
            jf = self.temp("_jf")
            jl = self.temp("_jl")
            js = self.temp("_js")
            jt = self.temp("_jt")
            self.w(f"{jf} = {self._expr(inner.first)}")
            self.w(f"{jl} = {self._expr(inner.last)}")
            self.w(f"{js} = "
                   + (self._expr(inner.step) if inner.step is not None
                      else "1"))
            self.w(f"if {js} != 0:")
            self.indent += 1
            self.w(f"{jt} = max(({jl} - {jf} + {js}) // {js}, 0)")
            ranges.append(f"({jf}, {js}, {jt})")
        for slot in nest.invariants:
            temp = self.temp("_ki")
            self.w(f"{temp} = _sl[{slot}].value")
            ranges.append(f"({temp}, 0, 1)")
        kr = self.temp("_kr")
        spec = self.const((tuple(do.index for do in nest.loops),
                           tuple((slot, dims, written)
                                 for (slot, dims), (_t, written)
                                 in nest.slabs.items())), "_KS")
        self.w(f"{kr} = ({', '.join(ranges)},)")
        self.w(f"if {mk} != {kr}:")
        self.w(f"    {mk} = {kr}")
        self.w(f"    {mo} = _kg(frame, {spec}, {kr})")
        self.w(f"if {mo} is not None:")
        self.indent += 1
        slabs = [temp for temp, _w in nest.slabs.values()]
        self.w(f"{', '.join(slabs)}, = {mo}")
        for slot, temp in nest.scalars.items():
            self.w(f"{temp} = _sl[{slot}].value")
        for slab, temp in nest.elements.items():
            self.w(f"{temp} = {slab}.item()")
        checks = [f"_num2({t})" for t in nest.scalars.values()]
        checks += [f"{t}.__class__ is float and {t} != 0.0"
                   for t in nest.divisors]
        if checks:
            self.w(f"if {' and '.join(checks)}:")
            self.indent += 1
        values = nest.values
        if 0 in values:
            axis0 = f"{kf} + {ks} * _arange({kt})"
            self.w(f"{values[0]} = "
                   + (f"({axis0})[:, None]" if nest.depth == 2
                      else axis0))
        for target, rhs in nest.runs[0]:
            self.w(f"{target}[...] = {rhs}")
        if nest.depth == 2:
            self.w(f"if {jt}:")
            self.indent += 1
            if 1 in values:
                self.w(f"{values[1]} = {jf} + {js} * _arange({jt})")
            for target, rhs in nest.runs[1]:
                self.w(f"{target}[...] = {rhs}")
            self.indent -= 1
            self.w(f"_dofin(_sl[{self._slot(inner.var)}], "
                   f"{jf} + {jt} * {js})")
        self.w(f"_dofin(_sl[{self._slot(stmt.var)}], {kf} + {kt} * {ks})")
        self._replay(stmt, nest, kt, jt if nest.depth == 2 else None)
        self.w("_p = 0")
        self.w("_n = 0")
        self.w(f"pc = {stmt.terminal + 1}")
        self.w("via = False")
        self.w("continue")
        self.indent = base
        # guard failed: fall through into the generic DO lowering

    def _replay(self, stmt, nest, kt, jt) -> None:
        """Yield the generic loop's event stream: equal events keep the
        scheduler's interleaving, hence makespan and lock order,
        identical to the oracle's.

        One loop flushes at its terminal once per iteration: the first
        flush carries the pending pre-loop cost, the rest repeat.  A
        nest flushes three times per outer iteration: at the first
        inner terminal (carrying the outer iteration's leading
        statements and the inner DO set-up, plus the pending cost on
        the first outer iteration), once per further inner iteration
        (one repeated event) and at the outer terminal.  An inner loop
        of no trips leaves one flush per outer iteration, at the outer
        terminal."""
        scale = self.scale
        lead, inner_body = nest.bodies
        w_lead = sum(s.weight for s in lead) * scale
        w_term = self.unit.statements[stmt.terminal].weight * scale
        if jt is None:
            w_it, n_it = w_lead + w_term, len(lead) + 1
            self.w(f"yield _C(_p + {w_it}, _n + {n_it})")
            self.w(f"if {kt} > 1:")
            self.w(f"    yield _C({w_it}, {n_it}, {kt} - 1)")
            return
        inner = nest.loops[1]
        w_head = inner.weight * scale
        w_in = (sum(s.weight for s in inner_body)
                + self.unit.statements[inner.terminal].weight) * scale
        n_in = len(inner_body) + 1
        w_first, n_first = w_lead + w_head + w_in, len(lead) + 1 + n_in
        w_none, n_none = w_lead + w_head + w_term, len(lead) + 2
        first, rest, close, again, it = (
            self.temp("_ke") for _ in range(5))
        self.w(f"if {jt}:")
        self.indent += 1
        self.w(f"{first} = _C(_p + {w_first}, _n + {n_first})")
        self.w(f"{rest} = _C({w_in}, {n_in}, {jt} - 1) "
               f"if {jt} > 1 else None")
        self.w(f"{close} = _C({w_term}, 1)")
        self.w(f"{again} = _C({w_first}, {n_first})")
        self.w(f"for {it} in range({kt}):")
        self.w(f"    yield {first}")
        self.w(f"    if {rest} is not None:")
        self.w(f"        yield {rest}")
        self.w(f"    yield {close}")
        self.w(f"    {first} = {again}")
        self.indent -= 1
        self.w("else:")
        self.w(f"    yield _C(_p + {w_none}, _n + {n_none})")
        self.w(f"    if {kt} > 1:")
        self.w(f"        yield _C({w_none}, {n_none}, {kt} - 1)")


_GEN_DISPATCH = {
    ast.Assign: _Emitter._g_assign,
    ast.Continue: _Emitter._g_continue,
    ast.Goto: _Emitter._g_goto,
    ast.ComputedGoto: _Emitter._g_computed_goto,
    ast.LogicalIf: _Emitter._g_logical_if,
    ast.IfThen: _Emitter._g_if_then,
    ast.ElseIf: _Emitter._g_else_if,
    ast.Else: _Emitter._g_else,
    ast.EndIf: _Emitter._g_end_if,
    ast.Do: _Emitter._g_do,
    ast.EndDo: _Emitter._g_end_do,
    ast.Call: _Emitter._g_call,
    ast.Return: _Emitter._g_return,
    ast.EndUnit: _Emitter._g_end_unit,
    ast.Stop: _Emitter._g_stop,
    ast.Write: _Emitter._g_write,
    ast.Read: _Emitter._g_read,
}
