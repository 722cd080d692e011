"""Generator-based interpreter for the F77 subset.

Execution is a Python generator: each statement yields a :class:`Cost`
event carrying its simulated cycle count, and calls into the Force
runtime library (the *external handler*) yield whatever events that
handler produces (lock waits, barrier arrivals …).  A discrete-event
scheduler — or a trivial drain loop for serial programs — drives the
generator.  This is how one "processor" of the simulated multiprocessor
executes Fortran.

Variable storage uses :class:`Cell` objects for scalars and
:class:`~repro.fortran.values.FArray` for arrays, so sharing a variable
between processes is simply binding the same object into two frames —
the exact shared-memory model of the paper's machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro._util.errors import FortranError
from repro.fortran import ast_nodes as ast
from repro.fortran.intrinsics import call_intrinsic, is_intrinsic
from repro.fortran.parser import Program, ProgramUnit
from repro.fortran.values import (
    FArray,
    FType,
    FValue,
    coerce_assign,
    default_type_for,
    format_value,
)


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Cost:
    """Charge ``cycles`` of simulated time to the executing process.

    ``statements`` is the number of source statements the event
    accounts for: the tree walker emits one event per statement
    (``statements == 1``), while generated code
    (:mod:`repro.fortran.codegen`) batches straight-line runs and
    vectorized DOALL kernels into aggregate events carrying the exact
    statement count the tree walker would have produced.  Clock
    accounting only reads ``cycles``; ``statements`` feeds throughput
    benchmarks.

    ``repeat`` stands for that many identical events in a row (a
    kernelized DOALL replays its per-iteration events this way).  The
    scheduler applies the steps in bulk, in the tie order ``repeat``
    separate yields would take, so the interleaving, event count and
    trace are exactly theirs; repeated cycles must be a whole number
    >= 0.

    Not frozen, because generated code builds one per flush and a
    frozen ``__init__`` costs a ``object.__setattr__`` call per field;
    still, treat instances as immutable once yielded.
    """
    cycles: int
    statements: int = 1
    repeat: int = 1


@dataclass(frozen=True, slots=True)
class Halt:
    """A STOP statement: the whole program terminates."""
    message: str | None = None


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
class Cell:
    """A mutable scalar variable.

    ``full`` is the HEP-style hardware full/empty access state used by
    the HEP machine model's produce/consume builtins; other machines
    ignore it.
    """

    __slots__ = ("value", "ftype", "full")

    def __init__(self, ftype: FType, value: FValue | None = None) -> None:
        self.ftype = ftype
        self.value = ftype.zero if value is None else value
        self.full = False

    def get(self) -> FValue:
        return self.value

    def set(self, value: FValue) -> None:
        self.value = coerce_assign(self.ftype, value)

    def retype(self, ftype: FType) -> None:
        if ftype is not self.ftype:
            self.ftype = ftype
            self.value = coerce_assign(ftype, self.value) \
                if _numeric(self.value) and ftype in _NUMERIC_TYPES \
                else ftype.zero

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cell({self.ftype.name}, {self.value!r})"


_NUMERIC_TYPES = (FType.INTEGER, FType.REAL, FType.DOUBLE)


def _numeric(value: FValue) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ----------------------------------------------------------------------
# argument references (Fortran pass-by-reference)
# ----------------------------------------------------------------------
class ArgRef:
    """Base: a reference a callee can read and (maybe) write."""

    def get(self) -> FValue:
        raise NotImplementedError

    def set(self, value: FValue) -> None:
        raise FortranError("cannot assign through this argument")

    @property
    def array(self) -> FArray | None:
        return None


class ValueRef(ArgRef):
    """An expression actual argument: read-only."""

    def __init__(self, value: FValue) -> None:
        self.value = value

    def get(self) -> FValue:
        return self.value


class CellRef(ArgRef):
    """A scalar variable actual argument: aliases the caller's cell."""

    def __init__(self, cell: Cell) -> None:
        self.cell = cell

    def get(self) -> FValue:
        return self.cell.get()

    def set(self, value: FValue) -> None:
        self.cell.set(value)


class ElementRef(ArgRef):
    """An array-element actual argument."""

    def __init__(self, farray: FArray, subscripts: tuple[int, ...]) -> None:
        self.farray = farray
        self.subscripts = subscripts

    def get(self) -> FValue:
        return self.farray.get(self.subscripts)

    def set(self, value: FValue) -> None:
        self.farray.set(self.subscripts, value)


class ArrayRef(ArgRef):
    """A whole-array actual argument: aliases the caller's storage."""

    def __init__(self, farray: FArray) -> None:
        self.farray = farray

    def get(self) -> FValue:
        raise FortranError("whole array used where a scalar is required")

    @property
    def array(self) -> FArray:
        return self.farray


# ----------------------------------------------------------------------
# common blocks
# ----------------------------------------------------------------------
class CommonProvider:
    """Serves storage for COMMON blocks.

    The default implementation gives classic single-address-space
    semantics: one storage sequence per block name.  The machine models
    subclass this to decide, per block and per process, whether storage
    is shared or private (§4.1.2 of the paper).
    """

    def __init__(self) -> None:
        self._blocks: dict[str, list[Cell | FArray]] = {}

    def get_block(self, name: str, layout, frame) -> list[Cell | FArray]:
        """Return the storage sequence for block ``name``.

        ``layout`` is ``[(member-name, FType, bounds|None)]`` in
        declaration order; bounds are resolved (lower, upper) int pairs.
        """
        block = self._blocks.get(name)
        if block is None:
            block = [self._make_slot(ftype, bounds)
                     for (_n, ftype, bounds) in layout]
            self._blocks[name] = block
            return block
        if len(block) != len(layout):
            raise FortranError(
                f"COMMON /{name}/ declared with {len(layout)} members, "
                f"previously {len(block)}")
        return [self._adapt_slot(slot, ftype, bounds, name)
                for slot, (_n, ftype, bounds) in zip(block, layout)]

    @staticmethod
    def _make_slot(ftype: FType, bounds):
        if bounds is None:
            return Cell(ftype)
        return FArray.allocate(ftype, bounds)

    @staticmethod
    def _adapt_slot(slot, ftype: FType, bounds, block_name: str):
        if bounds is None:
            if not isinstance(slot, Cell):
                raise FortranError(
                    f"COMMON /{block_name}/ member shape mismatch")
            return slot
        if not isinstance(slot, FArray):
            raise FortranError(
                f"COMMON /{block_name}/ member shape mismatch")
        return slot.reinterpret(bounds)


# ----------------------------------------------------------------------
# external (runtime library) calls
# ----------------------------------------------------------------------
class ExternalCallHandler:
    """Hook for the Force runtime library.

    ``is_external`` claims CALL targets; ``call`` returns a generator of
    events.  ``is_external_function``/``call_function`` serve functions
    referenced in expressions (must be non-blocking — expressions cannot
    suspend a process mid-evaluation).
    """

    def is_external(self, name: str) -> bool:
        return False

    def call(self, name: str, args: list[ArgRef], frame: "Frame"):
        raise FortranError(f"no external subroutine {name}")
        yield  # pragma: no cover - makes this a generator function

    def is_external_function(self, name: str) -> bool:
        return False

    def call_function(self, name: str, args: list["ArgRef"],
                      frame: "Frame") -> FValue:
        """Evaluate external function ``name``; args are ArgRefs so the
        runtime can identify storage (e.g. Isfull on an async cell)."""
        raise FortranError(f"no external function {name}")


#: Backwards-compatible alias used in package exports.
StatementExecution = Cost


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
class Frame:
    """Activation record for one program-unit invocation.

    ``slots``, ``argrefs``, ``fast`` and ``fast2`` are filled only when
    generated code runs the unit: per slot-resolved name its storage,
    its by-reference argument wrapper, and numpy fast views of 1-D
    (``fast``) and 2-D (``fast2``) numeric arrays or None.  The tree
    walker leaves them None.
    """

    __slots__ = ("unit", "vars", "do_stack", "process", "interpreter",
                 "result_cell", "externals", "slots", "argrefs", "fast",
                 "fast2", "depth")

    def __init__(self, unit: ProgramUnit) -> None:
        self.unit = unit
        self.vars: dict[str, Cell | FArray] = {}
        # entries: [do_index, terminal_index, var_cell, step, trips_left]
        self.do_stack: list[list] = []
        self.process = None          # set by the simulator
        self.interpreter: Interpreter | None = None
        self.result_cell: Cell | None = None
        self.externals: set[str] = set()
        # generated-code bindings (repro.fortran.codegen)
        self.slots: list | None = None
        self.argrefs: list | None = None
        self.fast: list | None = None
        self.fast2: list | None = None
        self.depth: int = 0

    def lookup(self, name: str):
        return self.vars.get(name)

    def get_or_create_scalar(self, name: str) -> Cell:
        entry = self.vars.get(name)
        if entry is None:
            entry = Cell(default_type_for(name))
            self.vars[name] = entry
        if not isinstance(entry, Cell):
            raise FortranError(f"{name} is an array, not a scalar",
                               unit=self.unit.name)
        return entry


class StopSignal(Exception):
    """Internal: unwinds nested frames on STOP."""

    def __init__(self, message: str | None) -> None:
        self.message = message


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------
def execution_tier(codegen: str | None = None) -> str:
    """The tier an :class:`Interpreter` built with ``codegen`` runs on:
    ``"source"`` (generated code, the default) or ``"interp"`` (the
    tree walker, the oracle)."""
    tier = "source" if codegen is None else codegen
    if tier not in ("source", "interp"):
        raise FortranError(
            f"unknown codegen tier {tier!r} (expected source or interp)")
    return tier


class Interpreter:
    """Executes parsed program units as event generators."""

    def __init__(self, program: Program, *,
                 external: ExternalCallHandler | None = None,
                 commons: CommonProvider | None = None,
                 on_output: Callable[[str, Frame], None] | None = None,
                 cost_scale: int = 1,
                 max_call_depth: int = 64,
                 facts: dict | None = None,
                 codegen: str | None = None) -> None:
        self.program = program
        self.external = external or ExternalCallHandler()
        self.commons = commons or CommonProvider()
        self.output: list[str] = []
        self.on_output = on_output
        self.cost_scale = cost_scale
        self.max_call_depth = max_call_depth
        self.input_data: list[FValue] = []
        #: ``force check --facts`` document, when the caller has one;
        #: generated code uses it to find DOALLs the static race
        #: engine proved race-free (kernel-lowering candidates).
        self.facts = facts
        #: "source" (repro.fortran.codegen, the default) or "interp"
        #: (the tree walker)
        self.codegen_tier = execution_tier(codegen)
        self._codegen = None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run_program(self) -> Iterator:
        """Generator executing the PROGRAM unit (serial entry point)."""
        if self.program.main is None:
            raise FortranError("no PROGRAM unit")
        try:
            yield from self.run_unit(self.program.main, [])
        except StopSignal as stop:
            yield Halt(stop.message)

    def run_unit(self, unit: ProgramUnit, args: list[ArgRef],
                 depth: int = 0, process=None) -> Iterator:
        """Generator executing one unit invocation.

        The generator's return value (StopIteration.value) is the
        function result for FUNCTION units, else None.  On the source
        tier units are emitted as Python source on first use (see
        :mod:`repro.fortran.codegen`); a unit codegen cannot handle
        falls back to the tree walker, with the reason recorded in
        :attr:`compile_fallbacks`.
        """
        if self.codegen_tier == "source":
            generated = self._codegen_unit(unit)
            if generated is not None:
                return generated.run(args, depth, process)
        return self._run_unit_tree(unit, args, depth, process)

    def _codegen_unit(self, unit: ProgramUnit):
        if self._codegen is None:
            from repro.fortran.codegen import CodegenProgram
            self._codegen = CodegenProgram(self)
        return self._codegen.unit_for(unit)

    @property
    def compile_fallbacks(self) -> dict[str, str]:
        """Unit name -> ``"codegen: <reason>"`` for each unit the source
        tier refused and the tree walker ran instead (empty when every
        executed unit ran generated code, and always on the interp
        tier)."""
        if self._codegen is None:
            return {}
        return {name: f"codegen: {reason}"
                for name, reason in self._codegen.fallbacks.items()}

    @property
    def kernel_eligible(self) -> dict[str, list[int]]:
        """Unit name -> labels of generated DO loops the analysis facts
        proved race-free (array-kernel candidates); empty without a
        facts document or before any unit is emitted."""
        return {} if self._codegen is None \
            else dict(self._codegen.kernel_eligible)

    @property
    def codegen_kernelized(self) -> dict[str, list[int]]:
        """Unit name -> labels of DOALLs the source-codegen tier
        actually lowered to numpy slice kernels (a subset of
        :attr:`kernel_eligible`; empty off the source tier)."""
        return {} if self._codegen is None \
            else dict(self._codegen.kernelized)

    @property
    def codegen_kernel_refused(self) -> dict[str, dict[int, str]]:
        """Unit name -> {label: reason} for kernel-eligible DOALLs the
        source-codegen tier left on the generic loop path: the
        recognizer's refusals, and the lowered loops whose runtime
        guard failed (reason ``"runtime guard: ..."``)."""
        if self._codegen is None:
            return {}
        refused = {name: dict(labels) for name, labels
                   in self._codegen.kernel_refused.items()}
        for name, labels in self._codegen.guard_refused.items():
            refused.setdefault(name, {}).update(labels)
        return refused

    def codegen_sources(self) -> Mapping[str, str]:
        """Unit name -> generated Python source (source tier only;
        units are emitted on demand, so only units that ran — or were
        force-compiled via :func:`repro.fortran.codegen.compile_all`
        — appear).  A read-only mapping; each source is inflated when
        it is read."""
        return {} if self._codegen is None else self._codegen.sources()

    def _run_unit_tree(self, unit: ProgramUnit, args: list[ArgRef],
                       depth: int = 0, process=None) -> Iterator:
        """The original tree-walking executor (fallback + oracle)."""
        if depth > self.max_call_depth:
            raise FortranError(f"call depth exceeds {self.max_call_depth} "
                               f"(runaway recursion?)", unit=unit.name)
        frame = self._make_frame(unit, args, process)
        yield from self._exec_frame(frame, depth)
        if unit.kind == "function":
            assert frame.result_cell is not None
            return frame.result_cell.get()
        return None

    # ------------------------------------------------------------------
    # frame setup: declarations, commons, parameters, data
    # ------------------------------------------------------------------
    def _make_frame(self, unit: ProgramUnit, args: list[ArgRef],
                    process) -> Frame:
        frame = Frame(unit)
        frame.interpreter = self
        frame.process = process
        if len(args) != len(unit.params):
            raise FortranError(
                f"{unit.name} called with {len(args)} args, expects "
                f"{len(unit.params)}")

        # Collect declared types and bounds.
        decl_type: dict[str, FType] = {}
        decl_bounds: dict[str, list] = {}
        order: list[str] = []
        commons: list[ast.CommonDecl] = []
        parameters: list[ast.ParameterDecl] = []
        data_decls: list[ast.DataDecl] = []
        for stmt in unit.statements:
            if isinstance(stmt, ast.Declaration):
                for name, bounds in stmt.entities:
                    decl_type[name] = stmt.ftype
                    if bounds is not None:
                        decl_bounds[name] = bounds
                    if name not in order:
                        order.append(name)
            elif isinstance(stmt, ast.DimensionDecl):
                for name, bounds in stmt.entities:
                    if bounds is None:
                        raise FortranError("DIMENSION entity lacks bounds",
                                           line=stmt.line, unit=unit.name)
                    decl_bounds[name] = bounds
                    if name not in order:
                        order.append(name)
            elif isinstance(stmt, ast.CommonDecl):
                commons.append(stmt)
                for name, bounds in stmt.entities:
                    if bounds is not None:
                        decl_bounds[name] = bounds
                    if name not in order:
                        order.append(name)
            elif isinstance(stmt, ast.ParameterDecl):
                parameters.append(stmt)
            elif isinstance(stmt, ast.DataDecl):
                data_decls.append(stmt)
            elif isinstance(stmt, ast.ExternalDecl):
                frame.externals.update(stmt.names)

        def type_of(name: str) -> FType:
            return decl_type.get(name, default_type_for(name))

        # PARAMETER constants (may chain, so evaluate in order).
        for pdecl in parameters:
            for name, expr in pdecl.assignments:
                cell = Cell(type_of(name))
                cell.set(self._eval(expr, frame))
                frame.vars[name] = cell

        common_members = {name for cdecl in commons
                          for name, _ in cdecl.entities}

        # Bind scalar dummy arguments first: adjustable array bounds
        # (``V(N)`` with dummy N) must see them.
        array_params: list[tuple[str, ArgRef]] = []
        for pname, ref in zip(unit.params, args):
            if ref.array is not None:
                array_params.append((pname, ref))
                continue
            ftype = type_of(pname)
            if isinstance(ref, CellRef):
                # Alias the caller's cell; its type is authoritative.
                frame.vars[pname] = ref.cell
            else:
                cell = Cell(ftype)
                value = ref.get()
                cell.set(value if _compatible(ftype, value)
                         else coerce_assign(ftype, value))
                frame.vars[pname] = cell
                # ElementRef gets copy-out at return; arrange via wrapper.
                if isinstance(ref, ElementRef):
                    frame.vars["%COPYOUT%" + pname] = _CopyOut(cell, ref)

        # COMMON blocks (array bounds may reference scalar dummies).
        for cdecl in commons:
            layout = []
            for name, bounds in cdecl.entities:
                resolved = self._resolve_bounds(decl_bounds[name], frame) \
                    if name in decl_bounds else None
                layout.append((name, type_of(name), resolved))
            storage = self.commons.get_block(cdecl.block, layout, frame)
            for (name, _b), slot in zip(cdecl.entities, storage):
                frame.vars[name] = slot

        # Array dummy arguments (bounds may reference scalars/commons).
        for pname, ref in array_params:
            farray = ref.array
            if pname in decl_bounds:
                farray = farray.reinterpret(
                    self._resolve_bounds(decl_bounds[pname], frame))
            frame.vars[pname] = farray

        # Materialize remaining declared names.
        for name in order:
            if name in frame.vars or name in common_members:
                continue
            if name in decl_bounds:
                bounds = self._resolve_bounds(decl_bounds[name], frame)
                frame.vars[name] = FArray.allocate(type_of(name), bounds)
            else:
                frame.vars[name] = Cell(type_of(name))

        # FUNCTION result slot.
        if unit.kind == "function":
            rtype = unit.result_type or type_of(unit.name)
            existing = frame.vars.get(unit.name)
            if isinstance(existing, Cell):
                frame.result_cell = existing
            else:
                frame.result_cell = Cell(rtype)
                frame.vars[unit.name] = frame.result_cell

        # DATA initialisation.
        for ddecl in data_decls:
            for name, exprs in ddecl.items:
                values = [self._eval(e, frame) for e in exprs]
                target = frame.vars.get(name)
                if target is None:
                    target = frame.get_or_create_scalar(name)
                if isinstance(target, Cell):
                    if len(values) != 1:
                        raise FortranError(
                            f"DATA for scalar {name} needs one value")
                    target.set(values[0])
                else:
                    if len(values) == 1:
                        target.fill(values[0])
                    elif len(values) == target.size:
                        flat = target.data.reshape(-1, order="F")
                        for i, v in enumerate(values):
                            flat[i] = coerce_assign(target.ftype, v)
                    else:
                        raise FortranError(
                            f"DATA for {name}: {len(values)} values for "
                            f"{target.size} elements")
        return frame

    def _resolve_bounds(self, bounds, frame) -> list[tuple[int, int]]:
        resolved = []
        for lo_expr, hi_expr in bounds:
            lo = 1 if lo_expr is None else int(self._eval(lo_expr, frame))
            hi = int(self._eval(hi_expr, frame))
            resolved.append((lo, hi))
        return resolved

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def _exec_frame(self, frame: Frame, depth: int) -> Iterator:
        unit = frame.unit
        statements = unit.statements
        pc = 0
        count = len(statements)
        via_jump = False
        while 0 <= pc < count:
            stmt = statements[pc]
            new_pc = None
            if not isinstance(stmt, (ast.Declaration, ast.DimensionDecl,
                                     ast.CommonDecl, ast.ParameterDecl,
                                     ast.DataDecl, ast.ExternalDecl,
                                     ast.FormatStmt)):
                yield Cost(stmt.weight * self.cost_scale)
                new_pc = yield from self._exec_stmt(stmt, frame, depth,
                                                    via_jump)
            if new_pc is _RETURN:
                return
            via_jump = new_pc is not None
            pc = new_pc if new_pc is not None else pc + 1
            # DO terminal handling: statement at pc-1 just completed.
            if new_pc is None:
                looped = self._advance_do(frame, pc - 1, pc)
                if looped != pc:
                    via_jump = True
                    pc = looped
        raise FortranError("fell off the end of unit", unit=unit.name)

    def _advance_do(self, frame: Frame, executed: int, pc: int) -> int:
        while frame.do_stack and frame.do_stack[-1][1] == executed:
            entry = frame.do_stack[-1]
            entry[4] -= 1
            var_cell: Cell = entry[2]
            # F77: the DO variable is incremented on every pass,
            # including the one that exhausts the trip count.
            var_cell.set(var_cell.get() + entry[3])
            if entry[4] > 0:
                return entry[0] + 1
            frame.do_stack.pop()
        return pc

    def _exec_stmt(self, stmt: ast.Stmt, frame: Frame, depth: int,
                   via_jump: bool = False):
        """Execute one statement; returns new pc, _RETURN, or None.

        Implemented as a generator so CALLs can suspend.  ``via_jump``
        says whether control arrived here by an explicit jump — an
        ELSE IF / ELSE reached *sequentially* means the previous branch
        just completed, so control skips to END IF; reached *by jump*
        (the previous arm's condition failed) it enters this arm.
        """
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.target, self._eval(stmt.expr, frame), frame)
            return None
        if isinstance(stmt, ast.Continue):
            return None
        if isinstance(stmt, ast.Goto):
            return stmt.target
        if isinstance(stmt, ast.ComputedGoto):
            selector = int(self._eval(stmt.selector, frame))
            if 1 <= selector <= len(stmt.targets):
                return stmt.targets[selector - 1]
            return None
        if isinstance(stmt, ast.LogicalIf):
            if _truth(self._eval(stmt.cond, frame)):
                return (yield from self._exec_stmt(stmt.body, frame, depth))
            return None
        if isinstance(stmt, ast.IfThen):
            if _truth(self._eval(stmt.cond, frame)):
                return None
            return stmt.false_target
        if isinstance(stmt, ast.ElseIf):
            if not via_jump:
                return stmt.end_target
            if _truth(self._eval(stmt.cond, frame)):
                return None
            return stmt.false_target
        if isinstance(stmt, ast.Else):
            if not via_jump:
                return stmt.end_target
            return None
        if isinstance(stmt, ast.EndIf):
            return None
        if isinstance(stmt, ast.Do):
            return self._start_do(stmt, frame)
        if isinstance(stmt, ast.EndDo):
            return None
        if isinstance(stmt, ast.Call):
            yield from self._exec_call(stmt, frame, depth)
            return None
        if isinstance(stmt, ast.Return):
            self._run_copy_outs(frame)
            return _RETURN
        if isinstance(stmt, ast.EndUnit):
            self._run_copy_outs(frame)
            return _RETURN
        if isinstance(stmt, ast.Stop):
            raise StopSignal(stmt.message)
        if isinstance(stmt, ast.Write):
            values = [self._eval(e, frame) for e in stmt.items]
            if stmt.fmt_label is not None:
                lines = self._format_write(stmt, values, frame)
            else:
                lines = [" ".join(format_value(v) for v in values)]
            for line in lines:
                self.output.append(line)
                if self.on_output is not None:
                    self.on_output(line, frame)
            return None
        if isinstance(stmt, ast.Read):
            for target in stmt.targets:
                self._assign(target, self._next_input(frame), frame)
            return None
        raise FortranError(
            f"statement {type(stmt).__name__} not executable",
            line=stmt.line, unit=frame.unit.name)
        yield  # pragma: no cover

    def _start_do(self, stmt: ast.Do, frame: Frame) -> int | None:
        first = self._eval(stmt.first, frame)
        last = self._eval(stmt.last, frame)
        step = self._eval(stmt.step, frame) if stmt.step is not None else 1
        if step == 0:
            raise FortranError("DO step of zero", line=stmt.line,
                               unit=frame.unit.name)
        var_cell = frame.get_or_create_scalar(stmt.var)
        var_cell.set(first)
        trips = int((last - first + step) // step)
        if isinstance(first, float) or isinstance(last, float) or \
                isinstance(step, float):
            trips = int((last - first + step) / step)
        if trips <= 0:
            return stmt.terminal + 1
        # Drop stale state from a previous abandoned entry of this loop.
        frame.do_stack = [e for e in frame.do_stack if e[0] != stmt.index]
        frame.do_stack.append([stmt.index, stmt.terminal, var_cell,
                               step, trips])
        return None

    def _exec_call(self, stmt: ast.Call, frame: Frame, depth: int):
        name = stmt.name
        if self.external.is_external(name):
            refs = [self._make_argref(a, frame) for a in stmt.args]
            yield from self.external.call(name, refs, frame)
            return
        unit = self.program.units.get(name)
        if unit is None or unit.kind != "subroutine":
            raise FortranError(f"no subroutine named {name}",
                               line=stmt.line, unit=frame.unit.name)
        refs = [self._make_argref(a, frame) for a in stmt.args]
        yield from self.run_unit(unit, refs, depth + 1,
                                 process=frame.process)

    def _run_copy_outs(self, frame: Frame) -> None:
        for key, value in frame.vars.items():
            if key.startswith("%COPYOUT%"):
                value.flush()

    def _make_argref(self, expr: ast.Expr, frame: Frame) -> ArgRef:
        if isinstance(expr, ast.Var):
            entry = frame.lookup(expr.name)
            if isinstance(entry, FArray):
                return ArrayRef(entry)
            if entry is None and (
                    expr.name in self.program.units or
                    expr.name in frame.externals or
                    self.external.is_external(expr.name)):
                return ValueRef(expr.name)   # procedure-name argument
            return CellRef(frame.get_or_create_scalar(expr.name))
        if isinstance(expr, ast.Apply):
            entry = frame.lookup(expr.name)
            if isinstance(entry, FArray):
                subs = tuple(int(self._eval(a, frame)) for a in expr.args)
                return ElementRef(entry, subs)
        return ValueRef(self._eval(expr, frame))

    # ------------------------------------------------------------------
    # assignment & evaluation
    # ------------------------------------------------------------------
    def _assign(self, target, value: FValue, frame: Frame) -> None:
        if isinstance(target, ast.Var):
            entry = frame.lookup(target.name)
            if isinstance(entry, FArray):
                raise FortranError(f"cannot assign scalar to whole array "
                                   f"{target.name}", unit=frame.unit.name)
            frame.get_or_create_scalar(target.name).set(value)
            return
        if isinstance(target, ast.Apply):
            entry = frame.lookup(target.name)
            if not isinstance(entry, FArray):
                raise FortranError(f"{target.name} is not an array",
                                   unit=frame.unit.name)
            subs = tuple(int(self._eval(a, frame)) for a in target.args)
            entry.set(subs, value)
            return
        raise FortranError("bad assignment target")

    def _eval(self, expr: ast.Expr, frame: Frame) -> FValue:
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Str):
            return expr.value
        if isinstance(expr, ast.LogConst):
            return expr.value
        if isinstance(expr, ast.Var):
            entry = frame.lookup(expr.name)
            if isinstance(entry, FArray):
                raise FortranError(f"whole array {expr.name} in scalar "
                                   f"expression", unit=frame.unit.name)
            if entry is None:
                entry = frame.get_or_create_scalar(expr.name)
            return entry.get()
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, frame)
            if expr.op == "-":
                _require_numeric(operand)
                return -operand
            if expr.op == "+":
                _require_numeric(operand)
                return operand
            if expr.op == ".NOT.":
                return not _truth(operand)
            raise FortranError(f"unknown unary {expr.op}")
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, frame)
        if isinstance(expr, ast.Apply):
            return self._eval_apply(expr, frame)
        raise FortranError(f"cannot evaluate {expr!r}")

    def _eval_binop(self, expr: ast.BinOp, frame: Frame) -> FValue:
        op = expr.op
        if op == ".AND.":
            return _truth(self._eval(expr.left, frame)) and \
                _truth(self._eval(expr.right, frame))
        if op == ".OR.":
            return _truth(self._eval(expr.left, frame)) or \
                _truth(self._eval(expr.right, frame))
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if op == "//":
            if not isinstance(left, str) or not isinstance(right, str):
                raise FortranError("// requires CHARACTER operands")
            return left + right
        if op in _REL_MAP:
            if isinstance(left, str) != isinstance(right, str):
                raise FortranError("cannot compare CHARACTER with numeric")
            return _REL_MAP[op](left, right)
        _require_numeric(left)
        _require_numeric(right)
        both_int = isinstance(left, int) and isinstance(right, int)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if both_int:
                if right == 0:
                    raise FortranError("integer division by zero")
                quotient = abs(left) // abs(right)
                return quotient if (left < 0) == (right < 0) else -quotient
            if right == 0:
                raise FortranError("division by zero")
            return left / right
        if op == "**":
            if both_int:
                if right < 0:
                    return 1 if left == 1 else (-1) ** right if left == -1 \
                        else 0
                return left ** right
            return float(left) ** float(right)
        raise FortranError(f"unknown operator {op}")

    def _eval_apply(self, expr: ast.Apply, frame: Frame) -> FValue:
        name = expr.name
        entry = frame.lookup(name)
        if isinstance(entry, FArray):
            subs = tuple(int(self._eval(a, frame)) for a in expr.args)
            return entry.get(subs)
        if self.external.is_external_function(name):
            refs = [self._make_argref(a, frame) for a in expr.args]
            return self.external.call_function(name, refs, frame)
        if is_intrinsic(name):
            args = [self._eval(a, frame) for a in expr.args]
            return call_intrinsic(name, args)
        unit = self.program.units.get(name)
        if unit is not None and unit.kind == "function":
            return self._call_user_function(unit, expr.args, frame)
        raise FortranError(f"{name} is not an array, intrinsic or function",
                           unit=frame.unit.name)

    def _format_write(self, stmt: ast.Write, values, frame: Frame):
        """Render a FORMAT-directed WRITE into output lines."""
        from repro.fortran.formats import apply_format, parse_format
        if stmt.compiled_format is None:
            unit = frame.unit
            index = unit.label_index.get(stmt.fmt_label)
            if index is None:
                raise FortranError(f"no FORMAT labelled {stmt.fmt_label}",
                                   line=stmt.line, unit=unit.name)
            fmt_stmt = unit.statements[index]
            if not isinstance(fmt_stmt, ast.FormatStmt):
                raise FortranError(
                    f"label {stmt.fmt_label} is not a FORMAT statement",
                    line=stmt.line, unit=unit.name)
            text = fmt_stmt.text.strip()
            open_paren = text.find("(")
            if not text.upper().startswith("FORMAT") or open_paren < 0 \
                    or not text.endswith(")"):
                raise FortranError(f"malformed FORMAT: {text!r}",
                                   line=fmt_stmt.line, unit=unit.name)
            stmt.compiled_format = parse_format(text[open_paren + 1:-1])
        return apply_format(stmt.compiled_format, values)

    def _next_input(self, frame: Frame) -> FValue:
        if not self.input_data:
            raise FortranError("READ past end of input",
                               unit=frame.unit.name)
        return self.input_data.pop(0)

    def set_input(self, data) -> None:
        """Provide list-directed input: a list of scalars, or a string
        tokenised on whitespace/commas with numeric conversion."""
        if isinstance(data, str):
            tokens = data.replace(",", " ").split()
            values: list[FValue] = []
            for token in tokens:
                upper = token.upper()
                if upper in (".TRUE.", "T"):
                    values.append(True)
                elif upper in (".FALSE.", "F"):
                    values.append(False)
                else:
                    try:
                        values.append(int(token))
                    except ValueError:
                        try:
                            values.append(float(upper.replace("D", "E")))
                        except ValueError:
                            values.append(token)
            self.input_data = values
        else:
            self.input_data = list(data)

    def _call_user_function(self, unit: ProgramUnit, arg_exprs,
                            frame: Frame) -> FValue:
        """Run a user FUNCTION synchronously (no blocking allowed)."""
        refs = [self._make_argref(a, frame) for a in arg_exprs]
        gen = self.run_unit(unit, refs, depth=1, process=frame.process)
        result = None
        while True:
            try:
                event = next(gen)
            except StopIteration as stop:
                result = stop.value
                break
            if not isinstance(event, Cost):
                raise FortranError(
                    f"function {unit.name} attempted a blocking operation "
                    "(not allowed inside an expression)")
        return result


_RETURN = object()


class _CopyOut:
    """Copy-out record for array-element actual arguments."""

    __slots__ = ("cell", "ref")

    def __init__(self, cell: Cell, ref: ElementRef) -> None:
        self.cell = cell
        self.ref = ref

    def flush(self) -> None:
        self.ref.set(self.cell.get())


_REL_MAP = {
    ".EQ.": lambda a, b: a == b,
    ".NE.": lambda a, b: a != b,
    ".LT.": lambda a, b: a < b,
    ".LE.": lambda a, b: a <= b,
    ".GT.": lambda a, b: a > b,
    ".GE.": lambda a, b: a >= b,
}


def _truth(value: FValue) -> bool:
    if isinstance(value, bool):
        return value
    raise FortranError(f"expected LOGICAL, got {value!r}")


def _require_numeric(value: FValue) -> None:
    if isinstance(value, bool) or isinstance(value, str):
        raise FortranError(f"expected numeric operand, got {value!r}")


def _compatible(ftype: FType, value: FValue) -> bool:
    try:
        coerce_assign(ftype, value)
        return True
    except FortranError:
        return False


def drain(gen: Iterator, *, max_events: int = 50_000_000):
    """Run a serial program generator to completion.

    Returns (total_cost, halt) where halt is the Halt event if STOP was
    executed.  Raises on runaway programs.
    """
    total = 0
    halt = None
    for i, event in enumerate(gen):
        if isinstance(event, Cost):
            total += event.cycles * event.repeat
        elif isinstance(event, Halt):
            halt = event
        else:
            raise FortranError(f"unexpected event {event!r} in serial run")
        if i >= max_events:
            raise FortranError("program exceeded the serial event limit")
    return total, halt
