"""Native execution: run translated Force programs for real.

``force run --backend thread|process`` executes the generated Fortran
on the host machine instead of the discrete-event simulator.  The
program is translated for the **python-host** port (the seventh
machine in the catalog — the one this reproduction actually runs on),
then every Force member becomes a worker of the runtime layer's
:class:`~repro.runtime.force.Force`: an OS thread (``thread``) or a
forked process over POSIX shared memory (``process``).

The python-host port generates software-lock code: barriers, critical
sections and selfscheduled loops are *pure Fortran* over
``SPINLK``/``SPINUN`` calls on LOGICAL variables in shared COMMON
(§4.2's machine-independent expansions), so the native runtime only
has to supply the machine-dependent externals:

* ``SPINLK``/``SPINUN``/``FRCLKI`` — blocking locks whose state *is*
  the LOGICAL lock variable (true = locked), serialised through the
  backend's condition bus;
* ``FRCAIN``/``FRCVOD``/``FRCISF`` — the two-lock full/empty protocol
  bookkeeping;
* ``FRCSHB``/``FRCPAG`` — run-time sharing registration (the shared
  block set is also recovered statically, so every forked worker knows
  it before touching COMMON);
* ``FRKALL``/``FRCJON`` — the fork/join driver protocol: worker 1
  doubles as the driver (exactly the UNIX-fork discipline where the
  original process becomes member 1), releases the force at
  ``FRKALL``, runs the main unit itself, and joins at ``FRCJON``;
* ``FRCQIN``/``FRCQPT``/``FRCQGT`` — Askfor pools over the runtime's
  :class:`~repro.runtime.askfor.AskforMonitor`;
* ``FRCTIM`` — real elapsed microseconds.

Sharing model: COMMON blocks named by ``FRCSHB`` registrations (or
``C$FORCE SHARED`` directives) are shared between members — plain
storage for the thread backend, views over the process backend's
shared-memory arena otherwise — and every other block is private per
member.  Program output is collected per member in print order and
merged by (member, sequence), which is deterministic; the simulator
orders by virtual time instead, so interleavings may differ between
``--backend sim`` and the native backends even when each member's own
output is identical.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from repro._util.errors import ForceError
from repro.fortran.interp import (
    ArrayRef,
    Cell,
    CellRef,
    CommonProvider,
    ElementRef,
    ExternalCallHandler,
    Frame,
    Interpreter,
    StopSignal,
    ValueRef,
    drain,
    execution_tier,
)
from repro.fortran.parser import parse_source
from repro.fortran.values import FArray, FType
from repro.pipeline.compile import TranslationResult
from repro.pipeline.run import program_facts
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.force import Force
from repro.runtime.probe import LockWord
from repro.runtime.supervisor import RetryPolicy, SupervisedRun
from repro.trace.events import lock_kind

_FRCSHB = re.compile(r'CALL\s+FRCSHB\("(\w+)"\)')
_DIRECTIVE = re.compile(r"^C\$FORCE\s+SHARED\s+(\w+)\s*$", re.MULTILINE)
_SPAWN = re.compile(r'CALL\s+FRKALL\("(\w+)"\)')

NATIVE_BACKENDS = ("thread", "process")


def shared_block_names(fortran: str) -> frozenset[str]:
    """COMMON blocks the generated code marks shared.

    Run-time binding machines register through ``CALL FRCSHB("...")``
    in the startup unit; compile-time machines emit ``C$FORCE SHARED``
    directives.  Scanning the text recovers the set statically so a
    forked worker knows it before its first COMMON access (the actual
    ``FRCSHB`` calls still execute, as registration order evidence).
    """
    return frozenset(_FRCSHB.findall(fortran)) | \
        frozenset(_DIRECTIVE.findall(fortran))


def _me_of_current_thread() -> int:
    name = threading.current_thread().name
    if name.startswith("force-"):
        try:
            return int(name[6:])
        except ValueError:
            pass
    return 0


# ----------------------------------------------------------------------
# shared COMMON storage
# ----------------------------------------------------------------------
class _SharedCell(Cell):
    """A scalar COMMON member stored in one shared-arena slot.

    Reads and writes go straight through the numpy view, so every
    forked member observes each assignment immediately — the arena is
    the storage, this object is just the per-process handle.
    """

    __slots__ = ("_view",)

    def __init__(self, ftype: FType, view: np.ndarray) -> None:
        # Deliberately not Cell.__init__: assigning the zero value here
        # would clobber a slot another member already wrote.
        self._view = view
        self.ftype = ftype
        self.full = False

    @property
    def value(self):
        raw = self._view[0]
        if self.ftype is FType.LOGICAL:
            return bool(raw)
        if self.ftype is FType.INTEGER:
            return int(raw)
        return float(raw)

    @value.setter
    def value(self, new) -> None:
        self._view[0] = new


class _ThreadCommons(CommonProvider):
    """Thread backend: shared blocks are one storage sequence; private
    blocks get a per-member sequence (keyed by the worker's me)."""

    def __init__(self, shared_names: frozenset[str]) -> None:
        super().__init__()
        self._shared_names = shared_names
        self._guard = threading.Lock()

    def get_block(self, name, layout, frame):
        with self._guard:
            if name in self._shared_names:
                return super().get_block(name, layout, frame)
            return super().get_block(
                f"{name}%{_me_of_current_thread()}", layout, frame)


class _ProcessCommons(CommonProvider):
    """Process backend: shared blocks live in the Force's shared-memory
    arena (named by block and member, so every member maps the same
    slots); private blocks are ordinary per-process storage."""

    def __init__(self, force: Force, shared_names: frozenset[str]) -> None:
        super().__init__()
        self._force = force
        self._shared_names = shared_names

    def get_block(self, name, layout, frame):
        if name not in self._shared_names:
            return super().get_block(name, layout, frame)
        block = self._blocks.get(name)
        if block is None:
            block = [self._shared_slot(name, index, member, ftype, bounds)
                     for index, (member, ftype, bounds) in enumerate(layout)]
            self._blocks[name] = block
        elif len(block) != len(layout):
            raise ForceError(
                f"COMMON /{name}/ declared with {len(layout)} members, "
                f"previously {len(block)}")
        return [self._adapt_slot(slot, ftype, bounds, name)
                for slot, (_n, ftype, bounds) in zip(block, layout)]

    def _shared_slot(self, block: str, index: int, member: str,
                     ftype: FType, bounds):
        if ftype is FType.CHARACTER:
            raise ForceError(
                f"CHARACTER member {member} of shared COMMON /{block}/ "
                "cannot live in process-backend shared memory; make the "
                "block private or use the thread backend")
        arena_name = f"cm:{block}:{index}:{member}"
        if bounds is None:
            view = self._force.shared_array(arena_name, (1,),
                                            ftype.numpy_dtype)
            return _SharedCell(ftype, view)
        lower = tuple(lo for lo, _ in bounds)
        shape = tuple(hi - lo + 1 for lo, hi in bounds)
        count = int(np.prod(shape)) if shape else 1
        flat = self._force.shared_array(arena_name, (count,),
                                        ftype.numpy_dtype)
        return FArray(ftype, lower, shape,
                      flat.reshape(shape, order="F"))


# ----------------------------------------------------------------------
# blocking lock engines over the backend's wait machinery
# ----------------------------------------------------------------------
class _ThreadSync:
    """Locks for the thread backend: one condition, cancel-aware."""

    def __init__(self, force: Force) -> None:
        self.force = force
        self.mutex = threading.Condition()
        self._once: set = set()
        force._cancel.register(self.mutex)

    def acquire(self, ref, label: Callable[[], str]) -> None:
        """Take the lock word; ``label()`` names it only if it must
        wait (for the deadlock message)."""
        with self.mutex:
            cancel = self.force._cancel
            cancel.check()
            if ref.get():
                cancel.wait_for(
                    self.mutex, lambda: not bool(ref.get()),
                    what=f"native lock {label()}")
            ref.set(True)

    def release(self, ref) -> None:
        with self.mutex:
            ref.set(False)
            self.mutex.notify_all()

    def set_state(self, ref, locked: bool) -> None:
        with self.mutex:
            ref.set(bool(locked))
            self.mutex.notify_all()

    def storage_key(self, ref) -> int:
        if isinstance(ref, CellRef):
            return id(ref.cell)
        if isinstance(ref, (ElementRef, ArrayRef)):
            return ref.farray.storage_id()
        return 0

    def once(self, key) -> bool:
        """True exactly once per key across the whole run."""
        with self.mutex:
            if key in self._once:
                return False
            self._once.add(key)
            return True


class _ProcessSync:
    """Locks for the process backend: the Force's shared bus, with
    lock state living in the arena-backed LOGICAL cells themselves."""

    def __init__(self, force) -> None:
        self.force = force
        self._base = force._arena.view(0, 1).__array_interface__["data"][0]

    @property
    def mutex(self):
        return self.force._bus

    def acquire(self, ref, label: Callable[[], str]) -> None:
        """:meth:`_ThreadSync.acquire` over the bus."""
        force = self.force
        with force._bus:
            force._check_poison()
            if ref.get():
                force._await(lambda: not bool(ref.get()),
                             f"native lock {label()}")
            ref.set(True)

    def release(self, ref) -> None:
        with self.force._bus:
            ref.set(False)
            self.force._bus.notify_all()

    def set_state(self, ref, locked: bool) -> None:
        with self.force._bus:
            ref.set(bool(locked))
            self.force._bus.notify_all()

    def storage_key(self, ref) -> int:
        """Arena offset of the referenced storage — identical in every
        member, unlike the per-process mapping address."""
        if isinstance(ref, CellRef):
            cell = ref.cell
            if isinstance(cell, _SharedCell):
                return cell._view.__array_interface__["data"][0] - self._base
            return id(cell)
        if isinstance(ref, (ElementRef, ArrayRef)):
            return ref.farray.storage_id() - self._base
        return 0

    def once(self, key) -> bool:
        flag = self.force.shared_array(f"zzonce:{key}", (1,), np.int64)
        with self.force._bus:
            if int(flag[0]):
                return False
            flag[0] = 1
            return True


class _RefLock(LockWord):
    """A SPINLK lock word (a LOGICAL cell, true = locked) for the
    probe to time."""

    __slots__ = ("_sync", "_ref", "_label")

    def __init__(self, sync, ref, label: str) -> None:
        self._sync = sync
        self._ref = ref
        self._label = label

    def try_acquire(self) -> bool:
        with self._sync.mutex:
            if self._ref.get():
                return False
            self._ref.set(True)
            return True

    def acquire(self) -> None:
        self._sync.acquire(self._ref, lambda: self._label)

    def release(self) -> None:
        self._sync.release(self._ref)


# ----------------------------------------------------------------------
# the runtime-library externals
# ----------------------------------------------------------------------
_OTHER_MACHINE_LOCKS = frozenset({
    "SYSLCK", "SYSUNL", "CMBLCK", "CMBUNL", "HEPLKW", "HEPLKS",
    "HEPPRD", "HEPCON", "HEPCPY", "HEPVOD", "HEPVIN", "HEPSPN",
})


class _NativeRuntime(ExternalCallHandler):
    """The Force runtime library, executed for real.

    One instance is shared by every thread-backend worker (all state is
    engine-serialised); the process backend builds one per forked
    member over the same arena.
    """

    _SUBROUTINES = frozenset({
        "SPINLK", "SPINUN", "FRCLKI", "FRCVOD", "FRCAIN",
        "FRKALL", "FRCJON", "FRCSHB", "FRCPAG",
        "FRCQIN", "FRCQPT", "FRCQGT", "ZZSTRT",
    }) | _OTHER_MACHINE_LOCKS
    _FUNCTIONS = frozenset({"FRCISF", "FRCTIM"})

    def __init__(self, force, sync, program, main_name: str) -> None:
        self.force = force
        self.sync = sync
        self.program = program
        self.main_name = main_name
        self.registrations: list[str] = []
        self.page_plan_requested = False
        self.spawned = False
        self.joined = False
        #: async variable storage key -> (E lock ref, F lock ref)
        self._async_pairs: dict[int, tuple] = {}
        #: (storage key, thread ident) -> the probe's open lock round
        self._lock_holds: dict[tuple[int, int], Any] = {}
        self._started = perf_counter()

    # -- dispatch ------------------------------------------------------
    def is_external(self, name: str) -> bool:
        return name in self._SUBROUTINES and \
            not (name == "ZZSTRT" and "ZZSTRT" in self.program.units)

    def is_external_function(self, name: str) -> bool:
        return name in self._FUNCTIONS

    def call(self, name: str, args: list, frame: Frame):
        if name in _OTHER_MACHINE_LOCKS:
            raise ForceError(
                f"lock primitive {name} is not available on the native "
                "backends (python-host generates SPINLK/SPINUN) — was "
                "this program expanded for a different machine?")
        if name == "SPINLK":
            self._one_lock_arg(name, args)
            self._locked(args[0], frame)
        elif name == "SPINUN":
            self._one_lock_arg(name, args)
            self._unlocked(args[0], frame)
        elif name == "FRCLKI":
            if len(args) != 2:
                raise ForceError("FRCLKI expects (lockvar, state)")
            self.sync.set_state(args[0], bool(args[1].get()))
        elif name == "FRCVOD":
            if len(args) != 2:
                raise ForceError("FRCVOD expects (elock, flock)")
            self._void(args[0], args[1])
        elif name == "FRCAIN":
            self._register_async(args)
        elif name == "FRKALL":
            yield from self._spawn(args, frame)
        elif name == "FRCJON":
            self.joined = True
            self.force.barrier()
        elif name == "FRCSHB":
            self.registrations.append(str(args[0].get()))
        elif name == "FRCPAG":
            self.page_plan_requested = True
        elif name == "ZZSTRT":
            pass        # startup unit absent: nothing to run
        elif name == "FRCQIN":
            self.force.askfor(str(args[0].get()))
        elif name == "FRCQPT":
            self.force.askfor(str(args[0].get())).put(args[1].get())
        elif name == "FRCQGT":
            got, item = self.force.askfor(str(args[0].get())).get()
            args[2].set(bool(got))
            if got:
                args[1].set(item)
        else:   # pragma: no cover - guarded by is_external
            raise ForceError(f"no native runtime subroutine {name}")
        return
        yield   # noqa: unreachable — makes this a generator function

    def call_function(self, name: str, args: list, frame: Frame):
        if name == "FRCISF":
            return self._isfull(args)
        if name == "FRCTIM":
            return int((perf_counter() - self._started) * 1e6)
        raise ForceError(f"no native runtime function {name}")

    # -- fork/join -----------------------------------------------------
    def _spawn(self, args, frame: Frame):
        """FRKALL: worker 1 is the driver — release the parked members
        (they run the main unit as soon as the startup writes land),
        then run the main unit as member 1 in the same interpreter."""
        name = str(args[0].get())
        unit = self.program.units.get(name)
        if unit is None:
            raise ForceError(f"FRKALL target {name} is not a program unit")
        self.spawned = True
        self.force.barrier()
        yield from frame.interpreter.run_unit(
            unit, [ValueRef(1), ValueRef(self.force.nproc)],
            depth=frame.depth + 1)

    # -- two-lock full/empty protocol ----------------------------------
    def _register_async(self, args) -> None:
        if len(args) != 3:
            raise ForceError("FRCAIN expects (var, elock, flock)")
        var, e_ref, f_ref = args
        with self.sync.mutex:
            self._async_pairs[self.sync.storage_key(var)] = (e_ref, f_ref)
        # First registration across the whole force voids the variable:
        # E locked (empty), F unlocked.  Later members must not reset
        # state a producer already flipped.
        if self.sync.once(f"zzain:{self.sync.storage_key(e_ref)}"):
            self._void(e_ref, f_ref)

    def _void(self, e_ref, f_ref) -> None:
        if isinstance(e_ref, ArrayRef):
            e_ref.array.fill(True)
            f_ref.array.fill(False)
            with self.sync.mutex:
                self.sync.mutex.notify_all()
        else:
            self.sync.set_state(e_ref, True)
            self.sync.set_state(f_ref, False)

    def _isfull(self, args) -> bool:
        if len(args) != 1:
            raise ForceError("FRCISF expects one async variable")
        ref = args[0]
        base = ref if not isinstance(ref, ElementRef) else ArrayRef(ref.farray)
        pair = self._async_pairs.get(self.sync.storage_key(base))
        if pair is None:
            raise ForceError("Isfull on an unregistered async variable")
        e_ref, f_ref = pair
        if isinstance(ref, ElementRef):
            e_val = e_ref.array.get(ref.subscripts)
            f_val = f_ref.array.get(ref.subscripts)
        else:
            e_val, f_val = e_ref.get(), f_ref.get()
        return bool(f_val) and not bool(e_val)

    # -- observability over the software locks -------------------------
    # The translated program synchronises through SPINLK/SPINUN on the
    # macro layer's LOGICAL lock variables; the variable *names* carry
    # the construct (BARWIN/BARWOT barrier gates, ZZL<label> selfsched
    # index locks, anything else a critical section), read by the one
    # rule the simulator's locks use too (`lock_kind`).  When the
    # Force is observed, each lock round is one probe lock round: wait
    # and hold spans on the acquiring lane, and for critical sections
    # the stats and metrics counts, so `force profile` and `force tune`
    # see pipeline-native runs exactly like simulator and runtime-API
    # runs.
    def _locked(self, ref, frame: Frame) -> None:
        probe = self.force._probe
        if probe is None:
            # the name only matters to a deadlock message: find it
            # only if the lock must wait
            self.sync.acquire(ref, lambda: self._label(ref, frame))
            return
        label = self._label(ref, frame)
        held = probe.lock(lock_kind(label), label,
                          _RefLock(self.sync, ref, label))
        held.acquire()
        self._lock_holds[(self.sync.storage_key(ref),
                          threading.get_ident())] = held

    def _unlocked(self, ref, frame: Frame) -> None:
        probe = self.force._probe
        if probe is None:
            self.sync.release(ref)
            return
        held = self._lock_holds.pop((self.sync.storage_key(ref),
                                     threading.get_ident()), None)
        if held is not None:
            held.release()
            return
        # An unlock of a lock this lane never acquired — the barrier
        # macro's out-gate open (the last arriver releases BARWOT
        # without holding it).  Record the instant so the trace
        # analyzer can resolve gate waiters to this lane.
        self.sync.release(ref)
        label = self._label(ref, frame)
        probe.event(lock_kind(label), label, "release")

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _one_lock_arg(name: str, args) -> None:
        if len(args) != 1:
            raise ForceError(f"{name} expects one lock variable")

    @staticmethod
    def _label(ref, frame: Frame) -> str:
        """Best-effort Fortran name for deadlock messages."""
        target = getattr(ref, "cell", None) or getattr(ref, "farray", None)
        for name, storage in frame.vars.items():
            if storage is target and not name.startswith("%"):
                if isinstance(ref, ElementRef):
                    subs = ",".join(str(s) for s in ref.subscripts)
                    return f"{name}({subs})"
                return name
        return "lock"


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------
_RUN_IDS = itertools.count(1)
#: thread-backend run state, shared by the worker threads in-process
_THREAD_RUNS: dict[int, dict[str, Any]] = {}


def _native_worker(force, me: int, spec: dict) -> None:
    """One Force member: interpret the generated Fortran for real.

    Member 1 doubles as the driver (``PROGRAM FORCED``): startup unit,
    environment init, then ``FRKALL`` releases members 2..N and runs
    the main unit inline, and ``FRCJON`` joins.  Other members park at
    the go barrier, run the main unit, and join.  Every member's
    interpreter gets the run's one facts document, so the DOALLs it
    proves race-free run as numpy kernels (on the process backend over
    the arena's views of shared COMMON); the member writes its output
    and its kernel report to ``spec["outdir"]``.
    """
    if spec["backend"] == "thread":
        state = _THREAD_RUNS[spec["run_id"]]
        program = state["program"]
        runtime = state["runtime"]
        commons = state["commons"]
        facts = state["facts"]
    else:
        program = parse_source(spec["fortran"])
        commons = _ProcessCommons(force, frozenset(spec["shared"]))
        runtime = _NativeRuntime(force, _ProcessSync(force), program,
                                 spec["main"])
        facts = spec["facts"]
    lines: list[str] = []
    interp = Interpreter(program, external=runtime, commons=commons,
                         on_output=lambda line, frame: lines.append(line),
                         facts=facts, codegen=spec.get("codegen"))
    try:
        if me == 1:
            try:
                drain(interp.run_unit(program.main, []))
            except StopSignal as stop:
                if stop.message:
                    lines.append(stop.message)
                if runtime.spawned and not runtime.joined:
                    force.barrier()     # peers still expect the join
        else:
            force.barrier()             # wait for the driver's startup
            unit = program.units[spec["main"]]
            try:
                drain(interp.run_unit(
                    unit, [ValueRef(me), ValueRef(force.nproc)]))
            except StopSignal as stop:
                if stop.message:
                    lines.append(stop.message)
            force.barrier()             # join
    finally:
        path = os.path.join(spec["outdir"], f"out-{me}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in lines)
        path = os.path.join(spec["outdir"], f"kernels-{me}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([interp.kernel_eligible, interp.codegen_kernelized,
                       interp.codegen_kernel_refused], handle)


def _kernel_union(outdir: str, nproc: int) -> tuple[dict, dict, dict]:
    """Union of the members' kernel reports: (eligible, kernelized,
    refused), labels sorted; a refused label keeps the lowest member's
    reason."""
    eligible: dict[str, set[int]] = {}
    kernelized: dict[str, set[int]] = {}
    refused: dict[str, dict[int, str]] = {}
    for me in range(1, nproc + 1):
        path = os.path.join(outdir, f"kernels-{me}.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            member_eligible, member_kernelized, member_refused = \
                json.load(handle)
        for union, report in ((eligible, member_eligible),
                              (kernelized, member_kernelized)):
            for unit, labels in report.items():
                union.setdefault(unit, set()).update(labels)
        for unit, reasons in member_refused.items():
            known = refused.setdefault(unit, {})
            for label, why in reasons.items():
                known.setdefault(int(label), why)
    return ({unit: sorted(labels) for unit, labels in eligible.items()},
            {unit: sorted(labels) for unit, labels in kernelized.items()},
            {unit: dict(sorted(reasons.items()))
             for unit, reasons in refused.items()})


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
@dataclass
class NativeRunResult:
    """Everything one native execution produced."""

    translation: TranslationResult
    backend: str
    nproc: int
    output: list[str]                   #: merged by (member, print order)
    wall_s: float
    force_stats: dict | None = None     #: runtime stats dict (stats=True)
    trace: list = field(default_factory=list)
    trace_dropped: int = 0              #: ring-buffer overflow count
    metrics_doc: dict | None = None     #: registry dict (metrics=True)
    #: the supervisor's attempt-by-attempt report (supervised runs)
    supervision: dict | None = None
    #: unit name → labels of DO loops the facts proved race-free, the
    #: union over members (as :attr:`RunResult.kernel_eligible`)
    kernel_eligible: dict[str, list[int]] = field(default_factory=dict)
    #: unit name → labels of DOALLs lowered to numpy kernels (union)
    kernelized_doalls: dict[str, list[int]] = field(default_factory=dict)
    #: unit name → {label: reason} for eligible loops left on the
    #: generic path, the recognizer's or the runtime guard's (union)
    kernel_refused: dict[str, dict[int, str]] = \
        field(default_factory=dict)

    def stats_dict(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "native": {"backend": self.backend, "nproc": self.nproc,
                       "wall_s": round(self.wall_s, 6),
                       "kernel_eligible": self.kernel_eligible,
                       "kernelized_doalls": self.kernelized_doalls,
                       "kernel_refused": self.kernel_refused},
        }
        if self.force_stats is not None:
            document.update(self.force_stats)
        return document

    def trace_events(self) -> list:
        return self.trace


def native_run(translation: TranslationResult, nproc: int, *,
               backend: str = "thread",
               stats: bool = False,
               trace: bool = False,
               metrics: bool = False,
               trace_capacity: int = 65536,
               deadline: float | None = None,
               codegen: str | None = None,
               retries: int = 0,
               min_nproc: int | None = None,
               checkpoint_dir: str | None = None,
               checkpoint_every: int = 1,
               resume: bool = False,
               facts: dict | None = None) -> NativeRunResult:
    """Execute a translated Force program on the host.

    ``deadline`` bounds every blocking construct (it becomes the
    Force's ``construct_timeout``), so a deadlocked program raises a
    structured :class:`~repro._util.errors.ForceDeadlockError` instead
    of hanging.  ``trace_capacity`` sizes each member's trace ring;
    overflow drops the oldest events and the count surfaces as
    :attr:`NativeRunResult.trace_dropped`.

    ``facts`` is an analysis facts document, as for
    :func:`~repro.pipeline.run.force_run`: on the source tier
    ``facts=None`` means the facts of ``translation.force_source``,
    computed once per process (:func:`program_facts`), and
    ``facts={}`` proves nothing; ``codegen="interp"`` analyses
    nothing.  Every member's interpreter gets the one document and
    lowers the DOALLs it proves race-free to numpy kernels, reported
    in :attr:`NativeRunResult.kernelized_doalls` (refusals in
    :attr:`NativeRunResult.kernel_refused`).

    Supervision: ``retries > 0`` or a ``checkpoint_dir`` routes
    the run through a :class:`~repro.runtime.supervisor.SupervisedRun`
    — transient failures (a worker death, a structured deadlock
    verdict) are retried with capped backoff, restarting elastically
    down to ``min_nproc`` when the same facts document proves every
    DOALL race-free (or, on ``codegen="interp"`` with no document
    supplied, always).  Checkpointing requires
    the process backend: there shared COMMON lives in the Force's
    arena, inside the snapshot scope, while the thread backend keeps
    COMMON in interpreter storage the checkpointer cannot see.  Note
    the pipeline's own barriers are software spin-lock barriers in the
    generated Fortran, so runtime snapshots happen at the fork/join
    runtime barriers only — supervision of pipeline runs is chiefly
    *retry and elastic restart*, not mid-program resume.
    """
    if backend not in NATIVE_BACKENDS:
        raise ForceError(f"unknown native backend {backend!r}: expected "
                         f"one of {', '.join(NATIVE_BACKENDS)}")
    machine = translation.machine
    if machine.key != "python-host":
        raise ForceError(
            f"native execution runs python-host code only (this program "
            f"was translated for {machine.key}); translate with "
            "--machine python-host")
    fortran = translation.fortran
    spawn = _SPAWN.search(fortran)
    if spawn is None:
        raise ForceError("the generated code has no FRKALL driver call "
                         "(is this a Force program?)")
    main_name = spawn.group(1)
    shared = shared_block_names(fortran)
    if facts is None and execution_tier(codegen) == "source":
        facts = program_facts(translation.force_source)
    supervised = retries > 0 or checkpoint_dir is not None or resume
    policy = None
    if checkpoint_dir is not None:
        if backend != "process":
            raise ForceError(
                "checkpointing a pipeline run needs the process "
                "backend (thread-backend COMMON lives in interpreter "
                "storage, outside the snapshot scope); rerun with "
                "--backend process or drop --checkpoint")
        policy = CheckpointPolicy(checkpoint_every, checkpoint_dir)
    elif resume:
        raise ForceError("--resume needs --checkpoint DIR to resume "
                         "from")
    outdir = tempfile.mkdtemp(prefix="force-native-")
    spec: dict[str, Any] = {
        "backend": backend,
        "main": main_name,
        "outdir": outdir,
        "codegen": codegen,
    }
    run_id = None
    if backend == "thread":
        run_id = next(_RUN_IDS)
        spec["run_id"] = run_id
    else:
        spec["fortran"] = fortran
        spec["shared"] = sorted(shared)
        spec["facts"] = facts

    def build_force(width: int, restore=None) -> Force:
        """One attempt's force plus its fresh interpreter state."""
        force = Force(width, backend=backend, stats=stats, trace=trace,
                      metrics=metrics, trace_capacity=trace_capacity,
                      construct_timeout=deadline, checkpoint=policy,
                      restore=restore)
        for name in os.listdir(outdir):    # drop a prior attempt's output
            os.unlink(os.path.join(outdir, name))
        if backend == "thread":
            program = parse_source(fortran)
            _THREAD_RUNS[run_id] = {
                "program": program,
                "runtime": _NativeRuntime(force, _ThreadSync(force),
                                          program, main_name),
                "commons": _ThreadCommons(shared),
                "facts": facts,
            }
        return force

    started = perf_counter()
    supervision_doc = None
    try:
        if supervised:
            run = SupervisedRun(
                _native_worker, (spec,), nproc=nproc, backend=backend,
                checkpoint=policy, min_nproc=min_nproc,
                retry=RetryPolicy(retries=retries), facts=facts,
                resume=resume,
                force_factory=lambda width, restore, inject:
                    build_force(width, restore))
            outcome = run.run()
            force = outcome.force
            final_nproc = outcome.final_nproc
            supervision_doc = outcome.as_dict()
        else:
            force = build_force(nproc)
            force.run(_native_worker, spec)
            final_nproc = nproc
        wall_s = perf_counter() - started
        output: list[str] = []
        for me in range(1, final_nproc + 1):
            path = os.path.join(outdir, f"out-{me}.txt")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    output.extend(line.rstrip("\n")
                                  for line in handle)
        eligible, kernelized, refused = _kernel_union(outdir, final_nproc)
    finally:
        if run_id is not None:
            _THREAD_RUNS.pop(run_id, None)
        shutil.rmtree(outdir, ignore_errors=True)
    return NativeRunResult(
        translation=translation,
        backend=backend,
        nproc=nproc,
        output=output,
        wall_s=wall_s,
        force_stats=force.stats if stats else None,
        trace=list(force.trace_events()) if trace else [],
        trace_dropped=force.trace_dropped if trace else 0,
        metrics_doc=force.metrics_registry(wall_s=wall_s).as_dict()
        if metrics else None,
        supervision=supervision_doc,
        kernel_eligible=eligible,
        kernelized_doalls=kernelized,
        kernel_refused=refused,
    )
