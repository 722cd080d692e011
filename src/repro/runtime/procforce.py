"""The process-based Force backend: true multi-core execution.

``Force(nproc, backend="process")`` returns a :class:`ProcessForce`
whose members are real OS processes (``multiprocessing`` fork
context): the paper's methodology applied to the Python host itself.
Where the thread backend shares objects through the interpreter heap,
this backend places every shared construct — counters, arrays,
full/empty variables, askfor pools, critical-section lock words,
barrier state, selfscheduled-loop records — in one POSIX
shared-memory segment (:class:`repro.machines.memory.SharedArena`)
and accesses it through numpy views, so workers bypass the GIL
entirely.

The public API is the thread backend's, unchanged:

* constructs: ``barrier`` / ``barrier_section`` / ``critical`` /
  ``selfsched_range`` / ``presched_range`` / ``presched_pairs`` /
  ``pcase`` / ``askfor`` / ``shared_counter`` / ``shared_array`` /
  ``async_var`` / ``async_array``;
* fail-fast semantics: the first failing worker poisons the force
  through a shared poison word + pickled-error slot, peers unwind with
  ``ForceCancelled``, and :meth:`ProcessForce.run` re-raises the
  original error;
* ``construct_timeout`` bounds every blocking wait with a structured
  :class:`~repro._util.errors.ForceDeadlockError`;
* stats, traces and metrics are collected per worker by the worker's
  own probe and folded in the parent, which reads them exactly as the
  thread backend does;
* fault-injection sites fire at the same (site, name, occurrence)
  coordinates — hit counters live in the arena so the n-th occurrence
  is global across processes, exactly as the thread backend counts
  globally across threads.

Contract differences (documented in ``docs/LANGUAGE.md``):

* programs and their arguments must be **picklable** (enforced up
  front with a clear error) — the groundwork distributed execution
  needs;
* shared values are **numeric** (float64 cells); arbitrary Python
  objects cannot live in shared memory;
* shared-memory lifetime is owned by the parent: the segment is
  unlinked in a ``finally`` covering normal exit, injected deaths,
  cancellation and timeouts — no leaked ``/dev/shm`` entries.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import threading
from time import monotonic, sleep
from typing import Any, Callable, Iterator

import numpy as np

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.faults.injector import FaultInjector
from repro.machines.memory import SharedArena, sweep_stale_arenas
from repro.runtime.cancel import (
    REVALIDATE_CAP_FACTOR,
    REVALIDATE_GROWTH,
    ForceCancelled,
)
from repro.runtime.checkpoint import (
    CheckpointError,
    array_entry,
    askfor_entry,
    asyncarray_entry,
    asyncvar_entry,
    build_checkpoint,
    counter_entry,
    decode_array,
)
from repro.runtime.askfor import AskforMonitor
from repro.runtime.asyncvar import AsyncArray, AsyncVariable
from repro.runtime.force import Force, _SelfschedLoop
from repro.runtime.probe import LockWord, PoolTotals

#: maximum pickled size of the first-failure error (arena slot)
_ERROR_CAPACITY = 65536
#: shared-object registry capacity (named constructs per run)
_REGISTRY_CAPACITY = 512
#: bytes reserved per registered name
_NAME_BYTES = 64
#: askfor ring capacity (outstanding numeric work items)
_ASKFOR_RING = 4096
#: bytes reserved per recorded death site
_SITE_BYTES = 32

#: registry kind codes
_K_CRITICAL = 1
_K_COUNTER = 2
_K_ARRAY = 3
_K_ASYNC = 4
_K_ASKFOR = 5
_K_LOOP = 6
_K_ASYNC_ARRAY = 7

_KIND_LABEL = {
    _K_CRITICAL: "critical", _K_COUNTER: "shared_counter",
    _K_ARRAY: "shared_array", _K_ASYNC: "async_var",
    _K_ASKFOR: "askfor", _K_LOOP: "selfsched",
    _K_ASYNC_ARRAY: "async_array",
}

#: dtype codes for shared arrays
_DTYPES = {1: np.float64, 2: np.int64, 3: np.bool_,
           4: np.int32, 5: np.float32}
_DTYPE_CODES = {np.dtype(d): code for code, d in _DTYPES.items()}

_SCHEDULES = ("self", "chunked", "guided")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:     # pragma: no cover - other-user pid
        return True
    return True


class _SharedHitInjector(FaultInjector):
    """Fault injector whose hit counters live in the shared arena.

    The thread backend counts occurrences globally across threads
    under one lock; to preserve "the n-th matching hit fires" across
    *processes*, hits and fired flags are int64 arena cells mutated
    under the backend's cross-process bus lock.
    """

    def __init__(self, plan, *, probe=None,
                 hits: np.ndarray, fired: np.ndarray, bus) -> None:
        super().__init__(plan, probe=probe)
        self._shared_hits = hits
        self._shared_fired = fired
        self._bus = bus

    def _due(self, site, name, me, kinds):
        with self._bus:
            due = None
            for index, spec in enumerate(self.plan.faults):
                if spec.kind not in kinds or self._shared_fired[index]:
                    continue
                if not spec.matches(site, name, me):
                    continue
                self._shared_hits[index] += 1
                if int(self._shared_hits[index]) == spec.occurrence \
                        and due is None:
                    self._shared_fired[index] = 1
                    due = spec
            if due is not None:
                self._record(due, site, name, me)
            return due


class _ShmCounter:
    """:class:`SharedCounter` twin over one float64 arena cell."""

    __slots__ = ("_cell",)

    def __init__(self, cell: np.ndarray) -> None:
        self._cell = cell

    @property
    def value(self) -> float:
        return self._cell[0].item()

    @value.setter
    def value(self, new: float) -> None:
        self._cell[0] = new


class _ShmAsyncVariable(AsyncVariable):
    """Full/empty variable over [int64 flag, float64 value] cells.

    The operations are :class:`AsyncVariable`'s, run under the bus
    with the state read and written through the arena views.
    """

    __slots__ = ("_force", "_flag", "_cell")

    def __init__(self, force: "ProcessForce", name: str,
                 flag: np.ndarray, value: np.ndarray) -> None:
        self._force = force
        self._name = name
        self._flag = flag
        self._cell = value
        self._condition = force._bus
        self._probe = force._probe
        self._injector = force._injector

    @property
    def _full(self) -> bool:
        return bool(self._flag[0])

    @_full.setter
    def _full(self, full: bool) -> None:
        self._flag[0] = full

    @property
    def _value(self) -> float:
        return self._cell[0].item()

    @_value.setter
    def _value(self, value: Any) -> None:
        self._cell[0] = value

    def _wait(self, predicate: Callable[[], bool],
              timeout: float | None) -> bool:
        what = f"asyncvar '{self._name}'" if self._name else "asyncvar"
        return self._force._await(predicate, what, timeout=timeout)


class _ShmAsyncArray(AsyncArray):
    """Array of full/empty cells over the arena."""

    def __init__(self, cells: list[_ShmAsyncVariable]) -> None:
        self._cells = cells


# askfor control-word indices
_AF_HEAD, _AF_TAIL, _AF_DONE, _AF_PUT, _AF_GOT, _AF_DEPTH = range(6)
_AF_CTRL = 8


class _ShmAskforMonitor(AskforMonitor):
    """Askfor monitor over a shared numeric ring.

    :class:`~repro.runtime.askfor.AskforMonitor`'s ``put``/``get``
    over the arena: the same termination/drain contract — ``get``
    drains queued items before declaring termination, a ``put`` after
    termination raises, and a worker that dies holding an item is
    detected through the pid table (dead-holder hazard) and poisons
    the force with :class:`ForceWorkerDied`.
    """

    def __init__(self, force: "ProcessForce", name: str,
                 ctrl: np.ndarray, holder: np.ndarray,
                 ring: np.ndarray) -> None:
        self._force = force
        self._name = name
        self._ctrl = ctrl
        self._holder = holder
        self._ring = ring
        self._condition = force._bus
        self._probe = force._probe
        self._injector = force._injector

    # -- counters (shared, so every process sees the same totals) ------
    @property
    def total_put(self) -> int:
        return int(self._ctrl[_AF_PUT])

    @property
    def total_got(self) -> int:
        return int(self._ctrl[_AF_GOT])

    @property
    def max_depth(self) -> int:
        return int(self._ctrl[_AF_DEPTH])

    # -- the pool protocol (bus held) ----------------------------------
    def _depth(self) -> int:
        return int(self._ctrl[_AF_TAIL] - self._ctrl[_AF_HEAD])

    def _append(self, item: float) -> int:
        if self._ctrl[_AF_DONE]:
            raise ForceError("putwork after the pool terminated")
        if self._depth() >= len(self._ring):
            raise ForceError(
                f"askfor '{self._name}': shared ring full "
                f"({len(self._ring)} outstanding items)")
        self._ring[int(self._ctrl[_AF_TAIL]) % len(self._ring)] = item
        self._ctrl[_AF_TAIL] += 1
        self._ctrl[_AF_PUT] += 1
        if self._depth() > self._ctrl[_AF_DEPTH]:
            self._ctrl[_AF_DEPTH] = self._depth()
        return self._depth()

    def _wake(self) -> None:
        self._condition.notify_all()

    def _release_mine(self) -> None:
        me = self._force._resolve_me(None)
        if self._holder[me - 1]:
            self._holder[me - 1] = 0
            self._condition.notify_all()

    def _check(self) -> None:
        self._force._check_poison()

    def _ready(self) -> bool:
        return self._depth() > 0 or bool(self._ctrl[_AF_DONE]) or \
            int(self._holder.sum()) == 0

    def _await_ready(self) -> None:
        self._force._await(self._ready, self._describe(),
                           hazard=self._dead_holder_hazard)

    def _take(self) -> tuple[bool, Any]:
        if self._depth() > 0:
            self._holder[self._force._resolve_me(None) - 1] = 1
            self._ctrl[_AF_GOT] += 1
            item = self._ring[int(self._ctrl[_AF_HEAD])
                              % len(self._ring)].item()
            self._ctrl[_AF_HEAD] += 1
            return True, item
        self._ctrl[_AF_DONE] = 1
        self._condition.notify_all()
        return False, None

    def _dead_holder_hazard(self) -> ForceWorkerDied | None:
        """A holder process that died strands the pool: poison it."""
        force = self._force
        for other in range(1, force.nproc + 1):
            if not self._holder[other - 1]:
                continue
            if other in force._dead_workers():
                self._holder[other - 1] = 0
                if self._probe is not None:
                    self._probe.event("askfor", self._name, "dead-holder",
                                      proc=other)
                return ForceWorkerDied(
                    other, self._describe(),
                    detail="died while holding a work item")
        return None


# selfsched record indices
_SL_PHASE, _SL_INSIDE, _SL_NEXT, _SL_CHUNK, _SL_SCHED = range(5)
_SL_WORDS = 8


class _ShmSelfschedLoop(_SelfschedLoop):
    """Selfscheduled-loop protocol over an arena record.

    :class:`repro.runtime.force._SelfschedLoop`'s ``iterate`` — entry
    phase, shared-index dispatch, exit phase in a ``finally`` (skipped
    on injected death by design, so peers detect the stranded protocol
    through the dead-worker hazard) — over the bus and the record.
    """

    def __init__(self, force: "ProcessForce", label: str,
                 record: np.ndarray) -> None:
        self.nproc = force.nproc
        self._force = force
        self._label = label
        self._record = record
        self._probe = force._probe
        self._injector = force._injector
        self._dead_check = force._dead_workers

    @property
    def chunk(self) -> int:
        return int(self._record[_SL_CHUNK])

    @property
    def schedule(self) -> str:
        return _SCHEDULES[int(self._record[_SL_SCHED])]

    def _enter(self, first: int) -> None:
        force, record = self._force, self._record
        with force._bus:
            force._await(lambda: record[_SL_PHASE] == 0,
                         self._describe(), hazard=self._dead_hazard)
            if record[_SL_INSIDE] == 0:
                record[_SL_NEXT] = first
            record[_SL_INSIDE] += 1
            if record[_SL_INSIDE] == self.nproc:
                record[_SL_PHASE] = 1
                force._bus.notify_all()

    def _claim(self, last: int, step: int) -> tuple[int, int] | None:
        force, record = self._force, self._record
        with force._bus:
            force._check_poison()
            value = int(record[_SL_NEXT])
            size = self._size(value, last, step)
            if size == 0:
                return None
            record[_SL_NEXT] = value + size * step
            return value, size

    def _leave(self) -> None:
        force, record = self._force, self._record
        with force._bus:
            force._await(lambda: record[_SL_PHASE] == 1,
                         self._describe(), hazard=self._dead_hazard)
            record[_SL_INSIDE] -= 1
            if record[_SL_INSIDE] == 0:
                record[_SL_PHASE] = 0
                force._bus.notify_all()


class _ShmLock(LockWord):
    """A critical section's lock word in the arena, under the bus."""

    __slots__ = ("_force", "_cell", "_what")

    def __init__(self, force: "ProcessForce", cell: np.ndarray,
                 name: str) -> None:
        self._force = force
        self._cell = cell
        self._what = f"critical '{name}'"

    def try_acquire(self) -> bool:
        with self._force._bus:
            self._force._check_poison()
            if self._cell[0]:
                return False
            self._cell[0] = 1
            return True

    def acquire(self) -> None:
        with self._force._bus:
            self._force._await(lambda: self._cell[0] == 0, self._what)
            self._cell[0] = 1

    def release(self) -> None:
        with self._force._bus:
            self._cell[0] = 0
            self._force._bus.notify_all()


class ProcessForce(Force):
    """A Force whose members are OS processes over shared memory.

    Constructed through ``Force(nproc, backend="process")``; see the
    module docstring for the contract.
    """

    #: default arena size — generous for the example corpus, still a
    #: rounding error against /dev/shm defaults
    ARENA_BYTES = 1 << 24

    def __init__(self, nproc: int, *, backend: str = "process",
                 arena_bytes: int | None = None, **kwargs: Any) -> None:
        if backend != "process":
            raise ForceError(
                "ProcessForce only implements the 'process' backend")
        self._arena_bytes = arena_bytes or self.ARENA_BYTES
        super().__init__(nproc, backend="process", **kwargs)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        super()._reset_state()
        self._arena: SharedArena | None = None
        self._bus = None
        self._queue = None
        self._procs: list = []
        self._proc_me: int | None = None
        self._merged_injected: list = []
        #: askfor pool totals, read off the arena before it is unlinked
        self._pool_totals: list[PoolTotals] = []
        #: final-state snapshot captured just before the arena is
        #: unlinked (the arena does not outlive run())
        self._final_state_doc: dict[str, Any] | None = None
        # In the parent, the injector built by super()._reset_state()
        # is a placeholder: each worker builds its own over the arena.
        # The parent's probe is where the workers' probes are folded.
        self._injector = None

    def _setup_shared(self, ctx) -> None:
        """Create the arena, control words and the result queue."""
        arena = SharedArena(size=self._arena_bytes)
        self._arena = arena
        self._bus = ctx.Condition(ctx.RLock())
        self._queue = ctx.Queue()
        nproc = self.nproc
        self._poison_v = arena.alloc_view(2)        # [flag, errlen]
        self._error_off = arena.alloc(_ERROR_CAPACITY)
        self._barrier_v = arena.alloc_view(2)       # [count, sense]
        self._epoch_v = arena.alloc_view(1)         # barrier epoch
        self._epoch_v[0] = self._barrier_epoch
        self._pids_v = arena.alloc_view(nproc)
        self._shipped_v = arena.alloc_view(1)
        deaths_off = arena.alloc(nproc * _SITE_BYTES)
        self._deaths_v = arena.view(deaths_off, nproc,
                                    f"S{_SITE_BYTES}")
        self._deaths_v[:] = b""
        names_off = arena.alloc(_REGISTRY_CAPACITY * _NAME_BYTES)
        self._registry_names = arena.view(names_off,
                                          _REGISTRY_CAPACITY,
                                          f"S{_NAME_BYTES}")
        self._registry_names[:] = b""
        self._registry_meta = arena.alloc_view(_REGISTRY_CAPACITY * 2)
        if self._fault_plan is not None:
            count = len(self._fault_plan.faults)
            self._fault_hits = arena.alloc_view(max(count, 1))
            self._fault_fired = arena.alloc_view(max(count, 1))

    # ------------------------------------------------------------------
    # poison / cancellation (cross-process CancelToken semantics)
    # ------------------------------------------------------------------
    def _load_error(self) -> BaseException | None:
        if self._arena is None or not self._poison_v[0]:
            return None
        length = int(self._poison_v[1])
        if length <= 0:
            return ForceError("force cancelled (unrecorded error)")
        raw = bytes(self._arena.view(self._error_off, length,
                                     np.uint8))
        try:
            return pickle.loads(raw)
        except Exception:       # pragma: no cover - defensive
            return ForceError("force cancelled (undecodable error)")

    def _poison_locked(self, error: BaseException) -> None:
        """Record the first failure (bus held); idempotent."""
        if self._poison_v[0]:
            return
        try:
            raw = pickle.dumps(error)
        except Exception:
            raw = pickle.dumps(ForceError(str(error)))
        if len(raw) > _ERROR_CAPACITY:
            raw = pickle.dumps(ForceError(str(error)[:1024]))
        view = self._arena.view(self._error_off, len(raw), np.uint8)
        view[:] = np.frombuffer(raw, dtype=np.uint8)
        self._poison_v[1] = len(raw)
        self._poison_v[0] = 1
        self._bus.notify_all()

    def _poison(self, error: BaseException) -> None:
        with self._bus:
            self._poison_locked(error)

    def _check_poison(self) -> None:
        if self._poison_v[0]:
            raise ForceCancelled(self._load_error())

    def _await(self, predicate: Callable[[], bool], what: str, *,
               hazard: Callable[[], BaseException | None] | None = None,
               timeout: float | None = None) -> bool:
        """Poison-aware wait on the bus (bus must be held).

        Mirrors :meth:`CancelToken.wait_for`: bounded revalidation
        slices, hazard checks, and the construct deadline raising a
        structured :class:`ForceDeadlockError` (explicit ``timeout``
        returns False instead).
        """
        if timeout is not None:
            deadline, is_construct = monotonic() + timeout, False
        elif self.construct_timeout is not None:
            deadline = monotonic() + self.construct_timeout
            is_construct = True
        else:
            deadline, is_construct = None, False
        interval = self.revalidate_interval
        cap = interval * REVALIDATE_CAP_FACTOR
        next_slice = interval
        while True:
            self._check_poison()
            if predicate():
                return True
            if hazard is not None:
                error = hazard()
                if error is not None:
                    self._poison_locked(error)
                    raise error
            slice_ = next_slice
            next_slice = min(cap, next_slice * REVALIDATE_GROWTH)
            if deadline is not None:
                remaining = deadline - monotonic()
                if remaining <= 0:
                    if is_construct:
                        error = ForceDeadlockError(
                            f"construct deadline of "
                            f"{self.construct_timeout}s exceeded "
                            f"while parked on {what} "
                            "(deadlock or dead partner?)",
                            construct=what,
                            timeout=self.construct_timeout)
                        self._poison_locked(error)
                        raise error
                    return False
                slice_ = min(slice_, remaining)
            self._bus.wait(slice_)

    # ------------------------------------------------------------------
    # worker liveness
    # ------------------------------------------------------------------
    def _current_me(self) -> int | None:
        if self._proc_me is not None:
            return self._proc_me
        return super()._current_me()

    def _dead_workers(self) -> list[int]:
        dead = set()
        if self._arena is None:
            return []
        for me in range(1, self.nproc + 1):
            if self._deaths_v[me - 1] != b"":
                dead.add(me)
                continue
            pid = int(self._pids_v[me - 1])
            if pid and not _pid_alive(pid):
                dead.add(me)
        return sorted(dead)

    def _death_sites(self) -> dict[int, str]:
        return {me: self._deaths_v[me - 1].decode("ascii", "replace")
                for me in range(1, self.nproc + 1)
                if self._deaths_v[me - 1] != b""}

    # ------------------------------------------------------------------
    # shared-object registry
    # ------------------------------------------------------------------
    def _locate(self, key: str, kind: int,
                creator: Callable[[], int]) -> int:
        """Find or create a named arena object; returns its offset.

        ``creator`` runs under the bus lock, so allocation order (and
        hence every process's view of the arena) is consistent no
        matter which worker touches a name first.
        """
        if self._arena is None:
            raise ForceError(
                "process-backend shared objects exist only inside "
                "run()")
        encoded = key.encode("utf-8")
        if len(encoded) >= _NAME_BYTES:
            raise ForceError(
                f"shared-object name too long ({key!r}); the process "
                f"backend allows {_NAME_BYTES - 1} bytes")
        names = self._registry_names
        meta = self._registry_meta
        with self._bus:
            for index in range(_REGISTRY_CAPACITY):
                if names[index] == encoded:
                    have = int(meta[2 * index])
                    if have != kind:
                        raise ForceError(
                            f"shared object {key!r} already exists as "
                            f"{_KIND_LABEL.get(have, have)}, not "
                            f"{_KIND_LABEL.get(kind, kind)}")
                    return int(meta[2 * index + 1])
                if names[index] == b"":
                    offset = creator()
                    meta[2 * index] = kind
                    meta[2 * index + 1] = offset
                    names[index] = encoded
                    return offset
        raise ForceError(
            f"shared-object registry full ({_REGISTRY_CAPACITY} "
            "names)")

    def _registry_entries(self, kind: int) -> list[tuple[str, int]]:
        out = []
        for index in range(_REGISTRY_CAPACITY):
            raw = self._registry_names[index]
            if raw == b"":
                break
            if int(self._registry_meta[2 * index]) == kind:
                out.append((raw.decode("utf-8"),
                            int(self._registry_meta[2 * index + 1])))
        return out

    # ------------------------------------------------------------------
    # constructs
    # ------------------------------------------------------------------
    def _barrier_arrive(self, me: int,
                        section: Callable[[], None] | None) -> bool:
        bar = self._barrier_v
        with self._bus:
            self._check_poison()
            sense = int(bar[1])
            bar[0] += 1
            if bar[0] == self.nproc:
                if section is not None:
                    section()
                policy = self._checkpoint
                if policy is not None:
                    # Every peer is parked on the bus: the quiescent
                    # cut.  Count the episode; snapshot every n-th.
                    self._epoch_v[0] += 1
                    epoch = int(self._epoch_v[0])
                    if epoch % policy.every_n_barriers == 0:
                        self._write_checkpoint(epoch)
                bar[0] = 0
                bar[1] = 1 - sense
                self._bus.notify_all()
                return True
            self._await(lambda: int(bar[1]) != sense, "barrier",
                        hazard=self._barrier_hazard)
            return False

    # ------------------------------------------------------------------
    # checkpoint / restore (over the arena)
    # ------------------------------------------------------------------
    def _apply_restore(self) -> None:
        """Deferred: the arena does not exist at ``_reset_state`` time.

        :meth:`run` applies the restore right after ``_setup_shared``
        (pre-fork, so every worker inherits the restored arena).
        """

    def _apply_restore_arena(self) -> None:
        super()._apply_restore()

    @property
    def barrier_epoch(self) -> int:
        if self._arena is not None:
            return int(self._epoch_v[0])
        return self._barrier_epoch

    def capture_state(self) -> dict[str, Any]:
        """Snapshot the arena (live) or the final-state doc (post-run).

        The arena does not outlive :meth:`run`, so after a completed
        run this returns the snapshot captured just before unlink —
        available whenever a checkpoint policy was armed.
        """
        if self._arena is None:
            if self._final_state_doc is not None:
                return self._final_state_doc
            raise CheckpointError(
                "no state to capture: the process backend's arena "
                "exists only inside run() (arm a checkpoint policy "
                "to keep the final state)")
        return build_checkpoint(epoch=self.barrier_epoch,
                                nproc=self.nproc, backend=self.backend,
                                constructs=self._capture_shared())

    def _capture_shared(self) -> list[dict[str, Any]]:
        """Serialize every registered arena construct.

        Callers hold the bus or run at quiescence (barrier episode,
        post-join parent): registry and payloads are stable.
        """
        if self._arena is None:
            raise CheckpointError(
                "process-backend shared state exists only inside "
                "run()")
        arena = self._arena
        entries: list[dict[str, Any]] = []
        for key, offset in self._registry_entries(_K_COUNTER):
            cell = arena.view(offset, 1, np.float64)
            entries.append(counter_entry(key[2:], cell[0].item()))
        for key, offset in self._registry_entries(_K_ARRAY):
            header = arena.view(offset, 6)
            dtype = np.dtype(_DTYPES[int(header[0])])
            shape = tuple(int(header[2 + axis])
                          for axis in range(int(header[1])))
            count = int(np.prod(shape)) if shape else 1
            data = arena.view(offset + 6 * 8, count, dtype)
            entries.append(array_entry(key[2:], data.reshape(shape)))
        for key, offset in self._registry_entries(_K_ASYNC):
            full = bool(arena.view(offset, 1)[0])
            value = arena.view(offset + 8, 1, np.float64)[0].item() \
                if full else None
            entries.append(asyncvar_entry(key[2:], full, value))
        for key, offset in self._registry_entries(_K_ASYNC_ARRAY):
            size = int(arena.view(offset, 1)[0])
            cells = []
            for index in range(size):
                base = offset + 8 + 16 * index
                full = bool(arena.view(base, 1)[0])
                cells.append((full,
                              arena.view(base + 8, 1,
                                         np.float64)[0].item()
                              if full else None))
            entries.append(asyncarray_entry(key[2:], cells))
        for key, ctrl_off in self._registry_entries(_K_ASKFOR):
            ctrl = arena.view(ctrl_off, _AF_CTRL)
            ring_off = ctrl_off + (_AF_CTRL + self.nproc) * 8
            ring = arena.view(ring_off, _ASKFOR_RING, np.float64)
            items = [ring[index % _ASKFOR_RING].item()
                     for index in range(int(ctrl[_AF_HEAD]),
                                        int(ctrl[_AF_TAIL]))]
            entries.append(askfor_entry(
                key[2:], items,
                total_put=int(ctrl[_AF_PUT]),
                total_got=int(ctrl[_AF_GOT]),
                max_depth=int(ctrl[_AF_DEPTH]),
                done=bool(ctrl[_AF_DONE])))
        # Criticals are free and selfsched loops are between uses at
        # a quiescent cut: nothing of theirs needs snapshotting.
        return entries

    def _materialize_shared(self, doc: dict[str, Any]) -> None:
        """Rebuild arena constructs from a snapshot (any nproc).

        Runs parent-side through the public creators, so the registry
        and allocation order are exactly what a fresh run would build.
        """
        for entry in doc["payload"]["constructs"]:
            name, kind = entry["name"], entry["kind"]
            try:
                self._materialize_one(name, kind, entry)
            except (ForceError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"cannot restore {kind} {name!r} into the "
                    f"process backend: {exc}") from exc

    def _materialize_one(self, name: str, kind: str,
                         entry: dict[str, Any]) -> None:
        if kind == "counter":
            self.shared_counter(name, initial=entry["value"])
        elif kind == "array":
            array = decode_array(entry)
            view = self.shared_array(name, array.shape,
                                     dtype=array.dtype)
            np.copyto(view, array)
        elif kind == "asyncvar":
            var = self.async_var(name)
            if entry["full"]:
                var._value = entry["value"]
                var._full = True
        elif kind == "asyncarray":
            cells = entry["cells"]
            shadow = self.async_array(name, len(cells))
            for cell, (full, value) in zip(shadow._cells, cells):
                if full:
                    cell._value = value
                    cell._full = True
        elif kind == "askfor":
            pool = self.askfor(name, initial=list(entry["items"]))
            ctrl = pool._ctrl
            ctrl[_AF_PUT] = int(entry["total_put"])
            ctrl[_AF_GOT] = int(entry["total_got"])
            ctrl[_AF_DEPTH] = int(entry["max_depth"])
            ctrl[_AF_DONE] = 1 if entry["done"] else 0
        else:   # pragma: no cover - gated by validate_checkpoint
            raise CheckpointError(f"unknown construct kind {kind!r}")

    def _barrier_hazard(self) -> ForceWorkerDied | None:
        dead = self._dead_workers()
        if dead:
            return ForceWorkerDied(
                min(dead), "barrier",
                detail="the barrier episode cannot complete")
        return None

    def _critical_lock(self, name: str) -> _ShmLock:
        offset = self._locate(f"k:{name}", _K_CRITICAL,
                              lambda: self._arena.alloc(8))
        return _ShmLock(self, self._arena.view(offset, 1), name)

    def selfsched_range(self, label: str, first: int, last: int,
                        step: int = 1, *, chunk: int = 1,
                        schedule: str | None = None) -> Iterator[int]:
        if chunk < 1:
            raise ForceError("selfsched chunk must be >= 1")
        if schedule is None:
            schedule = "chunked" if chunk > 1 else "self"
        if schedule not in _SCHEDULES:
            raise ForceError(
                f"unknown selfsched schedule {schedule!r}: "
                "expected 'self', 'chunked' or 'guided'")
        if schedule == "self" and chunk != 1:
            raise ForceError(
                "schedule 'self' hands out one iteration at a time; "
                "use schedule='chunked' with chunk > 1")

        def create() -> int:
            offset = self._arena.alloc(_SL_WORDS * 8)
            record = self._arena.view(offset, _SL_WORDS)
            record[:] = 0
            record[_SL_CHUNK] = chunk
            record[_SL_SCHED] = _SCHEDULES.index(schedule)
            return offset

        offset = self._locate(f"l:{label}", _K_LOOP, create)
        record = self._arena.view(offset, _SL_WORDS)
        loop = _ShmSelfschedLoop(self, label, record)
        if loop.chunk != chunk or loop.schedule != schedule:
            raise ForceError(
                f"selfsched '{label}': conflicting policy "
                f"(existing {loop.schedule!r} chunk={loop.chunk}, "
                f"requested {schedule!r} chunk={chunk})")
        return loop.iterate(first, last, step)

    def askfor(self, name: str,
               initial: list | None = None) -> _ShmAskforMonitor:
        items = list(initial or [])

        def create() -> int:
            ctrl_off = self._arena.alloc(
                (_AF_CTRL + self.nproc) * 8)
            ctrl = self._arena.view(ctrl_off, _AF_CTRL + self.nproc)
            ctrl[:] = 0
            ring_off = self._arena.alloc(_ASKFOR_RING * 8)
            ring = self._arena.view(ring_off, _ASKFOR_RING,
                                    np.float64)
            for index, item in enumerate(items):
                ring[index] = item
            ctrl[_AF_TAIL] = len(items)
            ctrl[_AF_PUT] = len(items)
            ctrl[_AF_DEPTH] = len(items)
            return ctrl_off

        ctrl_off = self._locate(f"s:{name}", _K_ASKFOR, create)
        ctrl = self._arena.view(ctrl_off, _AF_CTRL + self.nproc)
        holder = ctrl[_AF_CTRL:]
        # The ring was allocated immediately after the control block.
        ring_off = ctrl_off + (_AF_CTRL + self.nproc) * 8
        ring = self._arena.view(ring_off, _ASKFOR_RING, np.float64)
        return self._cache(name, _ShmAskforMonitor, self, name,
                           ctrl[:_AF_CTRL], holder, ring)

    def resolve(self, name: str, weights: dict[str, float]):
        raise ForceError(
            "resolve is not supported by the process backend")

    def shared_counter(self, name: str,
                       initial: Any = 0) -> _ShmCounter:
        def create() -> int:
            offset = self._arena.alloc(8)
            self._arena.view(offset, 1, np.float64)[0] = initial
            return offset

        offset = self._locate(f"s:{name}", _K_COUNTER, create)
        return self._cache(name, _ShmCounter,
                           self._arena.view(offset, 1, np.float64))

    def shared_array(self, name: str, shape,
                     dtype=np.float64) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        resolved = np.dtype(dtype)
        code = _DTYPE_CODES.get(resolved)
        if code is None:
            raise ForceError(
                f"process-backend shared arrays must be numeric "
                f"(got dtype {resolved})")
        if len(shape) > 4:
            raise ForceError("shared arrays support up to 4 dims")
        count = int(np.prod(shape)) if shape else 1

        def create() -> int:
            header_off = self._arena.alloc(6 * 8)
            header = self._arena.view(header_off, 6)
            header[0] = code
            header[1] = len(shape)
            for axis, extent in enumerate(shape):
                header[2 + axis] = extent
            data_off = self._arena.alloc(
                count * resolved.itemsize, align=8)
            data = self._arena.view(data_off, count, resolved)
            data[:] = 0
            return header_off

        header_off = self._locate(f"s:{name}", _K_ARRAY, create)
        header = self._arena.view(header_off, 6)
        stored_code = int(header[0])
        stored_shape = tuple(int(header[2 + axis])
                             for axis in range(int(header[1])))
        stored_dtype = np.dtype(_DTYPES[stored_code])
        stored_count = int(np.prod(stored_shape)) \
            if stored_shape else 1
        data_off = header_off + 6 * 8
        data = self._arena.view(data_off, stored_count, stored_dtype)
        return data.reshape(stored_shape)

    def async_var(self, name: str) -> _ShmAsyncVariable:
        def create() -> int:
            offset = self._arena.alloc(16)
            self._arena.view(offset, 2)[:] = 0
            return offset

        offset = self._locate(f"s:{name}", _K_ASYNC, create)
        return self._cache(
            name, _ShmAsyncVariable, self, name,
            self._arena.view(offset, 1),
            self._arena.view(offset + 8, 1, np.float64))

    def async_array(self, name: str, size: int) -> _ShmAsyncArray:
        if size <= 0:
            raise ForceError("AsyncArray size must be positive")

        def create() -> int:
            # Word 0 records the cell count so a checkpoint capture
            # can walk the cells from the registry offset alone.
            offset = self._arena.alloc(8 + 16 * size)
            self._arena.view(offset, 1)[0] = size
            self._arena.view(offset + 8, 2 * size)[:] = 0
            return offset

        offset = self._locate(f"s:{name}", _K_ASYNC_ARRAY, create)
        stored = int(self._arena.view(offset, 1)[0])
        if stored != size:
            raise ForceError(
                f"async_array '{name}' already exists with "
                f"{stored} cells, not {size}")
        cells = [
            _ShmAsyncVariable(
                self, f"{name}[{index}]",
                self._arena.view(offset + 8 + 16 * index, 1),
                self._arena.view(offset + 8 + 16 * index + 8, 1,
                                 np.float64))
            for index in range(size)
        ]
        return self._cache(name, _ShmAsyncArray, cells)

    def _cache(self, name: str, cls, *args) -> Any:
        """Per-process proxy cache (the arena state is the truth)."""
        with self._registry_lock:
            obj = self._shared.get(name)
            if obj is None or not isinstance(obj, cls):
                obj = cls(*args)
                self._shared[name] = obj
            return obj

    # ------------------------------------------------------------------
    # running a program
    # ------------------------------------------------------------------
    def run(self, program: Callable[..., Any], *args: Any) -> None:
        try:
            pickle.dumps((program, args))
        except Exception as exc:
            raise ForceError(
                "the process backend requires a picklable program "
                f"and arguments: {exc}") from exc
        self._reset_state()
        ctx = multiprocessing.get_context("fork")
        # Reclaim arenas orphaned by a killed parent before allocating
        # a fresh one; the owner-pid guard keeps live forces safe.
        sweep_stale_arenas()
        self._setup_shared(ctx)
        if self._restore_doc is not None:
            self._apply_restore_arena()
        procs = [ctx.Process(target=self._worker,
                             args=(me, program, args),
                             name=f"force-{me}", daemon=True)
                 for me in range(1, self.nproc + 1)]
        self._procs = procs
        payloads: list = []
        try:
            for proc in procs:
                proc.start()
            deadline = None if self.timeout is None \
                else monotonic() + self.timeout
            while True:
                self._drain(payloads)
                if all(not proc.is_alive() for proc in procs):
                    break
                if deadline is not None and monotonic() > deadline:
                    break
                sleep(0.005)
            # Post-join grace: the queue feeder flushes before a
            # worker bumps its shipped counter, so wait (briefly)
            # until every shipped payload arrived.
            grace = monotonic() + 2.0
            while len(payloads) < int(self._shipped_v[0]) and \
                    monotonic() < grace:
                self._drain(payloads)
                sleep(0.005)
            self._drain(payloads)
            self._absorb(payloads)
            failure = self._load_error()
            alive = [proc.name for proc in procs if proc.is_alive()]
            deaths = self._death_sites()
            if failure is not None:
                raise failure
            if alive:
                error = ForceDeadlockError(
                    f"force did not terminate within {self.timeout}s "
                    "(deadlock or missing barrier partner?); still "
                    "alive: " + ", ".join(alive),
                    construct=", ".join(alive), timeout=self.timeout)
                self._poison(error)
                raise error
            if deaths:
                me_dead = min(deaths)
                raise ForceWorkerDied(
                    me_dead, deaths[me_dead],
                    detail="the run completed but the dead process's "
                           "work is missing")
            for me, proc in enumerate(procs, start=1):
                if proc.exitcode not in (0, None):
                    raise ForceWorkerDied(
                        me, "worker process",
                        detail=f"exit status {proc.exitcode}")
            # Run completed clean: keep the final state past the
            # arena's lifetime (the differential oracle compares it).
            self._barrier_epoch = int(self._epoch_v[0])
            if self._checkpoint is not None:
                self._final_state_doc = build_checkpoint(
                    epoch=self._barrier_epoch, nproc=self.nproc,
                    backend=self.backend,
                    constructs=self._capture_shared())
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=1.0)
            if self._queue is not None:
                self._queue.close()
                self._queue = None
            if self._arena is not None:
                self._arena.close()
                self._arena.unlink()
                self._arena = None

    def _drain(self, payloads: list) -> None:
        while True:
            try:
                payloads.append(self._queue.get_nowait())
            except queue_module.Empty:
                return
            except (EOFError, OSError):    # pragma: no cover
                return

    def _absorb(self, payloads: list) -> None:
        """Fold the workers' probe payloads and fault records."""
        self._pool_totals = []
        for key, offset in self._registry_entries(_K_ASKFOR):
            ctrl = self._arena.view(offset, _AF_CTRL)
            self._pool_totals.append((
                key[2:],    # strip the "s:" namespace prefix
                int(ctrl[_AF_PUT]), int(ctrl[_AF_GOT]),
                int(ctrl[_AF_DEPTH])))
        injected: list = []
        for _me, shipped, records in sorted(payloads,
                                            key=lambda p: p[0]):
            if shipped is not None:
                self._probe.absorb(shipped)
            injected.extend(records)
        self._merged_injected = injected

    def _worker(self, me: int, program: Callable[..., Any],
                args: tuple) -> None:
        self._proc_me = me
        # The injector and askfor resolve process ids from the thread
        # name, exactly as in the thread backend.
        threading.current_thread().name = f"force-{me}"
        self._pids_v[me - 1] = os.getpid()
        self._shared = {}
        self._criticals = {}
        self._loops = {}
        if self._probe is not None:
            self._probe = self._probe.child()
        if self._fault_plan is not None:
            self._injector = _SharedHitInjector(
                self._fault_plan, probe=self._probe,
                hits=self._fault_hits, fired=self._fault_fired,
                bus=self._bus)
        died = self._run_member(me, program, args)
        self._ship(me)
        if died:
            os._exit(0)

    def _record_death(self, me: int, site: str) -> None:
        encoded = site.encode("ascii", "replace")
        self._deaths_v[me - 1] = encoded[:_SITE_BYTES - 1] or b"?"

    def _fail(self, error: ForceError) -> None:
        self._poison(error)

    def _ship(self, me: int) -> None:
        """Send this worker's probe payload and fault records to the
        parent."""
        probe = self._probe
        records = list(self._injector.injected) \
            if self._injector is not None else []
        try:
            self._queue.put((me, None if probe is None
                             else probe.payload(), records))
            self._queue.close()
            self._queue.join_thread()
        except Exception:       # pragma: no cover - queue torn down
            return
        with self._bus:
            self._shipped_v[0] += 1

    # ------------------------------------------------------------------
    # observability (parent side)
    # ------------------------------------------------------------------
    def _askfor_totals(self) -> list[PoolTotals]:
        return self._pool_totals

    def injected_faults(self):
        return list(self._merged_injected)
