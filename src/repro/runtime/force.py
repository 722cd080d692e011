"""The native Force: global parallelism over real threads.

One :class:`Force` instance executes one *program* — a callable of
``(force, me)`` — on ``nproc`` threads, mirroring the paper's model:
work is not assigned to specific processes but distributed over the
whole force by the constructs; variables are either shared (named
objects obtained from the force) or private (ordinary locals).

Failure semantics: the first process to raise poisons the whole force
through a shared :class:`~repro.runtime.cancel.CancelToken`.  Peers
blocked in any construct (barrier, critical, selfsched entry/exit,
askfor ``get``, async-variable wait) wake promptly with
``ForceCancelled``; :meth:`Force.run` re-raises the *original*
:class:`ForceProgramError` instead of reporting a join timeout.

Observability: ``Force(nproc, stats=True)`` records per-construct
counters and wait times, exposed via :attr:`Force.stats` (a view of
the run's folded metrics registry) and :meth:`Force.stats_report`
(rendered by :mod:`repro.runtime.stats`).  ``Force(nproc,
trace=True)`` records a structured event stream (see
:mod:`repro.trace`) — barrier episodes, critical wait/hold spans,
selfscheduled chunks, askfor traffic, full/empty blocking — exported
via :meth:`Force.trace_events` to Chrome-trace/JSONL/text; with
``watchdog_interval=seconds`` a stall watchdog reports which process
is parked on which construct whenever the stream goes quiet.
``metrics=True`` fills a metrics registry.  All three sit behind one
:class:`~repro.runtime.probe.Probe` (None when all are off): each
interception point makes one ``probe is None`` test, and the
constructs' instrumentation lives here once, for both backends — the
process backend supplies only its wait primitives.

Robustness: ``Force(nproc, construct_timeout=seconds)`` bounds every
*blocking construct wait* — a process parked longer raises a
structured :class:`~repro._util.errors.ForceDeadlockError` naming the
construct (and poisons the force) instead of hanging until the global
join timeout.  ``Force(nproc, inject=FaultPlan(...))`` arms the
deterministic fault injector (see :mod:`repro.faults`) at the same
interception points the probe uses; a process killed by an
injected ``die`` fault is detected by askfor/selfsched peers, which
poison the force with :class:`~repro._util.errors.ForceWorkerDied`
naming the dead process and the stranded construct.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from time import monotonic
from typing import Any, Callable, Iterator

import numpy as np

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.faults.injector import FaultInjector, InjectedDeath
from repro.faults.plan import FaultPlan
from repro.obsv.metrics import MetricsRegistry
from repro.runtime.askfor import AskforMonitor
from repro.runtime.asyncvar import AsyncArray, AsyncVariable
from repro.runtime.barriers import Barrier, make_barrier
from repro.runtime.cancel import (
    REVALIDATE_INTERVAL,
    CancelToken,
    ForceCancelled,
)
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    array_entry,
    askfor_entry,
    asyncarray_entry,
    asyncvar_entry,
    build_checkpoint,
    counter_entry,
    decode_array,
    load_checkpoint,
    validate_checkpoint,
    write_checkpoint,
)
from repro.runtime.probe import LockWord, PoolTotals, Probe
from repro.runtime.resolve import Resolve
from repro.runtime.stats import render_stats
from repro.trace.collector import TraceCollector
from repro.trace.events import TraceEvent
from repro.trace.watchdog import StallWatchdog


class ForceProgramError(ForceError):
    """A process of the force raised; carries the original exception."""

    def __init__(self, me: int, original: BaseException) -> None:
        self.me = me
        self.original = original
        super().__init__(f"process {me} failed: {original!r}")

    def __reduce__(self):
        # BaseException's default __reduce__ would replay our derived
        # message as the two positional args; rebuild from the real
        # fields so the process backend can pickle failures.
        return (ForceProgramError, (self.me, self.original))


class SharedCounter:
    """A shared scalar cell (update it inside a critical section)."""

    __slots__ = ("value",)

    def __init__(self, value: Any = 0) -> None:
        self.value = value


class _SelfschedLoop:
    """One selfscheduled loop instance: the paper's entry/exit protocol.

    Entry admits processes until all have arrived, the first arrival
    initialising the shared index; the exit phase opens only once every
    process has entered, so a fast process cannot re-enter the loop
    (in an enclosing iteration) before slow ones arrive.

    The exit protocol runs in a ``finally`` so that a consumer that
    ``break``s out of the generator early (``GeneratorExit``) still
    leaves the loop — otherwise ``_inside`` stays incremented and every
    later entry with the same label deadlocks.

    :meth:`iterate` is written once over three primitives — ``_enter``,
    ``_claim`` and ``_leave`` — that the process backend implements
    over an arena record.
    """

    def __init__(self, nproc: int, *,
                 cancel: CancelToken | None = None,
                 probe: Probe | None = None,
                 injector: FaultInjector | None = None,
                 dead_check: Callable[[], list[int]] | None = None,
                 label: str = "",
                 chunk: int = 1,
                 schedule: str = "self") -> None:
        self.nproc = nproc
        self.chunk = chunk
        self.schedule = schedule
        self._condition = threading.Condition()
        self._phase = "entry"
        self._inside = 0
        self._next = 0
        self._cancel = cancel
        self._probe = probe
        self._injector = injector
        self._dead_check = dead_check
        self._label = label
        if cancel is not None:
            cancel.register(self._condition)

    def _describe(self) -> str:
        return f"selfsched '{self._label}'" if self._label \
            else "selfsched"

    def _dead_hazard(self) -> ForceWorkerDied | None:
        """A dead force member can never complete the entry/exit
        protocol: poison the loop instead of waiting forever."""
        if self._dead_check is None:
            return None
        dead = self._dead_check()
        if dead:
            return ForceWorkerDied(
                min(dead), self._describe(),
                detail="the loop protocol cannot complete")
        return None

    def _wait_for(self, predicate: Callable[[], bool]) -> None:
        """Wait (condition held) until predicate; poison-aware."""
        if self._cancel is None:
            while not predicate():
                self._condition.wait()
        else:
            self._cancel.wait_for(self._condition, predicate,
                                  what=self._describe(),
                                  hazard=self._dead_hazard)

    def _size(self, value: int, last: int, step: int) -> int:
        """Indices the next chunk from ``value`` gets (0: exhausted)."""
        if step > 0:
            remaining = (last - value) // step + 1 if value <= last else 0
        else:
            remaining = (last - value) // step + 1 if value >= last else 0
        if remaining <= 0:
            return 0
        size = max(1, remaining // self.nproc) \
            if self.schedule == "guided" else self.chunk
        return min(size, remaining)

    def _enter(self, first: int) -> None:
        with self._condition:
            self._wait_for(lambda: self._phase == "entry")
            if self._inside == 0:
                self._next = first
            self._inside += 1
            if self._inside == self.nproc:
                self._phase = "exit"
                self._condition.notify_all()

    def _claim(self, last: int, step: int) -> tuple[int, int] | None:
        """The next chunk as (first index, size); None when done."""
        with self._condition:
            if self._cancel is not None:
                self._cancel.check()
            value = self._next
            size = self._size(value, last, step)
            if size == 0:
                return None
            self._next = value + size * step
            return value, size

    def _leave(self) -> None:
        with self._condition:
            self._wait_for(lambda: self._phase == "exit")
            self._inside -= 1
            if self._inside == 0:
                self._phase = "entry"
                self._condition.notify_all()

    def iterate(self, first: int, last: int, step: int) -> Iterator[int]:
        if step == 0:
            raise ForceError("selfsched step must be nonzero")
        probe = self._probe
        if probe is None:
            self._enter(first)
        else:
            probe.wait("selfsched", self._label, self._enter, first)
        try:
            while True:
                claimed = self._claim(last, step)
                if claimed is None:
                    break
                value, size = claimed
                if probe is not None:
                    probe.chunk(self._label, value, size)
                if self._injector is not None:
                    self._injector.fire("selfsched.chunk", self._label)
                for offset in range(size):
                    yield value + offset * step
        finally:
            if isinstance(sys.exc_info()[1], InjectedDeath):
                # Abrupt injected death: no cleanup by design.  The
                # stranded entry/exit state is what the dead-worker
                # hazard above must detect in the surviving processes.
                pass
            elif probe is None:
                self._leave()
            else:
                probe.wait("selfsched", self._label, self._leave)


class _CriticalLock(LockWord):
    """A named critical section's lock (thread backend)."""

    __slots__ = ("_lock", "_cancel", "_what")

    def __init__(self, cancel: CancelToken, name: str) -> None:
        self._lock = threading.Lock()
        self._cancel = cancel
        self._what = f"critical '{name}'"

    def try_acquire(self) -> bool:
        return self._lock.acquire(blocking=False)

    def acquire(self) -> None:
        self._cancel.acquire(self._lock, what=self._what)

    def release(self) -> None:
        self._lock.release()


class Force:
    """A force of ``nproc`` processes executing one program.

    Process identifiers run 1..nproc, as in the Force.  All named
    shared objects (counters, arrays, async variables, queues, loops)
    are created on first use and shared by name.

    ``backend`` selects the execution vehicle: ``"thread"`` (default)
    runs the force on daemon threads in this process; ``"process"``
    returns a :class:`~repro.runtime.procforce.ProcessForce` whose
    members are real OS processes over POSIX shared memory — same API,
    true multi-core execution, but programs and their arguments must be
    picklable.
    """

    def __new__(cls, nproc: int = 1, *args: Any, **kwargs: Any) -> "Force":
        backend = kwargs.get("backend", "thread")
        if backend not in ("thread", "process"):
            raise ForceError(
                f"unknown backend {backend!r}: expected 'thread' or "
                "'process'")
        if cls is Force and backend == "process":
            from repro.runtime.procforce import ProcessForce
            return object.__new__(ProcessForce)
        return object.__new__(cls)

    def __init__(self, nproc: int, *,
                 backend: str = "thread",
                 barrier_algorithm: str = "central-counter",
                 timeout: float | None = 60.0,
                 construct_timeout: float | None = None,
                 stats: bool = False,
                 metrics: bool = False,
                 trace: bool = False,
                 trace_capacity: int = 65536,
                 inject: FaultPlan | None = None,
                 watchdog_interval: float | None = None,
                 watchdog_sink: Callable[[str], None] | None = None,
                 checkpoint: CheckpointPolicy | None = None,
                 restore: dict | str | None = None,
                 revalidate_interval: float = REVALIDATE_INTERVAL) -> None:
        if nproc < 1:
            raise ForceError("a force needs at least one process")
        if construct_timeout is not None and construct_timeout <= 0:
            raise ForceError("construct_timeout must be positive")
        if revalidate_interval <= 0:
            raise ForceError("revalidate_interval must be positive")
        self.nproc = nproc
        self.backend = backend
        self.timeout = timeout
        self.construct_timeout = construct_timeout
        self.revalidate_interval = revalidate_interval
        self._barrier_algorithm = barrier_algorithm
        self._stats_enabled = stats
        self._metrics_enabled = metrics
        self._trace_enabled = trace
        self._trace_capacity = trace_capacity
        self._fault_plan = inject
        self._watchdog_interval = watchdog_interval
        self._watchdog_sink = watchdog_sink
        self._checkpoint = checkpoint
        if isinstance(restore, str):
            restore = load_checkpoint(restore)
        elif restore is not None:
            problems = validate_checkpoint(restore)
            if problems:
                raise CheckpointError(
                    f"restore document is invalid: {problems[0]}")
        self._restore_doc = restore
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        self._reset_state()

    def _reset_state(self) -> None:
        self._cancel = CancelToken(
            construct_timeout=self.construct_timeout,
            revalidate_interval=self.revalidate_interval)
        observed = self._stats_enabled or self._metrics_enabled \
            or self._trace_enabled
        self._probe: Probe | None = Probe(
            self.nproc,
            counting=self._stats_enabled or self._metrics_enabled,
            trace=self._trace_enabled,
            trace_capacity=self._trace_capacity) if observed else None
        self._injector: FaultInjector | None = \
            FaultInjector(self._fault_plan, probe=self._probe) \
            if self._fault_plan is not None else None
        self._barrier: Barrier = make_barrier(self._barrier_algorithm,
                                              self.nproc,
                                              cancel=self._cancel)
        self._criticals: dict[str, _CriticalLock] = {}
        self._shared: dict[str, Any] = {}
        self._loops: dict[str, _SelfschedLoop] = {}
        self._failures: list[ForceError] = []
        self._threads: dict[int, threading.Thread] = {}
        #: me -> site of an (injected) abrupt death, no cleanup done
        self._deaths: dict[int, str] = {}
        #: completed barrier episodes (counted only while a checkpoint
        #: policy is armed); a restored run continues the snapshot's
        #: numbering so every-n scheduling stays aligned across resume
        self._barrier_epoch = int(self._restore_doc["epoch"]) \
            if self._restore_doc is not None else 0
        if self._restore_doc is not None:
            self._apply_restore()

    def _apply_restore(self) -> None:
        """Re-materialize the restore snapshot into this run's state.

        Called from :meth:`_reset_state` on the thread backend (the
        heap registry exists immediately); the process backend defers
        this until its shared-memory arena is set up.
        """
        self._materialize_shared(self._restore_doc)
        if self._probe is not None:
            self._probe.event(
                "recover", "checkpoint", "restore",
                epoch=self._barrier_epoch,
                snapshot_nproc=int(self._restore_doc["nproc"]),
                nproc=self.nproc)

    # ------------------------------------------------------------------
    # running a program
    # ------------------------------------------------------------------
    def run(self, program: Callable[["Force", int], Any],
            *args: Any) -> None:
        """Execute ``program(force, me, *args)`` on every process.

        The first failing process wins: its exception is wrapped in
        :class:`ForceProgramError`, the force is poisoned so blocked
        peers unwind promptly, and that original error is re-raised
        here.  ``timeout`` bounds the *whole* join, not each thread.
        """
        self._reset_state()
        token = self._cancel

        def body(me: int) -> None:
            self._local.me = me
            try:
                self._run_member(me, program, args)
            finally:
                self._local.me = None

        watchdog = None
        if self._trace_enabled and self._watchdog_interval is not None:
            watchdog = StallWatchdog(self._probe.tracer,
                                     self._watchdog_interval,
                                     sink=self._watchdog_sink)
            watchdog.start()
        threads = [threading.Thread(target=body, args=(me,),
                                    name=f"force-{me}", daemon=True)
                   for me in range(1, self.nproc + 1)]
        self._threads = {me: thread for me, thread
                         in enumerate(threads, start=1)}
        try:
            for thread in threads:
                thread.start()
            deadline = None if self.timeout is None \
                else monotonic() + self.timeout
            for thread in threads:
                thread.join(None if deadline is None
                            else max(0.0, deadline - monotonic()))
        finally:
            if watchdog is not None:
                watchdog.stop()
        alive = [thread.name for thread in threads if thread.is_alive()]
        structured = (ForceProgramError, ForceDeadlockError,
                      ForceWorkerDied)
        failure = token.error if isinstance(token.error, structured) \
            else (self._failures[0] if self._failures else None)
        if failure is not None:
            raise failure
        if alive:
            parked = self._probe.tracer.parked() \
                if self._trace_enabled else {}
            still = []
            for name in alive:
                kind_name = parked.get(name)
                if kind_name is not None:
                    kind, construct = kind_name
                    where = f"{kind} '{construct}'" if construct else kind
                    still.append(f"{name} (parked on {where})")
                else:
                    still.append(name)
            error = ForceDeadlockError(
                f"force did not terminate within {self.timeout}s "
                "(deadlock or missing barrier partner?); still alive: "
                + ", ".join(still),
                construct=", ".join(still), timeout=self.timeout)
            # Poison the force so the stragglers unwind instead of
            # sitting parked in their constructs forever.
            token.cancel(error)
            raise error
        if self._deaths:
            # Every process terminated, but at least one died abruptly
            # without doing its share: the result cannot be trusted.
            # A structured error beats silent corruption.
            me_dead = min(self._deaths)
            raise ForceWorkerDied(
                me_dead, self._deaths[me_dead],
                detail="the run completed but the dead process's work "
                       "is missing")

    def _run_member(self, me: int, program: Callable[..., Any],
                    args: tuple) -> bool:
        """Run one member's program; True iff it died an injected death.

        The member's start and end are probe sites.  Its first failure
        poisons the force through :meth:`_fail`; an injected death
        vanishes without poisoning the force or cleaning construct
        state — surviving processes must *detect* it (dead-holder /
        dead-partner hazards, construct deadlines).
        """
        probe = self._probe
        if probe is not None:
            probe.start(me)
        try:
            program(self, me, *args)
        except ForceCancelled:
            pass   # a peer failed first; unwind quietly
        except InjectedDeath as death:
            self._record_death(me, death.spec.site)
            if probe is not None:
                probe.event("fault", death.spec.site, "death", proc=me)
            return True
        except (ForceDeadlockError, ForceWorkerDied) as exc:
            # Structured runtime verdicts: already propagated by
            # whoever detected the condition; recorded unwrapped so
            # run() re-raises them as-is.
            self._fail(exc)
        except BaseException as exc:   # noqa: BLE001 - run() reports it
            self._fail(ForceProgramError(me, exc))
        finally:
            if probe is not None:
                probe.end(me)
        return False

    def _record_death(self, me: int, site: str) -> None:
        with self._registry_lock:
            self._deaths[me] = site

    def _fail(self, error: ForceError) -> None:
        """Record a member's failure and poison the force."""
        with self._registry_lock:
            self._failures.append(error)
        self._cancel.cancel(error)

    def _current_me(self) -> int | None:
        """This thread's process id, inside :meth:`run` (else None)."""
        return getattr(self._local, "me", None)

    def _dead_workers(self) -> list[int]:
        """Process ids that died abruptly (or exited without finishing
        a construct protocol their peers are still parked in).

        A thread that was never started has ``ident is None`` and does
        not count; a thread that finished *normally* counts only while
        a peer is actually blocked on it — which, for the construct
        protocols that consult this, already implies it quit without
        doing its part.
        """
        with self._registry_lock:
            dead = set(self._deaths)
        for me, thread in self._threads.items():
            if thread.ident is not None and not thread.is_alive():
                dead.add(me)
        return sorted(dead)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def _resolve_me(self, me: int | None) -> int:
        if me is not None:
            return me
        current = self._current_me()
        if current is not None:
            return current
        if self.nproc == 1:
            return 1
        raise ForceError(
            "barrier() called outside a force process; pass me explicitly")

    # -- checkpointing at the consistent cut ---------------------------
    def _episode_hook(self, user_section: Callable[[], None] | None = None
                      ) -> Callable[[], None] | None:
        """The single-process body run inside each barrier episode.

        With a checkpoint policy armed, the body counts the episode
        and — every n-th one — serializes the shared state right
        there, while every peer is still parked in the episode (the
        quiescent cut).  Returns None when nothing needs to run, so
        the plain ``wait`` path stays section-free.
        """
        if user_section is None and self._checkpoint is None:
            return None

        def section() -> None:
            if user_section is not None:
                user_section()
            policy = self._checkpoint
            if policy is not None:
                self._barrier_epoch += 1
                if self._barrier_epoch % policy.every_n_barriers == 0:
                    self._write_checkpoint(self._barrier_epoch)
        return section

    def _run_episode(self, me: int, section: Callable[[], None]) -> bool:
        """Arrive with a section; True iff *this* process ran it.

        ``Barrier.run_section`` implementations disagree on their
        return value, so releasing is detected through the per-caller
        closure: the section runs in exactly one process, inside that
        process's own call frame.
        """
        ran: list[bool] = []

        def wrapped() -> None:
            section()
            ran.append(True)

        self._barrier.run_section(me, wrapped)
        return bool(ran)

    def _write_checkpoint(self, epoch: int) -> None:
        """Serialize shared state (caller is inside the episode)."""
        doc = build_checkpoint(epoch=epoch, nproc=self.nproc,
                               backend=self.backend,
                               constructs=self._capture_shared())
        path = write_checkpoint(self._checkpoint.dir, doc)
        if self._probe is not None:
            self._probe.checkpoint(os.path.basename(path), epoch,
                                   os.path.getsize(path))

    @property
    def checkpoint_policy(self) -> CheckpointPolicy | None:
        return self._checkpoint

    @property
    def barrier_epoch(self) -> int:
        """Completed barrier episodes (counted while checkpointing)."""
        return self._barrier_epoch

    def capture_state(self) -> dict[str, Any]:
        """Snapshot the current shared state as a checkpoint document.

        Meaningful at quiescence only — before :meth:`run`, after it
        returned, or inside a barrier section.  This is the
        differential-oracle entry point: two runs whose captured
        ``sha256`` digests agree have bitwise-identical shared state.
        """
        return build_checkpoint(epoch=self._barrier_epoch,
                                nproc=self.nproc, backend=self.backend,
                                constructs=self._capture_shared())

    def _capture_shared(self) -> list[dict[str, Any]]:
        entries: list[dict[str, Any]] = []
        with self._registry_lock:
            shared = dict(self._shared)
        for name, obj in shared.items():
            if isinstance(obj, SharedCounter):
                entries.append(counter_entry(name, obj.value))
            elif isinstance(obj, np.ndarray):
                entries.append(array_entry(name, obj))
            elif isinstance(obj, AsyncVariable):
                entries.append(asyncvar_entry(name, obj._full,
                                              obj._value))
            elif isinstance(obj, AsyncArray):
                entries.append(asyncarray_entry(
                    name, [(cell._full, cell._value)
                           for cell in obj._cells]))
            elif isinstance(obj, AskforMonitor):
                entries.append(askfor_entry(
                    name, list(obj._items),
                    total_put=obj.total_put,
                    total_got=obj.total_got,
                    max_depth=obj.max_depth,
                    done=obj._done))
            else:
                raise CheckpointError(
                    f"shared object {name!r} "
                    f"({type(obj).__name__}) cannot be checkpointed")
        return entries

    def _materialize_shared(self, doc: dict[str, Any]) -> None:
        """Rebuild the heap registry from a snapshot (any nproc)."""
        for entry in doc["payload"]["constructs"]:
            name, kind = entry["name"], entry["kind"]
            obj: Any
            if kind == "counter":
                obj = SharedCounter(entry["value"])
            elif kind == "array":
                obj = decode_array(entry)
            elif kind == "asyncvar":
                obj = AsyncVariable(entry["value"],
                                    full=entry["full"],
                                    cancel=self._cancel,
                                    probe=self._probe,
                                    injector=self._injector,
                                    name=name)
            elif kind == "asyncarray":
                cells = entry["cells"]
                obj = AsyncArray(len(cells), cancel=self._cancel,
                                 probe=self._probe,
                                 injector=self._injector, name=name)
                for cell, (full, value) in zip(obj._cells, cells):
                    cell._full = bool(full)
                    cell._value = value
            elif kind == "askfor":
                obj = AskforMonitor(list(entry["items"]),
                                    cancel=self._cancel,
                                    probe=self._probe,
                                    injector=self._injector,
                                    name=name)
                obj.total_put = int(entry["total_put"])
                obj.total_got = int(entry["total_got"])
                obj.max_depth = int(entry["max_depth"])
                obj._done = bool(entry["done"])
            else:   # pragma: no cover - gated by validate_checkpoint
                raise CheckpointError(
                    f"unknown construct kind {kind!r}")
            with self._registry_lock:
                self._shared[name] = obj

    def barrier(self, me: int | None = None) -> None:
        """Wait for the whole force (§3.4).

        ``me`` defaults to the calling process's own id (tracked per
        thread by :meth:`run`) — the structured barrier algorithms
        need a *valid* id, as each process owns distinct flag slots.
        """
        me = self._resolve_me(me)
        if self._arrive(me, None) and self._injector is not None:
            self._injector.fire("barrier.episode", "barrier", me)

    def barrier_section(self, me: int,
                        section: Callable[[], None]) -> None:
        """Barrier whose section runs exactly once, before release."""
        self._arrive(self._resolve_me(me), section)

    def _arrive(self, me: int,
                section: Callable[[], None] | None) -> bool:
        """One barrier arrival (a probe site); True iff this process
        released the episode."""
        if self._injector is not None:
            self._injector.fire("barrier.entry", "barrier", me)
        probe = self._probe
        if probe is None:
            return self._barrier_arrive(me, section)
        return probe.barrier(self._barrier_arrive, me, section)

    def _barrier_arrive(self, me: int,
                        section: Callable[[], None] | None) -> bool:
        """The backend's barrier wait: ``section`` (and any checkpoint
        due) runs in one process before release; True in that one."""
        hook = self._episode_hook(section)
        if hook is None:
            return self._barrier.wait(me)
        return self._run_episode(me, hook)

    def _critical_lock(self, name: str) -> LockWord:
        """The backend's lock word for critical section ``name``."""
        with self._registry_lock:
            # Check-then-insert, NOT setdefault(name, _CriticalLock()):
            # setdefault evaluates its default eagerly, allocating (and
            # discarding) a fresh lock on every pass through an already
            # -registered section — churn on the hot path, while holding
            # the registry lock.
            lock = self._criticals.get(name)
            if lock is None:
                lock = _CriticalLock(self._cancel, name)
                self._criticals[name] = lock
        return lock

    @contextmanager
    def critical(self, name: str = "default"):
        """Named critical section: mutual exclusion across the force."""
        lock = self._critical_lock(name)
        injector = self._injector
        if injector is not None:
            injector.fire("critical.acquire", name)
        probe = self._probe
        with lock if probe is None else probe.lock("critical", name, lock):
            if injector is not None:
                # Lock held: a delay here is a slow holder, a raise
                # kills the holder (the lock is released on unwind).
                injector.fire("critical.hold", name)
            yield

    # ------------------------------------------------------------------
    # work distribution
    # ------------------------------------------------------------------
    def presched_range(self, me: int, first: int, last: int,
                       step: int = 1) -> Iterator[int]:
        """Prescheduled DOALL: cyclic index distribution, no sync."""
        if step == 0:
            raise ForceError("presched step must be nonzero")
        value = first + (me - 1) * step
        stride = self.nproc * step
        while (step > 0 and value <= last) or \
                (step < 0 and value >= last):
            yield value
            value += stride

    def selfsched_range(self, label: str, first: int, last: int,
                        step: int = 1, *, chunk: int = 1,
                        schedule: str | None = None) -> Iterator[int]:
        """Selfscheduled DOALL: indices handed out on demand.

        ``label`` identifies the loop (like the statement label in the
        Force); all processes must use the same label for one loop.

        ``schedule`` picks the dispatch policy: ``"self"`` hands out one
        iteration per critical-section acquisition (the paper's §4.2
        expansion), ``"chunked"`` claims ``chunk`` iterations at a time,
        and ``"guided"`` claims ``max(1, remaining // nproc)``.  When
        ``schedule`` is omitted it defaults to ``"chunked"`` if
        ``chunk > 1``, else ``"self"``.  All processes must agree on the
        policy for a given label.
        """
        if chunk < 1:
            raise ForceError("selfsched chunk must be >= 1")
        if schedule is None:
            schedule = "chunked" if chunk > 1 else "self"
        if schedule not in ("self", "chunked", "guided"):
            raise ForceError(
                f"unknown selfsched schedule {schedule!r}: "
                "expected 'self', 'chunked' or 'guided'")
        if schedule == "self" and chunk != 1:
            raise ForceError(
                "schedule 'self' hands out one iteration at a time; "
                "use schedule='chunked' with chunk > 1")
        with self._registry_lock:
            loop = self._loops.get(label)
            if loop is None:
                loop = _SelfschedLoop(self.nproc, cancel=self._cancel,
                                      probe=self._probe,
                                      injector=self._injector,
                                      dead_check=self._dead_workers,
                                      label=label,
                                      chunk=chunk,
                                      schedule=schedule)
                self._loops[label] = loop
            elif loop.chunk != chunk or loop.schedule != schedule:
                raise ForceError(
                    f"selfsched '{label}': conflicting policy "
                    f"(existing {loop.schedule!r} chunk={loop.chunk}, "
                    f"requested {schedule!r} chunk={chunk})")
        return loop.iterate(first, last, step)

    def presched_pairs(self, me: int, outer: range,
                       inner: range) -> Iterator[tuple[int, int]]:
        """Prescheduled doubly-nested DOALL over index pairs."""
        pairs = len(outer) * len(inner)
        width = len(inner)
        for k in range(me - 1, pairs, self.nproc):
            yield outer[k // width], inner[k % width]

    def pcase(self, me: int, *sections) -> None:
        """Prescheduled Pcase: section k runs on process k mod nproc.

        Each section is a callable, or a ``(condition, callable)`` pair
        for a conditional section (``Csect``).
        """
        for k, section in enumerate(sections):
            if isinstance(section, tuple):
                condition, body = section
                enabled = condition() if callable(condition) \
                    else bool(condition)
            else:
                body, enabled = section, True
            if enabled and k % self.nproc == (me - 1):
                body()

    def askfor(self, name: str, initial: list | None = None
               ) -> AskforMonitor:
        """The named Askfor work pool (created on first use)."""
        return self._get_shared(
            name, lambda: AskforMonitor(initial, cancel=self._cancel,
                                        probe=self._probe,
                                        injector=self._injector,
                                        name=name))

    def resolve(self, name: str, weights: dict[str, float]) -> Resolve:
        """Partition the force into weighted components (extension)."""
        return self._get_shared(
            name, lambda: Resolve(self.nproc, weights, cancel=self._cancel))

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def shared_counter(self, name: str, initial: Any = 0) -> SharedCounter:
        """A named shared scalar (guard updates with ``critical``)."""
        return self._get_shared(name, lambda: SharedCounter(initial))

    def shared_array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A named shared numpy array (zero-initialised)."""
        return self._get_shared(name, lambda: np.zeros(shape, dtype=dtype))

    def async_var(self, name: str) -> AsyncVariable:
        """A named asynchronous (full/empty) variable."""
        return self._get_shared(
            name, lambda: AsyncVariable(cancel=self._cancel,
                                        probe=self._probe,
                                        injector=self._injector,
                                        name=name))

    def async_array(self, name: str, size: int) -> AsyncArray:
        """A named array of full/empty cells."""
        return self._get_shared(
            name, lambda: AsyncArray(size, cancel=self._cancel,
                                     probe=self._probe,
                                     injector=self._injector,
                                     name=name))

    def _get_shared(self, name: str, factory: Callable[[], Any]) -> Any:
        with self._registry_lock:
            obj = self._shared.get(name)
            if obj is None:
                obj = factory()
                self._shared[name] = obj
            return obj

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def stats_enabled(self) -> bool:
        return self._stats_enabled

    @property
    def trace_enabled(self) -> bool:
        return self._trace_enabled

    @property
    def metrics_enabled(self) -> bool:
        return self._metrics_enabled

    @property
    def trace_collector(self) -> TraceCollector | None:
        """The run's collector (None unless ``trace=True``)."""
        return None if self._probe is None else self._probe.tracer

    @property
    def trace_dropped(self) -> int:
        """Events lost to ring-buffer overflow (0 when trace is off)."""
        return self._probe.dropped if self._trace_enabled else 0

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The armed fault plan (None unless ``inject=`` was given)."""
        return self._fault_plan

    @property
    def injector(self) -> FaultInjector | None:
        """The last run's fault injector (None without a plan)."""
        return self._injector

    def injected_faults(self):
        """Faults the last run actually executed, in firing order."""
        return list(self._injector.injected) \
            if self._injector is not None else []

    def trace_events(self) -> list[TraceEvent]:
        """The recorded event stream, merged and time-ordered."""
        if not self._trace_enabled:
            raise ForceError(
                "trace collection is off; create Force(..., trace=True)")
        return self._probe.events()

    def _askfor_totals(self) -> list[PoolTotals]:
        """Every askfor pool's totals (pools know them only at the end)."""
        with self._registry_lock:
            return [(name, obj.total_put, obj.total_got, obj.max_depth)
                    for name, obj in self._shared.items()
                    if isinstance(obj, AskforMonitor)]

    @property
    def stats(self) -> dict[str, Any] | None:
        """Snapshot of collected stats (None unless ``stats=True``):
        a view of every process's metrics folded into one registry."""
        if not self._stats_enabled:
            return None
        return self._probe.stats(self._askfor_totals())

    def stats_report(self) -> str:
        """Human-readable rendering of :attr:`stats`."""
        snapshot = self.stats
        if snapshot is None:
            raise ForceError(
                "stats collection is off; create Force(..., stats=True)")
        return render_stats(snapshot)

    def metrics_registry(self, *,
                         wall_s: float | None = None) -> MetricsRegistry:
        """The run's metrics registry, with end-of-run gauges settled.

        Askfor pool gauges are sampled here (pools only know their
        totals after the run), and ``wall_s`` — when the caller timed
        the run — lands as ``force_run_wall_seconds``.
        """
        if not self._metrics_enabled:
            raise ForceError(
                "metrics collection is off; create Force(..., metrics=True)")
        return self._probe.registry(self._askfor_totals(), wall_s=wall_s)
