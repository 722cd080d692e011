"""The discrete-event scheduler: simulated processors with clocks.

A conservative event loop: always resume the process with the smallest
clock, so every shared-memory interaction resolves in deterministic
simulated-time order (ties broken by push order).  The steps of a
repeated :class:`Cost` are applied in bulk, in exactly the order their
one-at-a-time pops would take (see :meth:`Scheduler._apply_steps`).
Lock waits cost
what the machine's lock type says they cost (§4.1.3):

* **spin** — the waiting CPU burns cycles until the release;
* **syscall** — the OS parks the process (syscall overhead at block
  time, context switch at wake);
* **combined** — spin up to the machine's limit, then take the OS path;
* **hardware full/empty** — near-free waiting in the memory pipeline.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from operator import itemgetter
from time import monotonic
from typing import Any, Callable, Hashable, Iterator

from repro._util.errors import SimDeadlockError, SimulationError
from repro.machines.model import LockType, MachineModel
from repro.sim.events import (
    AcquireLock,
    Block,
    Cost,
    Halt,
    HaltSim,
    ReleaseLock,
    Spawn,
    Wake,
)
from repro.sim.lock import SimLock


#: a trace keeps the first 100,000 events, three fields each
_MAX_TRACE_FIELDS = 3 * 100_000

#: the wall-clock deadline is read each time the event count crosses a
#: multiple of this
_DEADLINE_STRIDE = 4096


def _step_key(clock: int, cycles: int, seq: int, j: int) -> tuple:
    """Heap position of step ``j`` of a run of equal steps.

    Step 0 is the run's heap entry when a bulk application starts,
    with its sequence number ``seq``.  Step ``j > 0`` is pushed when
    step ``j - 1`` pops, with a fresh sequence number: at an equal
    clock it pops after every entry already in the heap (``0 < 1``),
    and among pushed steps in the order their parents popped.  That is
    the parent with the smaller clock (more cycles per step) first; at
    equal cycles, the run that started later first, since its parents
    reach its start clock as the old entry there; at equal starts, the
    smaller starting sequence number first.  A zero-cycle run never
    leaves its clock, so its step ``j`` pops in round ``j``.
    """
    if j == 0:
        return (clock, 0, seq)
    return (clock + j * cycles, 1, -cycles, -clock if cycles else j, seq)


def _steps_before(clock: int, cycles: int, seq: int, left: int,
                  stop: tuple) -> int:
    """How many of a run's ``left`` steps pop before the key ``stop``."""
    until = stop[0]
    if clock > until:
        return 0
    if cycles:
        n = min(left, (until - clock + cycles - 1) // cycles)
    else:
        n = left if clock < until else 0
    # steps at the stop's own clock: at most one unless zero-cycle
    while n < left and _step_key(clock, cycles, seq, n) < stop:
        n += 1
    return n


def trace_triples(fields: list) -> list[tuple[int, str, str]]:
    """Pair up a flat trace into ``(time, process, text)`` triples."""
    values = iter(fields)
    return list(zip(values, values, values))


class ProcState(Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


class SimProcess:
    """One simulated process (usually one per processor in the Force
    model; with more processes than processors they time-share)."""

    __slots__ = ("pid", "name", "gen", "clock", "state", "block_start",
                 "blocked_on", "on_exit", "busy_cycles", "on_cpu",
                 "ever_scheduled", "pending")

    def __init__(self, pid: int, name: str, gen: Iterator) -> None:
        self.pid = pid
        self.name = name or f"p{pid}"
        self.gen = gen
        self.clock = 0
        self.state = ProcState.READY
        self.block_start = 0
        self.blocked_on: Any = None
        self.on_exit: Callable[["SimProcess"], None] | None = None
        self.busy_cycles = 0
        self.on_cpu = False
        self.ever_scheduled = False
        #: (cycles, statements, steps left, heap sequence number) of a
        #: repeated Cost whose steps are still to be applied
        self.pending: tuple[int, int, int, int] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimProcess {self.name} t={self.clock} "
                f"{self.state.value}>")


@dataclass
class SimStats:
    """Aggregate results of one simulation run."""

    makespan: int = 0
    total_busy: int = 0
    #: source statements executed (Cost events carry exact counts even
    #: when the codegen tier batches straight-line runs and kernels)
    statements: int = 0
    spin_cycles: int = 0
    context_switches: int = 0
    lock_acquisitions: int = 0
    contended_acquisitions: int = 0
    processes: int = 0
    events: int = 0
    halted: bool = False
    halt_message: str | None = None
    per_process_clock: dict[str, int] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Busy fraction of processor-time across the run."""
        if self.makespan == 0 or self.processes == 0:
            return 0.0
        return self.total_busy / (self.makespan * self.processes)


class Scheduler:
    """Runs simulated processes against one machine model."""

    def __init__(self, machine: MachineModel, *,
                 max_events: int = 20_000_000,
                 trace: bool = False,
                 processors: int | None = None,
                 deadline: float | None = None) -> None:
        """``processors`` bounds how many processes advance
        concurrently (run-to-block multiplexing, no preemption).
        ``None`` means unlimited — one ideal CPU per process, the
        measurement mode for algorithm-property experiments.

        With a finite capacity, spin-lock waiters *keep their
        processor* while waiting (that is what spinning is), syscall
        and passive waiters release it, and a combined lock releases
        after its spin budget.  Over-subscribing a spin-lock machine
        can therefore genuinely deadlock — the hazard that made
        one-process-per-processor the Force's operating point.

        ``deadline`` bounds the run in *wall-clock seconds*: a
        simulation still churning past it raises
        :class:`SimDeadlockError` (livelock/runaway guard for
        ``force run --deadline``).
        """
        self.machine = machine
        self.max_events = max_events
        self.deadline = deadline
        self.trace_enabled = trace
        #: the trace, flat: time, process name and text of each event in
        #: turn.  Recording stores three references and allocates no
        #: tuple; :attr:`trace` pairs them up when read.
        self.trace_fields: list = []
        self.stats = SimStats()
        self._heap: list[tuple[int, int, SimProcess]] = []
        #: processes part-way through a repeated Cost: their steps wait
        #: here, not in the heap, and :meth:`_apply_steps` applies them
        self._stepping: list[SimProcess] = []
        #: ``(clock, seq)`` of the earliest step in ``_stepping`` (stale
        #: while ``_stepping`` is empty)
        self._step_front: tuple[int, int] = (0, 0)
        self._seq = count()
        self._pids = count(1)
        self._procs: list[SimProcess] = []
        self._wait_queues: dict[Hashable, deque[SimProcess]] = {}
        self._halted = False
        self._lock_count = 0
        self.processors = processors
        self._cpu_free: list[int] = [0] * processors if processors \
            else []
        #: READY processes parked because every processor is granted
        self._cpu_waiters: deque[SimProcess] = deque()

    # ------------------------------------------------------------------
    # process and lock management
    # ------------------------------------------------------------------
    def spawn(self, gen: Iterator, name: str = "",
              start_time: int = 0,
              on_exit: Callable[[SimProcess], None] | None = None
              ) -> SimProcess:
        proc = SimProcess(next(self._pids), name, gen)
        proc.clock = start_time
        proc.on_exit = on_exit
        self._procs.append(proc)
        self._push(proc)
        self.stats.processes += 1
        self._trace(proc, "spawned")
        return proc

    def new_lock(self, name: str = "") -> SimLock:
        """Create a lock, enforcing scarcity where the machine has it."""
        limit = self.machine.lock_limit
        if limit and self._lock_count >= limit:
            raise SimulationError(
                f"{self.machine.name}: lock limit of {limit} exhausted "
                "(locks are a scarce resource on this machine)")
        self._lock_count += 1
        return SimLock(name=name)

    def set_lock_state(self, lock: SimLock, locked: bool,
                       at_time: int) -> None:
        """Force a lock's state (Void / init-to-empty semantics).

        Unlocking with waiters present hands the lock to the first
        waiter, as a normal release would.
        """
        if locked:
            lock.locked = True
            return
        if lock.waiters:
            waiter = lock.waiters.popleft()
            grant_time = max(at_time, waiter.block_start)
            self._charge_wait(waiter, grant_time)
            waiter.state = ProcState.READY
            waiter.blocked_on = None
            self._push(waiter)
        else:
            lock.locked = False

    def wake_key(self, key: Hashable, at_time: int,
                 all_waiters: bool = False) -> None:
        """Wake waiters on ``key`` (used by process exit callbacks)."""
        queue = self._wait_queues.get(key)
        if not queue:
            return
        to_wake = list(queue) if all_waiters else [queue[0]]
        for proc in to_wake:
            queue.remove(proc)
            self._unblock(proc, at_time)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimStats:
        events = 0
        wall_limit = None if self.deadline is None \
            else monotonic() + self.deadline
        next_check = 0
        heap = self._heap
        stepping = self._stepping
        while (heap or stepping) and not self._halted:
            if stepping and (not heap or self._step_front < heap[0]):
                events = self._apply_steps(events)
            if wall_limit is not None and events >= next_check:
                if monotonic() > wall_limit:
                    raise SimDeadlockError(
                        f"simulation exceeded its {self.deadline}s "
                        f"wall-clock deadline after {events} events "
                        "(livelock or runaway program?)")
                next_check = events - events % _DEADLINE_STRIDE \
                    + _DEADLINE_STRIDE
            clock, _seq, proc = heapq.heappop(heap)
            if proc.state is not ProcState.READY or proc.clock != clock:
                continue   # stale heap entry
            if self.processors and not proc.on_cpu:
                if not self._cpu_free:
                    # Every processor granted: park until one frees.
                    self._cpu_waiters.append(proc)
                    continue
                available = heapq.heappop(self._cpu_free)
                proc.on_cpu = True
                proc.ever_scheduled = True
                if available > proc.clock:
                    # The processor frees later: wait, then re-sort.
                    proc.clock = available
                    self._push(proc)
                    continue
            events += 1
            if events > self.max_events:
                raise self._event_limit()
            try:
                event = next(proc.gen)
            except StopIteration:
                self._finish(proc)
                continue
            self._dispatch(proc, event)
        self.stats.events = events
        if not self._halted:
            blocked = [p for p in self._procs
                       if p.state is ProcState.BLOCKED]
            if blocked or self._cpu_waiters:
                detail = ", ".join(
                    f"{p.name} on {self._describe_blocker(p)}"
                    for p in blocked[:8])
                starved = len(self._cpu_waiters)
                extra = (f"; {starved} runnable but starved of a "
                         "processor (spin waiters hold every CPU?)"
                         if starved else "")
                raise SimDeadlockError(
                    f"deadlock: {len(blocked)} processes blocked "
                    f"({detail}){extra}")
        self._finalize_stats()
        return self.stats

    def _event_limit(self) -> SimulationError:
        return SimulationError(
            f"simulation exceeded {self.max_events} events "
            "(livelock or runaway program?)")

    def _apply_steps(self, events: int) -> int:
        """Apply every pending step that pops before the next heap
        entry that is not a step; return the new event count.

        A step only advances its own process, so the steps could be
        popped one at a time, each pushing its process back with a
        fresh sequence number.  This applies them in bulk instead and
        gives each advanced process one fresh sequence number, in the
        order its last step would have been pushed (:func:`_step_key`):
        the heap then holds the same entries in the same tie order.
        The batch stops at the first pop that is not a step: the
        heap's front, or the end of a run (whose process then resumes
        its generator).  Every step still counts as one event.
        """
        heap = self._heap
        stepping = self._stepping
        if len(stepping) == 1:
            # One run, whose entry is the front: a step it pushes pops
            # before the heap's front only at a smaller clock, as the
            # front is older.
            proc = stepping[0]
            cycles, _statements, left, _seq = proc.pending
            n = left
            if heap:
                gap = heap[0][0] - proc.clock
                if gap == 0:
                    n = 1
                elif cycles and gap < left * cycles:
                    n = -(-gap // cycles)
            events += n
            if events > self.max_events:
                raise self._event_limit()
            if self._advance(proc, n):
                self._step_front = (proc.clock, proc.pending[3])
            else:
                stepping.clear()
            return events
        ends = [_step_key(p.clock, p.pending[0], p.pending[3],
                          p.pending[2]) for p in stepping]
        if heap:
            ends.append((heap[0][0], 0, heap[0][1]))
        stop = min(ends)
        moved = []
        for proc in stepping:
            cycles, _statements, left, seq = proc.pending
            n = _steps_before(proc.clock, cycles, seq, left, stop)
            if n:
                moved.append((_step_key(proc.clock, cycles, seq, n),
                              proc, n))
                events += n
        if events > self.max_events:
            raise self._event_limit()
        moved.sort(key=itemgetter(0))
        for _key, proc, n in moved:
            self._advance(proc, n)
        stepping[:] = [p for p in stepping if p.pending is not None]
        if stepping:
            self._step_front = min((p.clock, p.pending[3])
                                   for p in stepping)
        return events

    def _advance(self, proc: SimProcess, n: int) -> bool:
        """Apply ``n`` steps of ``proc``'s run and give it one fresh
        sequence number: its next step's, or, once the run is over, its
        heap entry's.  True while steps remain."""
        cycles, statements, left, _seq = proc.pending
        proc.clock += n * cycles
        proc.busy_cycles += n * cycles
        self.stats.statements += n * statements
        if n < left:
            proc.pending = (cycles, statements, left - n, next(self._seq))
            return True
        proc.pending = None
        heapq.heappush(self._heap, (proc.clock, next(self._seq), proc))
        return False

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, proc: SimProcess, event) -> None:
        if type(event) is Cost:
            cycles = event.cycles
            proc.clock += cycles
            proc.busy_cycles += cycles
            self.stats.statements += event.statements
            if event.repeat > 1:
                # the other steps wait in _stepping, where
                # _apply_steps applies them in bulk
                if cycles.__class__ is not int or cycles < 0:
                    raise SimulationError(
                        f"repeated Cost of {cycles!r} cycles from "
                        f"{proc.name} (needs a whole number >= 0)")
                seq = next(self._seq)
                proc.pending = (cycles, event.statements,
                                event.repeat - 1, seq)
                front = (proc.clock, seq)
                if not self._stepping or front < self._step_front:
                    self._step_front = front
                self._stepping.append(proc)
            else:
                self._push(proc)
        elif type(event) is AcquireLock:
            self._acquire(proc, event.lock)
        elif type(event) is ReleaseLock:
            self._release(proc, event.lock)
        elif type(event) is Block:
            self._trace(proc, f"block {event.key}")
            proc.state = ProcState.BLOCKED
            proc.block_start = proc.clock
            proc.blocked_on = event.key
            self._wait_queues.setdefault(event.key, deque()).append(proc)
            self._release_cpu(proc, proc.clock)   # passive wait
        elif type(event) is Wake:
            self.wake_key(event.key, proc.clock, event.all_waiters)
            self._push(proc)
        elif type(event) is Spawn:
            child = self.spawn(event.generator, event.name,
                               start_time=proc.clock,
                               on_exit=event.on_exit)
            self._trace(proc, f"spawn {child.name}")
            self._push(proc)
        elif type(event) is HaltSim or type(event) is Halt:
            self._trace(proc, "halt")
            self.stats.halted = True
            self.stats.halt_message = getattr(event, "message", None)
            self._halted = True
            self._finish(proc)
        else:
            raise SimulationError(f"unknown event {event!r} from "
                                  f"{proc.name}")

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------
    def _acquire(self, proc: SimProcess, lock: SimLock) -> None:
        costs = self.machine.costs
        proc.clock += costs.lock_acquire
        proc.busy_cycles += costs.lock_acquire
        lock.acquisitions += 1
        self.stats.lock_acquisitions += 1
        if not lock.locked:
            lock.locked = True
            self._trace(proc, lock.acquired_text)
            self._push(proc)
            return
        lock.contended += 1
        self.stats.contended_acquisitions += 1
        if self.machine.lock_type is LockType.SYSCALL:
            # Entering the OS to park costs immediately.
            proc.clock += costs.syscall_overhead
            proc.busy_cycles += costs.syscall_overhead
        proc.state = ProcState.BLOCKED
        proc.block_start = proc.clock
        proc.blocked_on = lock
        lock.waiters.append(proc)
        self._trace(proc, lock.waiting_text)
        # Processor occupancy while waiting depends on the mechanism:
        # spinners keep their CPU (that is what spinning is); syscall
        # and hardware full/empty waiters release it; a combined lock
        # frees the CPU once its spin budget runs out.
        lock_type = self.machine.lock_type
        if lock_type is LockType.SPIN:
            pass
        elif lock_type is LockType.COMBINED:
            self._release_cpu(proc,
                              proc.clock + self.machine.combined_spin_limit)
        else:
            self._release_cpu(proc, proc.clock)

    def _release(self, proc: SimProcess, lock: SimLock) -> None:
        costs = self.machine.costs
        proc.clock += costs.lock_release
        proc.busy_cycles += costs.lock_release
        if lock.waiters:
            waiter = lock.waiters.popleft()
            grant_time = max(proc.clock, waiter.block_start)
            self._charge_wait(waiter, grant_time)
            # Direct handoff: the lock stays locked for the waiter.
            waiter.state = ProcState.READY
            waiter.blocked_on = None
            self._trace(waiter, lock.granted_text)
            self._push(waiter)
        else:
            lock.locked = False
        self._trace(proc, lock.released_text)
        self._push(proc)

    def _charge_wait(self, waiter: SimProcess, grant_time: int) -> None:
        """Apply the machine's lock-type cost model to a woken waiter."""
        costs = self.machine.costs
        wait = grant_time - waiter.block_start
        lock_type = self.machine.lock_type
        if lock_type is LockType.SPIN:
            # The CPU burned the whole wait polling test&set.
            self.stats.spin_cycles += wait
            waiter.busy_cycles += wait
            waiter.clock = grant_time + costs.spin_retry
        elif lock_type is LockType.SYSCALL:
            self.stats.context_switches += 1
            waiter.clock = grant_time + costs.context_switch
            waiter.busy_cycles += costs.context_switch
        elif lock_type is LockType.COMBINED:
            limit = self.machine.combined_spin_limit
            if wait <= limit:
                self.stats.spin_cycles += wait
                waiter.busy_cycles += wait
                waiter.clock = grant_time + costs.spin_retry
            else:
                self.stats.spin_cycles += limit
                waiter.busy_cycles += limit
                self.stats.context_switches += 1
                waiter.clock = grant_time + costs.context_switch
                waiter.busy_cycles += costs.context_switch
        else:   # HARDWARE_FE: the memory pipeline delivers the grant
            waiter.clock = grant_time + costs.lock_acquire
            waiter.busy_cycles += costs.lock_acquire

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _unblock(self, proc: SimProcess, at_time: int) -> None:
        proc.state = ProcState.READY
        proc.blocked_on = None
        penalty = self.machine.costs.shared_access_penalty
        proc.clock = max(proc.clock, at_time) + penalty
        self._trace(proc, "woken")
        self._push(proc)

    def _release_cpu(self, proc: SimProcess, at_time: int) -> None:
        """Free the process's processor (no-op in unlimited mode)."""
        if not self.processors or not proc.on_cpu:
            return
        proc.on_cpu = False
        heapq.heappush(self._cpu_free, at_time)
        if self._cpu_waiters:
            waiter = self._cpu_waiters.popleft()
            self._push(waiter)        # re-attempts the grant on pop

    def _finish(self, proc: SimProcess) -> None:
        proc.state = ProcState.DONE
        self._trace(proc, "done")
        self._release_cpu(proc, proc.clock)
        if proc.on_exit is not None:
            proc.on_exit(proc)

    def _push(self, proc: SimProcess) -> None:
        if proc.state is ProcState.READY:
            heapq.heappush(self._heap, (proc.clock, next(self._seq), proc))

    def _trace(self, proc: SimProcess, what: str) -> None:
        fields = self.trace_fields
        if self.trace_enabled and len(fields) < _MAX_TRACE_FIELDS:
            fields.append(proc.clock)
            fields.append(proc.name)
            fields.append(what)

    @property
    def trace(self) -> list[tuple[int, str, str]]:
        """The ``(time, process, text)`` triples recorded so far."""
        return trace_triples(self.trace_fields)

    def _describe_blocker(self, proc: SimProcess) -> str:
        blocker = proc.blocked_on
        if isinstance(blocker, SimLock):
            return f"lock {blocker.name}"
        return f"key {blocker!r}"

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.makespan = max((p.clock for p in self._procs), default=0)
        stats.total_busy = sum(p.busy_cycles for p in self._procs)
        stats.per_process_clock = {p.name: p.clock for p in self._procs}
