"""The probe: the native runtime's one observability path.

A :class:`~repro.runtime.force.Force` built with any of ``stats=``,
``trace=`` or ``metrics=`` owns one :class:`Probe`; with all three off
it owns none.  Every interception site — barrier, barrier_section,
critical, selfsched entry/chunk/exit, askfor put/get, asyncvar block,
checkpoint write, worker start/end, and the pipeline's SPINLK/SPINUN
lock rounds — makes one ``probe is None`` test and, when a probe
exists, one probe call.  That call times the construct, writes the
event to the run's :class:`~repro.trace.collector.TraceCollector` ring
(``trace=True``) and feeds the same facts to one count reducer, a
:class:`~repro.obsv.metrics.ForceMetrics` (``stats=True`` or
``metrics=True``).

Counting follows perfbook's per-thread statistical counters: each
Force process — a thread of the thread backend, a forked worker of the
process backend — accumulates into a reducer of its own *lane* with no
shared lock, and reads fold the lanes' registries into one.  The
metrics registry is that fold; the stats document is a view of it
(:func:`~repro.obsv.metrics.stats_view`).  A forked worker ships its
lanes to the parent (:meth:`Probe.payload`), which absorbs them as
lanes of its own (:meth:`Probe.absorb`), so both backends read the
same way.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Any, Callable, Iterable

from repro.obsv.metrics import ForceMetrics, MetricsRegistry, stats_view
from repro.trace.collector import TraceCollector
from repro.trace.events import TraceEvent

#: (pool name, total_put, total_got, max_depth) of one askfor pool
PoolTotals = tuple[str, int, int, int]


class LockWord:
    """A lock the probe can time: a non-blocking try, a blocking
    acquire and a release.  Used directly as a context manager when
    the probe is off."""

    __slots__ = ()

    def try_acquire(self) -> bool:
        raise NotImplementedError

    def acquire(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> None:
        if not self.try_acquire():
            self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()


class _Untraced:
    """The trace ring of a probe without ``trace=True``: records
    nothing, so the probe needs no trace-on test."""

    __slots__ = ()

    epoch = None
    dropped = 0

    def events(self) -> list[TraceEvent]:
        return []

    def now(self) -> float:
        return 0.0

    def record(self, *args: Any, **kwargs: Any) -> None:
        pass

    def mark_parked(self, kind: str, name: str) -> None:
        pass

    def clear_parked(self) -> None:
        pass

    def register_lane(self, lane: str) -> None:
        pass

    def release_lane(self) -> None:
        pass


class Probe:
    """Stats, trace and metrics of one Force run behind one object."""

    def __init__(self, nproc: int, *, counting: bool = False,
                 trace: bool = False, trace_capacity: int = 65536,
                 epoch: float | None = None) -> None:
        self.nproc = nproc
        #: lanes count (``stats=True`` or ``metrics=True``: both read
        #: the same folded registry)
        self._counting = counting
        self._trace_capacity = trace_capacity
        #: the run's trace ring (None unless ``trace=True``)
        self.tracer = TraceCollector(trace_capacity, epoch=epoch) \
            if trace else None
        self._trace = self.tracer if trace else _Untraced()
        self._local = threading.local()
        self._lanes: list[ForceMetrics] = []
        self._lanes_lock = threading.Lock()
        self._absorbed_events: list[TraceEvent] = []
        self._absorbed_dropped = 0

    def _lane(self) -> ForceMetrics:
        """The calling thread's reducer, made on its first record."""
        lane = getattr(self._local, "lane", None)
        if lane is None:
            lane = ForceMetrics()
            with self._lanes_lock:
                self._lanes.append(lane)
            self._local.lane = lane
        return lane

    # ------------------------------------------------------------------
    # interception sites
    # ------------------------------------------------------------------
    def start(self, me: int) -> None:
        """Worker start: bind the calling thread's trace ring."""
        self._trace.register_lane(f"force-{me}")
        self._trace.record("sched", f"force-{me}", "start")

    def end(self, me: int) -> None:
        """Worker end (its events stay recorded)."""
        self._trace.record("sched", f"force-{me}", "end")
        self._trace.release_lane()

    def barrier(self, arrive: Callable[[int, Any], bool], me: int,
                section: Callable[[], None] | None) -> bool:
        """One barrier arrival, ``arrive(me, section)``, timed with the
        lane parked; True iff this process released the episode."""
        trace = self._trace
        trace.mark_parked("barrier", "barrier")
        started = monotonic()
        released = arrive(me, section)
        waited = monotonic() - started
        trace.clear_parked()
        trace.record("barrier", "barrier", "wait", phase="X",
                     ts=trace.now() - waited, dur=waited)
        if released:
            trace.record("barrier", "barrier", "episode")
        if self._counting:
            self._lane().barrier(waited, released)
        return released

    def lock(self, kind: str, name: str, word: LockWord) -> "_TimedLock":
        """``word`` with its rounds recorded: a ``kind`` wait span when
        contended and a hold span per round; critical sections also
        feed the reducer."""
        return _TimedLock(self, kind, name, word)

    def chunk(self, label: str, index: int, size: int) -> None:
        """One selfscheduled chunk of ``size`` indices from ``index``."""
        self._trace.record("selfsched", label, "chunk",
                           index=index, size=size)
        if self._counting:
            self._lane().selfsched_chunk(label, size)

    def wait(self, kind: str, name: str, blocking: Callable[..., Any],
             *args: Any, op: str = "") -> Any:
        """Return ``blocking(*args)``, run with the lane parked on
        ``kind``/``name``.  With ``op`` the wait is also a trace span;
        an asyncvar wait feeds the reducer's blocked time."""
        trace = self._trace
        trace.mark_parked(kind, name)
        started = monotonic()
        try:
            return blocking(*args)
        finally:
            waited = monotonic() - started
            trace.clear_parked()
            if op:
                trace.record(kind, name, op, phase="X",
                             ts=trace.now() - waited, dur=waited)
            if kind == "asyncvar" and self._counting:
                self._lane().asyncvar_block(name, waited)

    def askfor_get(self, pool: Any) -> tuple[bool, Any]:
        """One askfor ``get`` (pool lock held): the blocked wait as a
        span, then the ``got``/``terminated`` instant."""
        if not pool._ready():
            self.wait("askfor", pool._name, pool._await_ready, op="wait")
        got, item = pool._take()
        if got:
            self._trace.record("askfor", pool._name, "got",
                               depth=pool._depth())
        else:
            self._trace.record("askfor", pool._name, "terminated")
        return got, item

    def checkpoint(self, name: str, epoch: int, nbytes: int) -> None:
        """One snapshot written at a barrier episode."""
        self._trace.record("checkpoint", name, "write", epoch=epoch,
                           bytes=nbytes)
        if self._counting:
            self._lane().checkpoint_written(nbytes)

    def event(self, kind: str, name: str, op: str, **args: Any) -> None:
        """A trace-only instant: askfor put, dead holder, fault,
        restore, a lock released by a non-holder."""
        self._trace.record(kind, name, op, **args)

    # ------------------------------------------------------------------
    # reads (lanes folded through the registries' merge)
    # ------------------------------------------------------------------
    def _folded_lanes(self) -> list[ForceMetrics]:
        with self._lanes_lock:
            return list(self._lanes)

    def stats(self, pools: Iterable[PoolTotals]) -> dict[str, Any]:
        """The stats document: a view of the folded registry."""
        return stats_view(self.registry(pools))

    def registry(self, pools: Iterable[PoolTotals], *,
                 wall_s: float | None = None) -> MetricsRegistry:
        """Every lane's metrics folded into one registry, with the
        pool gauges and run-level facts settled."""
        folded = ForceMetrics()
        for lane in self._folded_lanes():
            folded.registry.merge(lane.registry)
        for name, total_put, total_got, max_depth in pools:
            folded.askfor(name, total_put=total_put,
                          total_got=total_got, max_depth=max_depth)
        folded.run_info(self.nproc, wall_s=wall_s)
        return folded.registry

    def events(self) -> list[TraceEvent]:
        """The recorded event stream, merged and time-ordered."""
        events = self._trace.events() + self._absorbed_events
        events.sort(key=lambda e: (e.ts, e.proc))
        return events

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer overflow."""
        return self._trace.dropped + self._absorbed_dropped

    # ------------------------------------------------------------------
    # forked workers
    # ------------------------------------------------------------------
    def child(self) -> "Probe":
        """A fresh probe for a forked worker, on this trace epoch."""
        return Probe(self.nproc, counting=self._counting,
                     trace=self.tracer is not None,
                     trace_capacity=self._trace_capacity,
                     epoch=self._trace.epoch)

    def payload(self) -> tuple:
        """What a forked worker ships to its parent: its lanes and its
        trace."""
        return self._folded_lanes(), self._trace.events(), \
            self._trace.dropped

    def absorb(self, payload: tuple) -> None:
        """Take a worker's :meth:`payload` in as lanes of this probe."""
        lanes, events, dropped = payload
        with self._lanes_lock:
            self._lanes.extend(lanes)
        self._absorbed_events.extend(events)
        self._absorbed_dropped += dropped


class _TimedLock:
    """A :class:`LockWord` whose rounds a probe records."""

    __slots__ = ("_probe", "_kind", "_name", "_word", "_waited",
                 "_contended", "_held_from")

    def __init__(self, probe: Probe, kind: str, name: str,
                 word: LockWord) -> None:
        self._probe = probe
        self._kind = kind
        self._name = name
        self._word = word

    def acquire(self) -> None:
        self._contended = not self._word.try_acquire()
        self._waited = 0.0
        if self._contended:
            trace = self._probe._trace
            trace.mark_parked(self._kind, self._name)
            started = monotonic()
            self._word.acquire()
            self._waited = monotonic() - started
            trace.clear_parked()
            trace.record(self._kind, self._name, "wait", phase="X",
                         ts=trace.now() - self._waited, dur=self._waited)
        self._held_from = monotonic()

    def release(self) -> None:
        self._word.release()
        held = monotonic() - self._held_from
        probe = self._probe
        probe._trace.record(self._kind, self._name, "hold", phase="X",
                            ts=probe._trace.now() - held, dur=held)
        if self._kind == "critical" and probe._counting:
            probe._lane().critical(self._name, self._waited,
                                   self._contended, held)

    def __enter__(self) -> None:
        self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()
