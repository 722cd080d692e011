"""Bounded, drop-counting trace collection for the native runtime.

Design constraints, in order:

1. **Zero cost when off** — a disabled Force keeps no collector at
   all.  The collector is the ring the Force's
   :class:`~repro.runtime.probe.Probe` writes to: every interception
   point pays one ``probe is None`` test, and the probe exists only
   when stats, trace or metrics are on.
2. **Cheap when on** — each Force process appends to its *own* ring
   buffer, so the hot path takes no lock: one list store, two integer
   bumps and a clock read.  CPython's per-opcode atomicity makes the
   single-writer ring safe without fences ("lock-free-ish").
3. **Bounded** — a ring of ``capacity`` events per process; overflow
   overwrites the oldest events and counts the drops rather than
   growing without bound or stalling the program.

The collector also keeps the two shared signals the stall watchdog
samples: the wall-clock time of the most recent event anywhere
(:attr:`last_event_at`) and a per-process *parked* map naming the
construct each process is currently blocked on.  Both are simple dict
and attribute stores — racy reads are acceptable for diagnostics.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Any, Callable

from repro.trace.events import TraceEvent


class _Ring:
    """Single-writer ring buffer of trace events."""

    __slots__ = ("capacity", "items", "count")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: list[TraceEvent | None] = [None] * capacity
        self.count = 0

    def append(self, event: TraceEvent) -> None:
        self.items[self.count % self.capacity] = event
        self.count += 1

    @property
    def dropped(self) -> int:
        return max(0, self.count - self.capacity)

    def snapshot(self) -> list[TraceEvent]:
        count = self.count          # read once: appends may continue
        if count <= self.capacity:
            return [e for e in self.items[:count] if e is not None]
        start = count % self.capacity
        ordered = self.items[start:] + self.items[:start]
        return [e for e in ordered if e is not None]


class TraceCollector:
    """Per-process ring buffers behind one recording facade.

    Threads register their lane once (:meth:`register_lane`); records
    from an unregistered thread fall into a shared ``main`` lane so
    library code outside :meth:`Force.run` still traces safely (that
    fallback lane takes a lock only on first use).
    """

    def __init__(self, capacity: int = 65536, *,
                 clock: Callable[[], float] = monotonic,
                 epoch: float | None = None) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._clock = clock
        # Forked workers pass the parent's pre-fork epoch so all
        # collectors share one time origin; the default (our own
        # construction time) is only correct single-process.
        self.epoch = clock() if epoch is None else epoch
        self._local = threading.local()
        self._rings: dict[str, _Ring] = {}
        self._rings_lock = threading.Lock()
        #: wall clock (collector clock, absolute) of the latest record
        self.last_event_at = self.epoch
        #: lane -> (kind, name) while blocked inside a construct
        self._parked: dict[str, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # lanes
    # ------------------------------------------------------------------
    def register_lane(self, lane: str) -> None:
        """Bind the calling thread to ``lane`` (one Force process)."""
        with self._rings_lock:
            ring = self._rings.get(lane)
            if ring is None:
                ring = _Ring(self.capacity)
                self._rings[lane] = ring
        self._local.lane = lane
        self._local.ring = ring

    def release_lane(self) -> None:
        """Detach the calling thread (its events stay recorded)."""
        self._parked.pop(getattr(self._local, "lane", None), None)
        self._local.lane = None
        self._local.ring = None

    def _lane_ring(self) -> tuple[str, _Ring]:
        ring = getattr(self._local, "ring", None)
        if ring is None:
            self.register_lane("main")
            ring = self._local.ring
        return self._local.lane, ring

    @property
    def lanes(self) -> list[str]:
        with self._rings_lock:
            return sorted(self._rings)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the collector epoch."""
        return self._clock() - self.epoch

    def record(self, kind: str, name: str = "", op: str = "", *,
               phase: str = "i", ts: float | None = None,
               dur: float = 0.0, detail: str = "",
               **args: Any) -> None:
        lane, ring = self._lane_ring()
        when = self.now() if ts is None else ts
        ring.append(TraceEvent(ts=when, proc=lane, kind=kind, name=name,
                               op=op, phase=phase, dur=dur, detail=detail,
                               args=args))
        self.last_event_at = self._clock()

    # ------------------------------------------------------------------
    # parked-state (stall watchdog source)
    # ------------------------------------------------------------------
    def mark_parked(self, kind: str, name: str) -> None:
        lane, _ = self._lane_ring()
        self._parked[lane] = (kind, name)

    def clear_parked(self) -> None:
        self._parked.pop(getattr(self._local, "lane", None), None)

    def parked(self) -> dict[str, tuple[str, str]]:
        """Snapshot of who is blocked where (lane -> (kind, name))."""
        return dict(self._parked)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        with self._rings_lock:
            rings = list(self._rings.values())
        return sum(ring.dropped for ring in rings)

    def events(self) -> list[TraceEvent]:
        """All recorded events merged across lanes, time-ordered."""
        with self._rings_lock:
            rings = list(self._rings.values())
        merged: list[TraceEvent] = []
        for ring in rings:
            merged.extend(ring.snapshot())
        merged.sort(key=lambda e: (e.ts, e.proc))
        return merged
