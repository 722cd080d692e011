"""Replay a trace into attribution, histograms and the critical path.

Every consumer here works on the unified
:class:`~repro.trace.events.TraceEvent` stream, so one engine serves
both execution paths:

* **native** traces carry measured spans directly (``phase="X"`` with
  a duration): barrier/critical/askfor waits, critical holds,
  asyncvar blocks — plus instants for barrier episodes and
  selfscheduled chunk dispatches;
* **simulator** traces are instant lock operations (``wait`` /
  ``grant`` / ``acquire`` / ``release``) and ``block``/``woken``
  pairs; :func:`normalize_spans` pairs them back into wait and hold
  spans per lane.

On the normalized spans the engine computes per-lane
wait/hold/compute attribution, a contention ranking per construct,
per-critical-name hold-time histograms, barrier-episode wait spread,
and the **critical path**: the dependent chain of spans that bounds
the makespan.  The path is found by walking *backwards* from the lane
that finishes last: active time is attributed to compute (or to the
lock being held); at a lock wait the walk jumps to the lane that held
that lock until the wait ended (critical sections serialize holders —
the same rule covers the simulator's barrier gate locks and
selfsched index locks); at a native barrier wait it jumps to the last
arriver of that episode (barrier episodes order phases); at a
``join``-style sched wait it jumps to the lane whose activity ended at
the wake (the joined worker); waits with no observable resolver
(askfor, asyncvar) stay on the path as wait segments.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any

from repro.trace.events import TraceEvent

from repro.obsv.metrics import CYCLES_BUCKETS, SECONDS_BUCKETS, Histogram

#: simulator ops that open/close spans (everything is an instant there)
_SIM_LOCK_OPS = frozenset(["wait", "grant", "acquire", "release"])

#: native span ops that mean "this lane was blocked"
_WAIT_OPS = frozenset(["wait", "produce", "consume", "copy"])

#: categories whose waits can be resolved to a holding lane
_LOCK_KINDS = frozenset(["critical", "selfsched", "barrier"])

#: cap on backward-walk steps (a guard, not a tuning knob)
_MAX_PATH_STEPS = 100_000


@dataclass(frozen=True, slots=True)
class Span:
    """One closed interval of lane time: a wait or a hold."""

    lane: str
    kind: str
    name: str
    op: str           #: "wait" | "hold" | "unlock" (point release)
    t0: float
    t1: float

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass(slots=True)
class SpanMeta:
    clock: str                       #: "seconds" | "cycles"
    t_start: float
    t_end: float
    #: lane -> (first event ts, last event ts)
    lane_bounds: dict[str, tuple[float, float]]

    @property
    def makespan(self) -> float:
        return max(0.0, self.t_end - self.t_start)


def _detect_clock(events: list[TraceEvent]) -> str:
    if events and all(isinstance(e.ts, int) for e in events):
        return "cycles"
    return "seconds"


def normalize_spans(
        events: list[TraceEvent]) -> tuple[list[Span], SpanMeta]:
    """Pair instants into spans; pass native spans through.

    Simulator lanes run a small state machine over the operations:
    ``wait`` on X opens a wait closed by ``grant`` of X;
    ``grant``/``acquire`` opens a hold closed by ``release`` of X;
    ``block`` opens a wait closed by the lane's next ``woken``.
    Unclosed opens at end of trace are closed at the lane's last
    timestamp (the run ended mid-wait).
    """
    spans: list[Span] = []
    bounds: dict[str, tuple[float, float]] = {}
    #: (lane) -> list of open (kind, name, t) block waits
    open_wait: dict[str, tuple[str, str, float]] = {}
    #: (lane, name) -> (kind, t) open hold
    open_hold: dict[tuple[str, str], tuple[str, float]] = {}
    for event in events:
        ts = float(event.ts)
        first, last = bounds.get(event.proc, (ts, ts))
        bounds[event.proc] = (min(first, ts), max(last, ts))
        if event.phase == "X":
            t0 = float(event.ts)
            t1 = t0 + float(event.dur)
            op = "wait" if event.op in _WAIT_OPS else "hold"
            spans.append(Span(event.proc, event.kind, event.name, op,
                              t0, t1))
            prev = bounds[event.proc]
            bounds[event.proc] = (min(prev[0], t0), max(prev[1], t1))
            continue
        op = event.op
        if op in _SIM_LOCK_OPS:
            lane, name = event.proc, event.name
            if op == "wait":
                open_wait[lane] = (event.kind, name, ts)
            elif op in ("grant", "acquire"):
                pending = open_wait.pop(lane, None)
                if pending is not None and pending[1] == name:
                    spans.append(Span(lane, pending[0], name, "wait",
                                      pending[2], ts))
                elif pending is not None:
                    open_wait[lane] = pending
                open_hold[(lane, name)] = (event.kind, ts)
            elif op == "release":
                held = open_hold.pop((lane, name), None)
                if held is not None:
                    spans.append(Span(lane, held[0], name, "hold",
                                      held[1], ts))
                else:
                    # An unlock with no matching acquire: the barrier
                    # macro's last arriver opens an out-gate it never
                    # held.  Record a point span so the critical-path
                    # walk can resolve gate waiters to this lane.
                    spans.append(Span(lane, event.kind, name,
                                      "unlock", ts, ts))
        elif op == "block":
            open_wait[event.proc] = (event.kind, event.name, ts)
        elif op == "woken":
            pending = open_wait.pop(event.proc, None)
            if pending is not None:
                spans.append(Span(event.proc, pending[0], pending[1],
                                  "wait", pending[2], ts))
    # Close dangling opens at the lane's end (run finished mid-state).
    for lane, (kind, name, t0) in open_wait.items():
        end = bounds.get(lane, (t0, t0))[1]
        if end > t0:
            spans.append(Span(lane, kind, name, "wait", t0, end))
    for (lane, name), (kind, t0) in open_hold.items():
        end = bounds.get(lane, (t0, t0))[1]
        if end > t0:
            spans.append(Span(lane, kind, name, "hold", t0, end))
    spans.sort(key=lambda s: (s.t0, s.lane))
    t_start = min((b[0] for b in bounds.values()), default=0.0)
    t_end = max((b[1] for b in bounds.values()), default=0.0)
    return spans, SpanMeta(clock=_detect_clock(events),
                           t_start=t_start, t_end=t_end,
                           lane_bounds=bounds)


# ----------------------------------------------------------------------
# the analysis document
# ----------------------------------------------------------------------
@dataclass(slots=True)
class TraceAnalysis:
    """Everything :func:`analyze_trace` recovers from one trace."""

    clock: str
    t_start: float
    makespan: float
    #: lane -> {"active","wait","hold","compute","first","last"}
    lanes: dict[str, dict[str, float]]
    #: contention ranking rows, most wait-burdened first
    constructs: list[dict[str, Any]]
    #: critical-section name -> hold-time histogram
    hold_histograms: dict[str, Histogram]
    #: one row per native barrier episode (empty for simulator traces)
    barrier_episodes: list[dict[str, Any]]
    #: selfsched label -> dispatch statistics
    chunks: dict[str, dict[str, Any]]
    #: {"segments": [...], "shares": {...}, "by_name": {...},
    #:  "coverage": float}
    critical_path: dict[str, Any]
    spans: list[Span] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "clock": self.clock,
            "makespan": self.makespan,
            "lanes": self.lanes,
            "constructs": self.constructs,
            "hold_histograms": {name: hist.as_dict() for name, hist
                                in self.hold_histograms.items()},
            "barrier_episodes": self.barrier_episodes,
            "chunks": self.chunks,
            "critical_path": {
                key: value for key, value in self.critical_path.items()
                if key != "segments"
            } | {"segments": [
                {"lane": lane, "t0": t0, "t1": t1,
                 "category": category, "name": name}
                for lane, t0, t1, category, name
                in self.critical_path["segments"]]},
            "meta": self.meta,
        }


def _tolerance(meta: SpanMeta) -> float:
    if meta.clock == "cycles":
        return 1.5
    return max(1e-6, meta.makespan * 1e-3)


def analyze_trace(events: list[TraceEvent], *,
                  meta: dict[str, Any] | None = None) -> TraceAnalysis:
    """Replay ``events`` into a full :class:`TraceAnalysis`."""
    spans, span_meta = normalize_spans(events)
    tol = _tolerance(span_meta)
    lanes = _lane_attribution(spans, span_meta)
    constructs = _contention_ranking(spans)
    hold_hists = _hold_histograms(spans, span_meta)
    episodes = _barrier_episodes(events, spans, tol)
    chunks = _chunk_stats(events, spans, span_meta)
    path = _critical_path(spans, span_meta, tol)
    return TraceAnalysis(
        clock=span_meta.clock,
        t_start=span_meta.t_start,
        makespan=span_meta.makespan,
        lanes=lanes,
        constructs=constructs,
        hold_histograms=hold_hists,
        barrier_episodes=episodes,
        chunks=chunks,
        critical_path=path,
        spans=spans,
        meta=dict(meta or {}),
    )


def _lane_attribution(spans: list[Span],
                      meta: SpanMeta) -> dict[str, dict[str, float]]:
    lanes: dict[str, dict[str, float]] = {}
    for lane, (first, last) in sorted(meta.lane_bounds.items()):
        lanes[lane] = {"first": first, "last": last,
                       "active": last - first,
                       "wait": 0.0, "hold": 0.0, "compute": 0.0}
    for span in spans:
        row = lanes.get(span.lane)
        if row is None:
            continue
        row["wait" if span.op == "wait" else "hold"] += span.dur
    for row in lanes.values():
        row["compute"] = max(
            0.0, row["active"] - row["wait"] - row["hold"])
    return lanes


def _contention_ranking(spans: list[Span]) -> list[dict[str, Any]]:
    rows: dict[tuple[str, str], dict[str, Any]] = {}
    for span in spans:
        row = rows.get((span.kind, span.name))
        if row is None:
            row = {"kind": span.kind, "name": span.name,
                   "acquisitions": 0, "waiters": 0,
                   "wait_total": 0.0, "wait_max": 0.0,
                   "hold_total": 0.0, "hold_max": 0.0}
            rows[(span.kind, span.name)] = row
        if span.op == "wait":
            row["waiters"] += 1
            row["wait_total"] += span.dur
            row["wait_max"] = max(row["wait_max"], span.dur)
        elif span.op == "hold":    # point "unlock" spans don't count
            row["acquisitions"] += 1
            row["hold_total"] += span.dur
            row["hold_max"] = max(row["hold_max"], span.dur)
    return sorted(rows.values(),
                  key=lambda r: (-r["wait_total"], -r["hold_total"],
                                 r["kind"], r["name"]))


def _hold_histograms(spans: list[Span],
                     meta: SpanMeta) -> dict[str, Histogram]:
    buckets = CYCLES_BUCKETS if meta.clock == "cycles" \
        else SECONDS_BUCKETS
    hists: dict[str, Histogram] = {}
    for span in spans:
        if span.kind != "critical" or span.op != "hold":
            continue
        hist = hists.get(span.name)
        if hist is None:
            hist = Histogram(buckets=buckets)
            hists[span.name] = hist
        hist.observe(span.dur)
    return hists


def _barrier_episodes(events: list[TraceEvent], spans: list[Span],
                      tol: float) -> list[dict[str, Any]]:
    """Native barrier episodes with their wait spread.

    Episode instants mark each release; every barrier wait span ends
    at (about) the release time of its episode, so waits bucket to the
    first episode instant at or after their end.  Simulator barriers
    are gate locks (no episode instants) and rank as constructs
    instead.
    """
    marks = sorted(float(e.ts) for e in events
                   if e.kind == "barrier" and e.op == "episode")
    if not marks:
        return []
    episodes: list[dict[str, Any]] = [
        {"t": mark, "waiters": 0, "wait_min": float("inf"),
         "wait_max": 0.0, "wait_total": 0.0}
        for mark in marks]
    for span in spans:
        if span.kind != "barrier" or span.op != "wait":
            continue
        index = bisect_left(marks, span.t1 - tol)
        if index >= len(episodes):
            index = len(episodes) - 1
        row = episodes[index]
        row["waiters"] += 1
        row["wait_total"] += span.dur
        row["wait_min"] = min(row["wait_min"], span.dur)
        row["wait_max"] = max(row["wait_max"], span.dur)
    for row in episodes:
        if row["waiters"] == 0:
            row["wait_min"] = 0.0
        row["wait_mean"] = row["wait_total"] / row["waiters"] \
            if row["waiters"] else 0.0
        #: the imbalance signal: how much longer the first arriver
        #: waited than the last
        row["spread"] = row["wait_max"] - row["wait_min"]
    return episodes


def _chunk_stats(events: list[TraceEvent], spans: list[Span],
                 meta: SpanMeta) -> dict[str, dict[str, Any]]:
    """Per-label selfsched dispatch statistics.

    Native chunk instants carry ``index``/``size`` args; simulator
    dispatches are reconstructed from the index-lock (``ZZL<label>``)
    hold spans — one hold per dispatch round.
    """
    labels: dict[str, dict[str, Any]] = {}
    for event in events:
        if event.kind != "selfsched" or event.op != "chunk":
            continue
        row = labels.setdefault(
            event.name, {"chunks": 0, "indices": 0, "per_lane": {}})
        row["chunks"] += 1
        row["indices"] += int(event.args.get("size", 1))
        per_lane = row["per_lane"]
        per_lane[event.proc] = per_lane.get(event.proc, 0) \
            + int(event.args.get("size", 1))
    if labels:
        return labels
    for span in spans:
        if span.kind != "selfsched" or span.op != "hold":
            continue
        row = labels.setdefault(
            span.name, {"chunks": 0, "indices": 0, "per_lane": {}})
        row["chunks"] += 1
        row["indices"] += 1
        per_lane = row["per_lane"]
        per_lane[span.lane] = per_lane.get(span.lane, 0) + 1
    return labels


# ----------------------------------------------------------------------
# critical-path extraction
# ----------------------------------------------------------------------
def _critical_path(spans: list[Span], meta: SpanMeta,
                   tol: float) -> dict[str, Any]:
    """Backward walk from the last-finishing lane to the start.

    Returns path segments ``(lane, t0, t1, category, name)`` (newest
    first reversed to oldest-first), the share of makespan per
    category, a per-construct breakdown, and the fraction of makespan
    the path explains.
    """
    if not meta.lane_bounds:
        return {"segments": [], "shares": {}, "by_name": {},
                "coverage": 0.0}
    waits_by_lane: dict[str, list[Span]] = {}
    holds_by_lane: dict[str, list[Span]] = {}
    holds_by_name: dict[str, list[Span]] = {}
    barrier_waits: list[Span] = []
    for span in spans:
        if span.op == "wait":
            waits_by_lane.setdefault(span.lane, []).append(span)
            if span.kind == "barrier":
                barrier_waits.append(span)
        else:
            holds_by_lane.setdefault(span.lane, []).append(span)
            holds_by_name.setdefault(span.name, []).append(span)
    for seq in waits_by_lane.values():
        seq.sort(key=lambda s: s.t1)
    for seq in holds_by_lane.values():
        seq.sort(key=lambda s: s.t0)
    for seq in holds_by_name.values():
        seq.sort(key=lambda s: s.t1)
    barrier_waits.sort(key=lambda s: s.t1)
    barrier_ends = [s.t1 for s in barrier_waits]

    lane = max(meta.lane_bounds,
               key=lambda la: meta.lane_bounds[la][1])
    cursor = meta.lane_bounds[lane][1]
    segments: list[tuple[str, float, float, str, str]] = []

    for _ in range(_MAX_PATH_STEPS):
        lane_start = meta.lane_bounds.get(lane, (meta.t_start,))[0]
        wait = _latest_wait_before(waits_by_lane.get(lane, []), cursor,
                                   tol)
        boundary = wait.t1 if wait is not None else lane_start
        boundary = min(boundary, cursor)
        if boundary < cursor:
            # the walk builds newest-first; keep the split's internal
            # order consistent so the final reverse() yields oldest-first
            segments.extend(reversed(_split_active(
                lane, boundary, cursor, holds_by_lane.get(lane, []))))
        if wait is None:
            # Reached the lane's first event: the lane exists because
            # another lane spawned it — continue on the spawner.
            spawner = _spawner_lane(meta.lane_bounds, lane, boundary,
                                    tol)
            if spawner is None or boundary <= meta.t_start + tol:
                break
            lane, cursor = spawner, boundary
            continue
        next_lane, next_cursor = lane, wait.t0
        on_path = False
        if wait.kind in _LOCK_KINDS:
            hold = _blocking_hold(holds_by_name.get(wait.name, []),
                                  wait, tol)
            if hold is not None:
                next_lane, next_cursor = hold.lane, min(hold.t1,
                                                        wait.t1)
            elif wait.kind == "barrier":
                arriver = _last_arriver(barrier_waits, barrier_ends,
                                        wait, tol)
                if arriver is not None and arriver is not wait:
                    next_lane, next_cursor = arriver.lane, arriver.t0
                # else: we were the last arriver — the wait is the
                # episode bookkeeping itself; stay and step past it.
            else:
                on_path = True
                segments.append((lane, wait.t0, wait.t1, wait.kind,
                                 wait.name))
        else:
            waker = _waker_lane(meta.lane_bounds, wait, tol) \
                if wait.kind == "sched" else None
            if waker is not None:
                # A join-style wait resolves when another lane finishes:
                # jump to the lane whose activity ended at the wake.
                next_lane, next_cursor = waker[0], min(waker[1], wait.t1)
            else:
                # askfor/asyncvar waits have no recorded resolver:
                # the wait itself is on the path.
                on_path = True
                segments.append((lane, wait.t0, wait.t1, wait.kind,
                                 wait.name))
        if next_cursor >= cursor and next_lane != lane:
            # The resolver jumped *forward* — tolerance slop picked a
            # later event (micro-spans on the native clock are far
            # shorter than the tolerance window).  Recover by treating
            # the wait as unresolved: it goes on the path and the walk
            # steps past it on this lane, always toward the start.
            next_lane, next_cursor = lane, wait.t0
            if not on_path:
                clipped = min(wait.t1, cursor)
                if clipped > wait.t0:
                    segments.append((lane, wait.t0, clipped,
                                     wait.kind, wait.name))
        if next_cursor >= cursor:       # still no progress: stop
            break
        lane, cursor = next_lane, next_cursor
        if cursor <= meta.t_start:
            break

    segments.reverse()
    shares: dict[str, float] = {}
    by_name: dict[str, float] = {}
    total = 0.0
    for _, t0, t1, category, name in segments:
        dur = t1 - t0
        total += dur
        shares[category] = shares.get(category, 0.0) + dur
        if name:
            key = f"{category}:{name}"
            by_name[key] = by_name.get(key, 0.0) + dur
    makespan = meta.makespan or 1.0
    return {
        "segments": segments,
        "shares": {k: round(v / makespan, 4)
                   for k, v in sorted(shares.items())},
        "by_name": {k: round(v / makespan, 4)
                    for k, v in sorted(by_name.items())},
        "coverage": round(total / makespan, 4),
    }


def _spawner_lane(lane_bounds: dict[str, tuple[float, float]],
                  lane: str, lane_start: float,
                  tol: float) -> str | None:
    """The lane that plausibly spawned ``lane``.

    Candidates were already running strictly before the child's first
    event and still alive at it; the latest-starting one is the
    closest ancestor.  Consecutive jumps therefore visit lanes with
    strictly earlier starts, so the walk terminates.
    """
    best: tuple[str, float] | None = None
    for other, (first, last) in lane_bounds.items():
        if other == lane or first >= lane_start:
            continue
        if last < lane_start - tol:
            continue
        if best is None or first > best[1]:
            best = (other, first)
    return best[0] if best is not None else None


def _waker_lane(lane_bounds: dict[str, tuple[float, float]],
                wait: Span, tol: float) -> tuple[str, float] | None:
    """The lane whose completion plausibly resolved a sched wait.

    A ``join``-style wait ends when some other lane finishes; among
    lanes whose last recorded activity falls inside the wait window,
    the latest-finishing one is the waker.  Lanes that outlive the
    wait keep running for other reasons and are not candidates.
    """
    best: tuple[str, float] | None = None
    for lane, (_, last) in lane_bounds.items():
        if lane == wait.lane:
            continue
        if last < wait.t0 - tol or last > wait.t1 + tol:
            continue
        if best is None or last > best[1]:
            best = (lane, last)
    return best


def _latest_wait_before(waits: list[Span], cursor: float,
                        tol: float) -> Span | None:
    """The wait span on this lane that most recently ended by cursor."""
    best = None
    for span in waits:
        if span.t1 <= cursor + tol and span.t0 < cursor:
            if best is None or span.t1 > best.t1:
                best = span
    return best


def _blocking_hold(holds: list[Span], wait: Span,
                   tol: float) -> Span | None:
    """The other-lane hold whose release resolved this wait."""
    best = None
    for span in holds:
        if span.lane == wait.lane:
            continue
        if span.t1 < wait.t0 - tol or span.t1 > wait.t1 + tol:
            continue
        if span.t0 > wait.t1:
            # causally impossible: a hold that began after the wait
            # already ended cannot be its blocker (the tolerance
            # window can be wide relative to micro-spans on the
            # native clock — do not let slop pick a later hold).
            continue
        if best is None or span.t1 > best.t1:
            best = span
    return best


def _last_arriver(barrier_waits: list[Span], ends: list[float],
                  wait: Span, tol: float) -> Span | None:
    """Among the episode's waiters, the one that arrived last.

    The episode's waits all end at (about) the same release time; the
    span with the latest start belongs to the last arriver — the lane
    whose arrival released everyone.
    """
    lo = bisect_left(ends, wait.t1 - tol)
    hi = bisect_right(ends, wait.t1 + tol)
    group = barrier_waits[lo:hi]
    if not group:
        return None
    return max(group, key=lambda s: s.t0)


def _split_active(lane: str, t0: float, t1: float,
                  holds: list[Span]
                  ) -> list[tuple[str, float, float, str, str]]:
    """Split a lane's active interval into hold and compute segments.

    Compute done while holding a lock is attributed to the lock (its
    kind and name): that time is serialized against every other
    would-be holder, which is exactly what a contention report needs
    to surface.
    """
    segments: list[tuple[str, float, float, str, str]] = []
    cursor = t0
    for hold in holds:
        if hold.t1 <= t0 or hold.t0 >= t1:
            continue
        h0, h1 = max(hold.t0, cursor), min(hold.t1, t1)
        if h0 > cursor:
            segments.append((lane, cursor, h0, "compute", ""))
        if h1 > h0:
            segments.append((lane, h0, h1, hold.kind, hold.name))
            cursor = h1
    if cursor < t1:
        segments.append((lane, cursor, t1, "compute", ""))
    return segments
