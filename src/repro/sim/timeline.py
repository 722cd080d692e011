"""Simulator reports over a run's statistics and trace events.

The text timeline itself is :func:`repro.trace.export.to_text` over
:meth:`repro.pipeline.run.RunResult.trace_events`, one line per event
with the scheduler's own text.  This module adds the simulator-only
reports: a utilization chart per process and the most contended locks.
"""

from __future__ import annotations

from repro.sim.scheduler import SimStats
from repro.trace.events import TraceEvent

#: the lock operations the scheduler records
_LOCK_OPS = frozenset(["acquire", "wait", "grant", "release"])


def render_utilization(stats: SimStats, *, width: int = 40) -> str:
    """Bar chart of per-process busy fraction of the makespan."""
    if stats.makespan == 0:
        return "(empty run)"
    lines = [f"makespan {stats.makespan} cycles, "
             f"utilization {stats.utilization:.1%}"]
    for name, clock in sorted(stats.per_process_clock.items()):
        fraction = min(clock / stats.makespan, 1.0)
        bar = "#" * round(fraction * width)
        lines.append(f"{name:<14s} |{bar:<{width}s}| "
                     f"{clock} cyc ({fraction:.0%} of makespan)")
    return "\n".join(lines)


def lock_contention_report(events: list[TraceEvent],
                           top: int = 10) -> str:
    """The most contended locks of a run, from its trace events."""
    locks = {}
    for event in events:
        if event.op in _LOCK_OPS:
            entry = locks.setdefault(event.name, [0, 0])
            entry[0] += 1
            if event.op == "wait":
                entry[1] += 1
    rows = sorted(locks.items(), key=lambda kv: -kv[1][1])[:top]
    if not rows:
        return "(no lock events in trace)"
    lines = [f"{'lock':<22s}{'events':>8s}{'waits':>8s}"]
    for name, (total, waits) in rows:
        lines.append(f"{name:<22s}{total:>8d}{waits:>8d}")
    return "\n".join(lines)
