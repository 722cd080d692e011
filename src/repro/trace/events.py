"""The structured event model shared by both execution paths.

One :class:`TraceEvent` describes one observable runtime occurrence.
The fields mirror the Chrome trace-event format so export is a direct
mapping:

``ts``
    Event start time: seconds since the collector epoch for native
    runs, integer simulated cycles for simulator runs.
``proc``
    The lane — one Force process (``force-3``, ``summer-1``) or the
    simulator driver.
``kind``
    The construct category (``barrier``, ``critical``, ``selfsched``,
    ``askfor``, ``asyncvar``) or ``sched`` for process-lifecycle and
    scheduler events.
``phase``
    ``"i"`` for an instant, ``"X"`` for a complete span (``dur``
    meaningful).
``name``
    The construct instance: critical-section name, selfsched label,
    askfor pool, async-variable name, lock variable.
``op``
    What happened to it: ``wait``, ``hold``, ``episode``, ``chunk``,
    ``put``, ``got``, ``produce``, ``consume``, ``acquire`` …
``detail``
    Free text; for simulator events the scheduler's timeline line, so
    the classic text rendering is a pass-through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: the construct categories every consumer understands ("fault" marks
#: events emitted by the deterministic fault injector; "checkpoint"
#: and "recover" mark the recovery layer's snapshot writes and
#: restore-from-snapshot instants)
KINDS = ("barrier", "critical", "selfsched", "askfor", "asyncvar",
         "sched", "fault", "checkpoint", "recover")


def lock_kind(name: str) -> str:
    """The construct a lock variable serves, by the macro library's
    naming: ``BARWIN``/``BARWOT`` are the barrier's two gate locks and
    ``ZZL<label>`` is a selfscheduled loop's index lock (any case, any
    subscript); every other lock guards a critical section."""
    base = name.upper().split("(", 1)[0]
    if base in ("BARWIN", "BARWOT"):
        return "barrier"
    if base.startswith("ZZL"):
        return "selfsched"
    return "critical"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    ts: float
    proc: str
    kind: str
    name: str = ""
    op: str = ""
    phase: str = "i"
    dur: float = 0.0
    detail: str = ""
    args: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "ts": self.ts, "proc": self.proc, "kind": self.kind,
            "name": self.name, "op": self.op, "phase": self.phase,
        }
        if self.phase == "X":
            data["dur"] = self.dur
        if self.detail:
            data["detail"] = self.detail
        if self.args:
            data["args"] = self.args
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceEvent":
        return cls(
            ts=data.get("ts", 0.0),
            proc=str(data.get("proc", "?")),
            kind=str(data.get("kind", "sched")),
            name=str(data.get("name", "")),
            op=str(data.get("op", "")),
            phase=str(data.get("phase", "i")),
            dur=data.get("dur", 0.0),
            detail=str(data.get("detail", "")),
            args=dict(data.get("args", {})),
        )

    def text_line(self) -> str:
        """The human-readable body of this event (timeline rendering)."""
        if self.detail:
            return self.detail
        parts = [self.kind]
        if self.name:
            parts.append(self.name)
        if self.op:
            parts.append(self.op)
        if self.phase == "X":
            parts.append(f"({_fmt_dur(self.dur)})")
        return " ".join(parts)


def _fmt_dur(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"
