"""Post-process a trace into per-construct summaries (``force trace``).

Works on the unified model, so it accepts events collected natively,
adapted from the simulator, or loaded back from a written chrome/jsonl
trace file.  Measured spans (native ``"X"`` events) yield wait/hold
statistics; instant-only traces (the simulator's) still yield counts,
so the report degrades gracefully rather than failing.

Sections:

* **barriers** — episode count and the wait-time spread across
  arrivals (the paper's barrier-episode skew);
* **criticals** — per section name: acquisitions, contended entries,
  wait and hold time (lock convoys show up as wait >> hold);
* **selfsched** — chunk histogram per DOALL label and per process
  (the paper's dynamic load-balance evidence);
* **askfor** — per pool: puts, gots, blocked-wait profile;
* **asyncvar** — per variable: blocked operations and blocked time.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obsv.metrics import Histogram, wait_dict
from repro.trace.events import TraceEvent


def _observe(entry: dict[str, Any], key: str, seconds: float) -> None:
    """Record one measured span in ``entry[key]``, a histogram made on
    first use (an absent one reports zeros through :func:`wait_dict`)."""
    if entry[key] is None:
        entry[key] = Histogram()
    entry[key].observe(seconds)


def summarize_events(events: list[TraceEvent]) -> dict[str, Any]:
    """Reduce an event stream to per-construct summaries."""
    lanes = sorted({e.proc for e in events})
    barrier: dict[str, Any] = {"wait": None}
    episodes = 0
    barrier_waits_seen = 0
    criticals: dict[str, dict[str, Any]] = {}
    selfsched: dict[str, dict[str, Any]] = {}
    askfor: dict[str, dict[str, Any]] = {}
    asyncvar: dict[str, dict[str, Any]] = {}

    for event in events:
        if event.kind == "barrier":
            if event.op == "episode":
                episodes += 1
            elif event.op == "wait":
                barrier_waits_seen += 1
                if event.phase == "X":
                    _observe(barrier, "wait", event.dur)
        elif event.kind == "critical":
            entry = criticals.setdefault(
                event.name, {"acquisitions": 0, "contended": 0,
                             "wait": None, "hold": None})
            if event.op in ("hold", "acquire", "grant"):
                entry["acquisitions"] += 1
            if event.op == "hold" and event.phase == "X":
                _observe(entry, "hold", event.dur)
            if event.op == "wait":
                entry["contended"] += 1
                if event.phase == "X":
                    _observe(entry, "wait", event.dur)
        elif event.kind == "selfsched":
            entry = selfsched.setdefault(
                event.name, {"chunks": 0, "per_process": {}})
            if event.op == "chunk":
                entry["chunks"] += 1
                per = entry["per_process"]
                per[event.proc] = per.get(event.proc, 0) + 1
        elif event.kind == "askfor":
            entry = askfor.setdefault(
                event.name, {"put": 0, "got": 0, "wait": None})
            if event.op == "put":
                entry["put"] += 1
            elif event.op == "got":
                entry["got"] += 1
            elif event.op in ("wait", "block") and event.phase == "X":
                _observe(entry, "wait", event.dur)
        elif event.kind == "asyncvar":
            entry = asyncvar.setdefault(
                event.name, {"blocked": 0, "wait": None,
                             "by_op": {}})
            entry["blocked"] += 1
            entry["by_op"][event.op] = entry["by_op"].get(event.op, 0) + 1
            if event.phase == "X":
                _observe(entry, "wait", event.dur)

    return {
        "processes": lanes,
        "events": len(events),
        "barriers": {
            "episodes": episodes,
            "waits": barrier_waits_seen,
            "wait": wait_dict(barrier["wait"]),
        },
        "criticals": {
            name: {
                "acquisitions": entry["acquisitions"],
                "contended": entry["contended"],
                "wait": wait_dict(entry["wait"]),
                "hold": wait_dict(entry["hold"]),
            }
            for name, entry in sorted(criticals.items())
        },
        "selfsched": {
            name: {"chunks": entry["chunks"],
                   "per_process": dict(sorted(
                       entry["per_process"].items()))}
            for name, entry in sorted(selfsched.items())
        },
        "askfor": {
            name: {"put": entry["put"], "got": entry["got"],
                   "wait": wait_dict(entry["wait"])}
            for name, entry in sorted(askfor.items())
        },
        "asyncvar": {
            name: {"blocked": entry["blocked"],
                   "by_op": dict(sorted(entry["by_op"].items())),
                   "wait": wait_dict(entry["wait"])}
            for name, entry in sorted(asyncvar.items())
        },
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def render_trace_summary(summary: dict[str, Any], *,
                         as_json: bool = False) -> str:
    """Render a :func:`summarize_events` result (text or JSON)."""
    if as_json:
        return json.dumps(summary, indent=2, sort_keys=True)
    lines = [f"processes: {len(summary['processes'])} "
             f"({', '.join(summary['processes'])})",
             f"events:    {summary['events']}"]

    barriers = summary.get("barriers", {})
    if barriers.get("episodes") or barriers.get("waits"):
        wait = barriers["wait"]
        lines.append("--- barriers ---")
        lines.append(f"episodes:            {barriers['episodes']}")
        lines.append(f"waits:               {barriers['waits']} "
                     f"(mean {_fmt_s(wait['mean_s'])}, "
                     f"max {_fmt_s(wait['max_s'])}, "
                     f"spread {_fmt_s(wait['spread_s'])})")

    criticals = summary.get("criticals", {})
    if criticals:
        lines.append("--- critical sections ---")
        for name, entry in sorted(criticals.items()):
            lines.append(
                f"{name:18s} {entry['acquisitions']:>8d} acq, "
                f"{entry['contended']:>6d} contended, "
                f"waited {_fmt_s(entry['wait']['total_s'])}, "
                f"held {_fmt_s(entry['hold']['total_s'])}")

    selfsched = summary.get("selfsched", {})
    if selfsched:
        lines.append("--- selfscheduled loops ---")
        for name, entry in sorted(selfsched.items()):
            histogram = " ".join(
                f"{proc}:{chunks}"
                for proc, chunks in entry["per_process"].items())
            lines.append(f"{name:18s} {entry['chunks']:>8d} chunks "
                         f"[{histogram}]")

    askfor = summary.get("askfor", {})
    if askfor:
        lines.append("--- askfor pools ---")
        for name, entry in sorted(askfor.items()):
            lines.append(
                f"{name:18s} put {entry['put']}, got {entry['got']}, "
                f"blocked {_fmt_s(entry['wait']['total_s'])}")

    asyncvar = summary.get("asyncvar", {})
    if asyncvar:
        lines.append("--- asynchronous variables ---")
        for name, entry in sorted(asyncvar.items()):
            ops = " ".join(f"{op}:{n}"
                           for op, n in entry["by_op"].items())
            lines.append(
                f"{name:18s} {entry['blocked']:>8d} blocked ops "
                f"[{ops}], {_fmt_s(entry['wait']['total_s'])} blocked")

    return "\n".join(lines)
