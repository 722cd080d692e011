"""Unified observability layer for both Force execution paths.

The native runtime (:mod:`repro.runtime`) and the simulator
(:mod:`repro.sim`) record the same structured :class:`TraceEvent`
stream — barrier episodes, critical-section wait/hold, selfscheduled
chunk dispatch, askfor traffic, full/empty blocking — so one set of
exporters, summaries and diagnostics serves both:

* :class:`TraceCollector` — bounded per-process ring buffers, written
  lock-free by the owning thread; negligible overhead when absent
  (every interception point pays a single ``is None`` test, exactly
  like the stats layer);
* :mod:`repro.trace.export` — Chrome trace-event JSON (open the file
  in Perfetto or ``chrome://tracing``), JSONL, and the classic text
  timeline, all rendered from the one event model;
* :class:`StallWatchdog` — a daemon sampler that dumps which process
  is parked on which construct when the event stream goes quiet;
* :mod:`repro.trace.summary` — post-processes a trace (events or a
  written file) into per-construct summaries, the ``force trace``
  subcommand.
"""

from repro.trace.collector import TraceCollector
from repro.trace.events import KINDS, TraceEvent
from repro.trace.export import (
    load_trace_file,
    to_chrome,
    to_jsonl,
    to_text,
    validate_chrome_trace,
    write_trace_file,
)
from repro.trace.summary import render_trace_summary, summarize_events
from repro.trace.watchdog import StallWatchdog, render_stall_report

__all__ = [
    "KINDS",
    "TraceEvent",
    "TraceCollector",
    "StallWatchdog",
    "render_stall_report",
    "to_chrome",
    "to_jsonl",
    "to_text",
    "write_trace_file",
    "load_trace_file",
    "validate_chrome_trace",
    "summarize_events",
    "render_trace_summary",
]
