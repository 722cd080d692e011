"""Outside-in layer tracing: wrappers around each layer's public entry points.

Each wrapper is installed where callers look the name up (a module
attribute or a class attribute) and records one span per call.  A
per-thread stack of open spans gives each span its self time: its
duration minus the durations of the spans it directly encloses.

Spans are kept in memory and written out once, as a Chrome trace.
Process-backend members are forked workers; the wrappers run in them
too, but their spans stay in the worker's memory, so the parse,
codegen and execution time inside a worker counts as the self time of
``runtime`` (``ProcessForce.run``), which waits for the workers.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import repro.pipeline.compile as pipeline_compile
import repro.pipeline.native as pipeline_native
import repro.pipeline.run as pipeline_run
from repro.fortran.codegen import CodegenProgram
from repro.m4.engine import M4Processor
from repro.runtime.force import Force
from repro.runtime.procforce import ProcessForce
from repro.sim.scheduler import Scheduler
from repro.trace.events import TraceEvent
from repro.trace.export import to_chrome, validate_chrome_trace

#: (layer, owner, attribute): the entry points wrapped, by layer
ENTRY_POINTS = (
    ("sedstage", pipeline_compile, "translate_force_source"),
    ("macros", pipeline_compile, "build_processor"),
    ("m4", M4Processor, "process"),
    ("pipeline.compile", pipeline_compile, "force_translate"),
    ("fortran.parser", pipeline_run, "parse_source"),
    ("fortran.parser", pipeline_native, "parse_source"),
    ("fortran.codegen", CodegenProgram, "unit_for"),
    ("sim", Scheduler, "run"),
    ("pipeline.run", pipeline_run, "force_run"),
    ("runtime", Force, "run"),
    ("runtime", ProcessForce, "run"),
    ("pipeline.native", pipeline_native, "native_run"),
)
#: the span around one whole op, recorded by the benchmark itself
OP = "op"

#: reported layer -> the traced layers it sums.  Only one engine runs
#: per workload (the simulator or the native runtime), so the two are
#: reported as one ``exec`` layer whose time is never zero.
REPORTED_LAYERS = {
    "sedstage": ("sedstage",),
    "macros": ("macros",),
    "m4": ("m4",),
    "pipeline.compile": ("pipeline.compile",),
    "fortran.parser": ("fortran.parser",),
    "fortran.codegen": ("fortran.codegen",),
    "exec": ("sim", "runtime"),
    "pipeline.exec": ("pipeline.run", "pipeline.native"),
}
#: per-op counts read from each op's public result
RESULT_COUNTS = (
    "fortran.codegen.units", "fortran.codegen.fallbacks",
    "fortran.codegen.kernelized", "fortran.codegen.kernel_eligible",
    "sim.statements", "sim.events", "sim.context_switches",
    "sim.lock_acquisitions", "sim.contended_acquisitions",
    "sim.spin_cycles", "sim.makespan_cycles", "runtime.barrier_episodes",
)


@dataclass(frozen=True)
class Span:
    layer: str
    thread: int
    start: float
    dur: float
    self_time: float


class LayerTracer:
    """Collects spans from the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.epoch = perf_counter()
        self._local = threading.local()

    def _record(self, layer: str, call, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        children = [0.0]
        stack.append(children)
        start = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            self.spans.append(Span(layer, threading.get_ident(), start,
                                   dur, dur - children[0]))

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(layer, fn, *args, **kwargs)
        return traced

    def op(self, call, *args, **kwargs):
        """Run one op under the root ``op`` span."""
        return self._record(OP, call, *args, **kwargs)

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        for layer, owner, name in ENTRY_POINTS:
            # class attributes are read from the class's own dict so a
            # subclass override (ProcessForce.run) is wrapped on its own
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))
        try:
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- reductions ----------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Layer -> {"self_s", "wall_s", "calls"} summed over all spans."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
        for span in self.spans:
            entry = out[span.layer]
            entry["self_s"] += span.self_time
            entry["wall_s"] += span.dur
            entry["calls"] += 1
        return out

    def chrome_trace(self, meta: dict | None = None) -> dict:
        """The spans as a Chrome trace document (validated)."""
        lanes: dict[int, str] = {}
        events = []
        for span in self.spans:
            lane = lanes.setdefault(span.thread, f"thread-{len(lanes)}")
            events.append(TraceEvent(
                ts=span.start - self.epoch, proc=lane, kind="layer",
                name=span.layer, phase="X", dur=span.dur,
                args={"self_us": round(span.self_time * 1e6, 3)}))
        document = to_chrome(events, meta=meta)
        errors = validate_chrome_trace(document)
        if errors:
            raise ValueError("invalid Chrome trace: " + "; ".join(errors))
        return document


def result_counts(case, result) -> dict[str, int]:
    """The :data:`RESULT_COUNTS` of one op (those that apply to it)."""
    if case.backend is not None:
        stats = result.force_stats or {}
        return {"runtime.barrier_episodes":
                stats.get("barriers", {}).get("episodes", 0)}
    sim = result.stats
    return {
        "fortran.codegen.units": len(result.codegen_sources),
        "fortran.codegen.fallbacks": len(result.compile_fallbacks),
        "fortran.codegen.kernelized": sum(
            len(labels) for labels in result.kernelized_doalls.values()),
        "fortran.codegen.kernel_eligible": sum(
            len(labels) for labels in result.kernel_eligible.values()),
        "sim.statements": sim.statements,
        "sim.events": sim.events,
        "sim.context_switches": sim.context_switches,
        "sim.lock_acquisitions": sim.lock_acquisitions,
        "sim.contended_acquisitions": sim.contended_acquisitions,
        "sim.spin_cycles": sim.spin_cycles,
        "sim.makespan_cycles": sim.makespan,
    }


def layer_metrics(tracer: LayerTracer, counts: dict[str, int],
                  ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), over ``ops`` traced ops
    whose :func:`result_counts` sum to ``counts``."""
    totals = tracer.totals()
    op_wall = totals[OP]["wall_s"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, members in REPORTED_LAYERS.items():
        self_s = sum(totals[member]["self_s"] for member in members)
        metrics[f"{name}.self_ms"] = (1e3 * self_s / ops, "ms")
        metrics[f"{name}.share"] = (self_s / op_wall, "ratio")
    for name, layer in (("m4.process_calls", "m4"),
                        ("fortran.parser.calls", "fortran.parser"),
                        ("fortran.codegen.unit_for_calls", "fortran.codegen")):
        metrics[name] = (totals[layer]["calls"] / ops, "count/op")
    for name in RESULT_COUNTS:
        metrics[name] = (counts.get(name, 0) / ops, "count/op")
    eligible = counts.get("fortran.codegen.kernel_eligible", 0)
    kernelized = counts.get("fortran.codegen.kernelized", 0)
    metrics["fortran.codegen.kernel_ratio"] = (
        kernelized / eligible if eligible else 0.0, "ratio")
    sim_self = totals["sim"]["self_s"]
    statements = counts.get("sim.statements", 0)
    metrics["sim.stmts_per_s"] = (
        statements / sim_self if sim_self else 0.0, "1/s")
    return metrics
