"""``force profile`` rendering: contention, timeline, folded stacks.

Three views over one :class:`~repro.obsv.analyze.TraceAnalysis`:

* :func:`render_profile` — the human report: contention ranking,
  barrier-episode wait spread, selfsched dispatch balance, a
  per-lane utilization timeline, and the critical-path attribution;
* :func:`folded_stacks` — ``lane;category;name <weight>`` lines, the
  folded-stack format flamegraph.pl and speedscope load directly
  (weights are integer µs for native traces, cycles for simulated
  ones);
* :func:`utilization_timeline` — the fixed-resolution busy/wait
  character matrix the report embeds (exposed for tests).
"""

from __future__ import annotations

from repro.obsv.analyze import Span, TraceAnalysis

#: timeline resolution (characters across the makespan)
_TIMELINE_COLS = 60

#: timeline glyphs: busy / waiting / outside the lane's lifetime
_BUSY, _WAIT, _IDLE = "#", ".", " "


def _fmt(value: float, clock: str) -> str:
    if clock == "cycles":
        return str(int(round(value)))
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


def utilization_timeline(analysis: TraceAnalysis,
                         cols: int = _TIMELINE_COLS
                         ) -> dict[str, str]:
    """lane -> one row of busy/wait/idle glyphs across the makespan."""
    makespan = analysis.makespan
    if makespan <= 0 or not analysis.lanes:
        return {lane: _IDLE * cols for lane in analysis.lanes}
    t_start = analysis.t_start
    step = makespan / cols
    waits_by_lane: dict[str, list[Span]] = {}
    for span in analysis.spans:
        if span.op == "wait":
            waits_by_lane.setdefault(span.lane, []).append(span)
    rows: dict[str, str] = {}
    for lane, row in analysis.lanes.items():
        first, last = row["first"], row["last"]
        waits = waits_by_lane.get(lane, [])
        glyphs = []
        for col in range(cols):
            a = t_start + col * step
            b = a + step
            if b <= first or a >= last:
                glyphs.append(_IDLE)
                continue
            waited = sum(min(b, s.t1) - max(a, s.t0)
                         for s in waits if s.t0 < b and s.t1 > a)
            glyphs.append(_WAIT if waited > (b - a) / 2 else _BUSY)
        rows[lane] = "".join(glyphs)
    return rows


def folded_stacks(analysis: TraceAnalysis) -> str:
    """Folded-stack lines (``frame;frame;... weight``).

    One stack per lane and attribution bucket: waits and holds fold
    as ``lane;wait|hold;kind;name``; the remaining active time folds
    as ``lane;compute``.  Weights are integers (µs native, cycles
    simulated), and zero-weight stacks are dropped — both required by
    flamegraph.pl.
    """
    scale = 1.0 if analysis.clock == "cycles" else 1e6
    weights: dict[str, float] = {}
    for span in analysis.spans:
        frames = f"{span.lane};{span.op};{span.kind}"
        if span.name:
            frames += f";{span.name}"
        weights[frames] = weights.get(frames, 0.0) + span.dur
    for lane, row in analysis.lanes.items():
        weights[f"{lane};compute"] = \
            weights.get(f"{lane};compute", 0.0) + row["compute"]
    lines = []
    for frames in sorted(weights):
        weight = int(round(weights[frames] * scale))
        if weight > 0:
            lines.append(f"{frames} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_profile(analysis: TraceAnalysis, *,
                   max_rows: int = 12) -> str:
    """The ``force profile`` text report."""
    clock = analysis.clock
    unit = "cycles" if clock == "cycles" else "wall"
    lines = [
        "=== force profile ===",
        f"clock: {clock}   makespan: {_fmt(analysis.makespan, clock)}"
        f"   lanes: {len(analysis.lanes)}",
    ]
    source = analysis.meta.get("source")
    if source:
        lines[-1] += f"   source: {source}"
    dropped = analysis.meta.get("dropped_events")
    if dropped:
        simulated = analysis.meta.get("clock") == "cycles"
        cause = ("simulator's trace bound; attribution is a lower "
                 "bound (trace a smaller run)" if simulated else
                 "ring buffer; attribution is a lower bound "
                 "(re-run with a larger --trace-buffer)")
        lines.append(f"WARNING: {dropped} event(s) were dropped by the "
                     f"{cause}")

    lines.append("")
    lines.append(f"--- contention ranking (by total {unit} wait) ---")
    ranked = [row for row in analysis.constructs
              if row["kind"] != "sched"][:max_rows]
    if ranked:
        lines.append(f"{'construct':<26s} {'acq':>6s} {'waiters':>8s} "
                     f"{'wait':>10s} {'wait_max':>10s} {'hold':>10s}")
        for row in ranked:
            label = f"{row['kind']}:{row['name']}" if row["name"] \
                else row["kind"]
            lines.append(
                f"{label:<26s} {row['acquisitions']:>6d} "
                f"{row['waiters']:>8d} "
                f"{_fmt(row['wait_total'], clock):>10s} "
                f"{_fmt(row['wait_max'], clock):>10s} "
                f"{_fmt(row['hold_total'], clock):>10s}")
    else:
        lines.append("(no construct activity recorded)")

    if analysis.barrier_episodes:
        lines.append("")
        lines.append("--- barrier episodes (wait spread) ---")
        lines.append(f"{'t':>12s} {'waiters':>8s} {'mean':>10s} "
                     f"{'max':>10s} {'spread':>10s}")
        for row in analysis.barrier_episodes[:max_rows]:
            lines.append(
                f"{_fmt(row['t'], clock):>12s} {row['waiters']:>8d} "
                f"{_fmt(row['wait_mean'], clock):>10s} "
                f"{_fmt(row['wait_max'], clock):>10s} "
                f"{_fmt(row['spread'], clock):>10s}")

    if analysis.chunks:
        lines.append("")
        lines.append("--- selfsched dispatch ---")
        for label, row in sorted(analysis.chunks.items()):
            shares = row["per_lane"]
            imbalance = (max(shares.values()) / max(1, min(
                shares.values()))) if shares else 1.0
            lines.append(
                f"{label}: {row['chunks']} chunk(s), "
                f"{row['indices']} index(es), "
                f"per-lane imbalance {imbalance:.2f}x")

    lines.append("")
    lines.append("--- utilization timeline "
                 f"({_BUSY}=busy {_WAIT}=waiting) ---")
    for lane, glyphs in sorted(
            utilization_timeline(analysis).items()):
        row = analysis.lanes[lane]
        busy = row["active"] - row["wait"]
        ratio = busy / analysis.makespan if analysis.makespan else 0.0
        lines.append(f"{lane:<14s} |{glyphs}| {ratio * 100:5.1f}%")

    path = analysis.critical_path
    lines.append("")
    lines.append("--- critical path ---")
    lines.append(f"coverage: {path['coverage'] * 100:.1f}% of makespan "
                 f"explained by {len(path['segments'])} segment(s)")
    for category, share in sorted(path["shares"].items(),
                                  key=lambda kv: -kv[1]):
        lines.append(f"  {category:<12s} {share * 100:5.1f}%")
    named = sorted(path["by_name"].items(), key=lambda kv: -kv[1])
    if named:
        lines.append("by construct:")
        for key, share in named[:max_rows]:
            lines.append(f"  {key:<24s} {share * 100:5.1f}%")
    return "\n".join(lines)
