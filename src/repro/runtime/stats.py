"""The ``--stats`` report: one renderer for every execution path.

``Force(nproc, stats=True)`` counts per-construct facts, in the spirit
of the barrier/lock cost methodology of Mellor-Crummey & Scott —

* barrier episodes completed, per-process wait times and their spread;
* critical-section acquisitions and contention per section name;
* selfscheduled chunks and indices dispatched per loop label;
* Askfor pool traffic (``total_put``/``total_got``/max queue depth);
* asynchronous-variable blocked events and blocked time per name —

into the run's metrics registry; :attr:`Force.stats
<repro.runtime.force.Force.stats>` is a view of it
(:func:`repro.obsv.metrics.stats_view`).  :func:`render_stats` renders
that document, which the ``force run --stats`` CLI shares with
compiled-program simulation statistics so both execution paths report
through one format.
"""

from __future__ import annotations

from typing import Any


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def _labels(by_unit: dict[str, list[int]]) -> str:
    """``UNIT 10,20; OTHER 5`` for a unit -> loop labels map."""
    return "; ".join(f"{unit} {','.join(str(label) for label in labels)}"
                     for unit, labels in sorted(by_unit.items()))


def render_stats(stats: dict[str, Any]) -> str:
    """Render a stats dict (native runtime and/or simulator sections).

    Understands the native sections of ``Force.stats`` and a ``sim``
    section produced by the pipeline (see
    :func:`repro.pipeline.run.sim_stats_dict`); unknown or absent
    sections are simply skipped, so both execution paths share this
    one renderer.
    """
    lines: list[str] = []

    sim = stats.get("sim")
    if sim:
        lines.append("--- simulation ---")
        lines.append(f"machine:             {sim['machine']}")
        lines.append(f"processes:           {sim['processes']}")
        lines.append(f"makespan:            {sim['makespan']} cycles")
        lines.append(f"utilization:         {sim['utilization']:.2%}")
        lines.append(f"lock acquisitions:   {sim['lock_acquisitions']} "
                     f"({sim['contended_acquisitions']} contended)")
        lines.append(f"spin cycles:         {sim['spin_cycles']}")
        lines.append(f"context switches:    {sim['context_switches']}")

    native = stats.get("native")
    if native:
        lines.append("--- native execution ---")
        lines.append(f"backend:             {native['backend']}")
        lines.append(f"processes:           {native['nproc']}")
        if native.get("wall_s") is not None:
            lines.append(f"wall clock:          "
                         f"{_fmt_s(native['wall_s'])}")
        for key, title in (("kernel_eligible", "kernel-eligible:"),
                           ("kernelized_doalls", "kernelized:")):
            if key in native:
                lines.append(f"{title:20s} "
                             f"{_labels(native[key]) or 'none'}")
        for unit, reasons in sorted(native.get("kernel_refused",
                                               {}).items()):
            for label, why in sorted(reasons.items()):
                lines.append(f"kernel refused:      {unit} {label}: "
                             f"{why}")

    barriers = stats.get("barriers")
    if barriers and barriers["wait"]["count"]:
        wait = barriers["wait"]
        lines.append("--- barriers ---")
        lines.append(f"episodes:            {barriers['episodes']}")
        lines.append(f"waits:               {wait['count']} "
                     f"(mean {_fmt_s(wait['mean_s'])}, "
                     f"max {_fmt_s(wait['max_s'])}, "
                     f"spread {_fmt_s(wait['spread_s'])})")

    # Per-name sections are sorted here too, so a stats dict built by
    # hand renders in the same stable order regardless of insertion.
    criticals = stats.get("criticals")
    if criticals:
        lines.append("--- critical sections ---")
        for name, entry in sorted(criticals.items()):
            wait = entry["wait"]
            lines.append(
                f"{name:18s} {entry['acquisitions']:>8d} acq, "
                f"{entry['contended']:>6d} contended, "
                f"waited {_fmt_s(wait['total_s'])}")

    selfsched = stats.get("selfsched")
    if selfsched:
        lines.append("--- selfscheduled loops ---")
        for label, entry in sorted(selfsched.items()):
            lines.append(
                f"{label:18s} {entry['chunks']:>8d} chunks, "
                f"{entry['indices']:>8d} indices "
                f"(max chunk {entry['max_chunk']})")

    askfor = stats.get("askfor")
    if askfor:
        lines.append("--- askfor pools ---")
        for name, entry in sorted(askfor.items()):
            lines.append(
                f"{name:18s} put {entry['total_put']}, "
                f"got {entry['total_got']}, "
                f"max depth {entry['max_depth']}")

    asyncvar = stats.get("asyncvar")
    if asyncvar:
        lines.append("--- asynchronous variables ---")
        for name, stat in sorted(asyncvar.items()):
            lines.append(
                f"{name:18s} {stat['count']:>8d} blocked waits, "
                f"{_fmt_s(stat['total_s'])} blocked")

    return "\n".join(lines)
