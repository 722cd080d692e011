"""Runtime instrumentation for the native Force (opt-in).

``Force(nproc, stats=True)`` gives every Force process a
:class:`ForceStats` count reducer, fed by the run's
:class:`~repro.runtime.probe.Probe` from the same call that writes the
trace and the metrics, in the spirit of the barrier/lock cost
methodology of Mellor-Crummey & Scott: per-construct counters and
wait-time accumulators —

* barrier episodes completed, per-process wait times and their spread;
* critical-section acquisitions and contention per section name;
* selfscheduled chunks dispatched per loop label;
* Askfor pool traffic (``total_put``/``total_got``/max queue depth);
* asynchronous-variable blocked events and blocked time per name.

Each reducer has a single writer, so recording takes no lock; reads
fold the per-process reducers with :meth:`ForceStats.merge`.  The
folded collector is a plain dict away (:meth:`ForceStats.as_dict`) and
rendered by :func:`render_stats`, which the ``force run --stats`` CLI
shares with compiled-program simulation statistics so both execution
paths report through one format.
"""

from __future__ import annotations

from typing import Any


class WaitStat:
    """Count / total / min / max of wait durations (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "WaitStat") -> None:
        """Fold another collector's stat into this one.

        An empty ``other`` (``count == 0``) contributes nothing — its
        sentinel ``min`` of +inf and ``max`` of 0.0 must not leak into
        the merged extremes.
        """
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> dict[str, float]:
        # count == 0 (never recorded, or merged only from empty
        # collectors) reports zeros, never the +inf min sentinel.
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.total / self.count if self.count else 0.0,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max if self.count else 0.0,
            "spread_s": (self.max - self.min) if self.count else 0.0,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "WaitStat":
        stat = cls()
        stat.count = int(data.get("count", 0))
        stat.total = float(data.get("total_s", 0.0))
        if stat.count:
            stat.min = float(data.get("min_s", 0.0))
            stat.max = float(data.get("max_s", 0.0))
        return stat


class ForceStats:
    """Per-construct counters: one Force process's count reducer.

    The reducer methods share their signatures with
    :class:`~repro.obsv.metrics.ForceMetrics`, so the probe feeds both
    from one call.  Not thread-safe: each process writes its own
    instance and readers :meth:`merge` them.
    """

    def __init__(self, nproc: int) -> None:
        self.nproc = nproc
        self.barrier_episodes = 0
        self.barrier_wait = WaitStat()
        self.criticals: dict[str, dict[str, Any]] = {}
        self.selfsched_chunks: dict[str, dict[str, int]] = {}
        self.pools: dict[str, dict[str, int]] = {}
        self.asyncvar: dict[str, WaitStat] = {}

    def barrier(self, waited: float, released: bool) -> None:
        """One arrival; ``released`` when it completed the episode."""
        self.barrier_wait.record(waited)
        if released:
            self.barrier_episodes += 1

    def critical(self, name: str, waited: float, contended: bool,
                 held: float) -> None:
        """One critical-section round (hold time is a metrics fact)."""
        entry = self.criticals.get(name)
        if entry is None:
            entry = {"acquisitions": 0, "contended": 0,
                     "wait": WaitStat()}
            self.criticals[name] = entry
        entry["acquisitions"] += 1
        if contended:
            entry["contended"] += 1
            entry["wait"].record(waited)

    def selfsched_chunk(self, label: str, size: int) -> None:
        """One chunk dispatch of ``size`` indices.

        A chunk costs one critical-section acquisition regardless of
        its size, so ``chunks`` counts lock traffic while ``indices``
        counts work handed out — the ratio is the dispatch granularity.
        """
        entry = self.selfsched_chunks.get(label)
        if entry is None:
            entry = {"chunks": 0, "indices": 0, "max_chunk": 0}
            self.selfsched_chunks[label] = entry
        entry["chunks"] += 1
        entry["indices"] += size
        if size > entry["max_chunk"]:
            entry["max_chunk"] = size

    def askfor(self, pool: str, *, total_put: int, total_got: int,
               max_depth: int) -> None:
        self.pools[pool] = {"total_put": total_put,
                             "total_got": total_got,
                             "max_depth": max_depth}

    def asyncvar_block(self, name: str, seconds: float) -> None:
        stat = self.asyncvar.get(name)
        if stat is None:
            stat = WaitStat()
            self.asyncvar[name] = stat
        stat.record(seconds)

    def checkpoint_written(self, nbytes: int) -> None:
        """Snapshots are counted by the metrics reducer only."""

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ForceStats":
        """Rebuild a collector from :meth:`as_dict` output."""
        stats = cls(int(data.get("nproc", 1)))
        barriers = data.get("barriers") or {}
        stats.barrier_episodes = int(barriers.get("episodes", 0))
        if barriers.get("wait"):
            stats.barrier_wait = WaitStat.from_dict(barriers["wait"])
        for name, entry in (data.get("criticals") or {}).items():
            stats.criticals[name] = {
                "acquisitions": int(entry["acquisitions"]),
                "contended": int(entry["contended"]),
                "wait": WaitStat.from_dict(entry["wait"]),
            }
        for label, entry in (data.get("selfsched") or {}).items():
            stats.selfsched_chunks[label] = dict(entry)
        for name, entry in (data.get("askfor") or {}).items():
            stats.pools[name] = dict(entry)
        for name, entry in (data.get("asyncvar") or {}).items():
            stats.asyncvar[name] = WaitStat.from_dict(entry)
        return stats

    # -- merging -------------------------------------------------------
    def merge(self, other: "ForceStats") -> None:
        """Fold another collector into this one (lanes, multi-run reports).

        Wait statistics merge through :meth:`WaitStat.merge`, so empty
        sections on either side never poison min/max extremes.
        """
        self.barrier_episodes += other.barrier_episodes
        self.barrier_wait.merge(other.barrier_wait)
        for name, entry in other.criticals.items():
            mine = self.criticals.get(name)
            if mine is None:
                mine = {"acquisitions": 0, "contended": 0,
                        "wait": WaitStat()}
                self.criticals[name] = mine
            mine["acquisitions"] += entry["acquisitions"]
            mine["contended"] += entry["contended"]
            mine["wait"].merge(entry["wait"])
        for label, entry in other.selfsched_chunks.items():
            mine = self.selfsched_chunks.get(label)
            if mine is None:
                mine = {"chunks": 0, "indices": 0, "max_chunk": 0}
                self.selfsched_chunks[label] = mine
            mine["chunks"] += entry["chunks"]
            mine["indices"] += entry["indices"]
            mine["max_chunk"] = max(mine["max_chunk"],
                                    entry["max_chunk"])
        for name, entry in other.pools.items():
            mine = self.pools.get(name)
            if mine is None:
                self.pools[name] = dict(entry)
            else:
                mine["total_put"] += entry["total_put"]
                mine["total_got"] += entry["total_got"]
                mine["max_depth"] = max(mine["max_depth"],
                                        entry["max_depth"])
        for name, stat in other.asyncvar.items():
            mine = self.asyncvar.get(name)
            if mine is None:
                mine = WaitStat()
                self.asyncvar[name] = mine
            mine.merge(stat)

    # -- export --------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {
            "nproc": self.nproc,
            "barriers": {
                "episodes": self.barrier_episodes,
                "wait": self.barrier_wait.as_dict(),
            },
            "criticals": {
                name: {
                    "acquisitions": entry["acquisitions"],
                    "contended": entry["contended"],
                    "wait": entry["wait"].as_dict(),
                }
                for name, entry in sorted(self.criticals.items())
            },
            "selfsched": {label: dict(entry)
                          for label, entry in
                          sorted(self.selfsched_chunks.items())},
            "askfor": {name: dict(v)
                       for name, v in sorted(self.pools.items())},
            "asyncvar": {name: stat.as_dict()
                         for name, stat in sorted(self.asyncvar.items())},
        }

    def render(self) -> str:
        return render_stats(self.as_dict())


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def render_stats(stats: dict[str, Any]) -> str:
    """Render a stats dict (native runtime and/or simulator sections).

    Understands the native sections produced by
    :meth:`ForceStats.as_dict` and a ``sim`` section produced by the
    pipeline (see :func:`repro.pipeline.run.sim_stats_dict`); unknown
    or absent sections are simply skipped, so both execution paths
    share this one renderer.
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

    barriers = stats.get("barriers")
    if barriers and barriers["wait"]["count"]:
        wait = barriers["wait"]
        lines.append("--- barriers ---")
        lines.append(f"episodes:            {barriers['episodes']}")
        lines.append(f"waits:               {wait['count']} "
                     f"(mean {_fmt_s(wait['mean_s'])}, "
                     f"max {_fmt_s(wait['max_s'])}, "
                     f"spread {_fmt_s(wait['spread_s'])})")

    # Per-name sections are sorted here, not only in as_dict(): a
    # stats dict merged from several collectors (or loaded back from
    # JSON) renders in the same stable order regardless of insertion.
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
            if isinstance(entry, int):
                # pre-chunking stats dicts loaded back from JSON
                lines.append(
                    f"{label:18s} {entry:>8d} chunks dispatched")
                continue
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
