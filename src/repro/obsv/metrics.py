"""The metrics registry: counters, gauges, bounded histograms.

One :class:`MetricsRegistry` holds every metric of one run, keyed by
``(name, sorted label items)``.  Three metric types cover the runtime's
needs:

* :class:`Counter` — monotonically increasing totals (episodes,
  acquisitions, chunks);
* :class:`Gauge` — last-value-wins measurements (process count, pool
  depth, wall clock);
* :class:`Histogram` — wait/hold duration distributions with fixed
  cumulative buckets (the Prometheus contract) **and** a bounded
  reservoir for quantiles: while fewer than ``reservoir`` samples have
  arrived every observation is kept; on overflow the reservoir is
  decimated (every second sample kept, sampling stride doubled), so
  memory stays bounded, the kept samples spread across the whole run,
  and the process is deterministic — no RNG in the hot path.

Cost model: a Force constructed without ``metrics=True`` or
``stats=True`` keeps no registry at all.  With either, every Force
process records into a :class:`ForceMetrics` reducer of its own, fed
by the run's :class:`~repro.runtime.probe.Probe` (one dict lookup + a
few float ops), and reads fold the processes' registries with
:meth:`MetricsRegistry.merge`; ``Force.stats`` is :func:`stats_view`
of that fold.

Exports: :meth:`MetricsRegistry.to_prometheus` (text exposition
format) and :meth:`MetricsRegistry.as_dict` (JSON document, schema
checked by :func:`validate_metrics`).  Registries pickle (the process
backend ships each worker's registry to the parent) and
:meth:`MetricsRegistry.merge` folds them together.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

#: JSON export schema version
METRICS_SCHEMA = 1

#: default histogram buckets for native (seconds) observations
SECONDS_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
#: default histogram buckets for simulated (cycle) observations
CYCLES_BUCKETS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)

#: quantiles reported by histogram exports
QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _fmt_float(value: float) -> str:
    """Prometheus-friendly number rendering (no trailing zeros)."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict[str, Any]:
        return {"value": self.value}

    def load(self, data: dict[str, Any]) -> None:
        self.value = float(data.get("value", 0.0))


class Gauge:
    __slots__ = ("value", "_mode")

    kind = "gauge"

    def __init__(self, mode: str = "last") -> None:
        #: merge discipline: "last" | "max" | "sum"
        self._mode = mode
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        if self._mode == "sum":
            self.value += other.value
        elif self._mode == "max":
            self.value = max(self.value, other.value)
        else:
            self.value = other.value

    def as_dict(self) -> dict[str, Any]:
        return {"value": self.value}

    def load(self, data: dict[str, Any]) -> None:
        self.value = float(data.get("value", 0.0))


class Histogram:
    """Cumulative-bucket histogram with a bounded reservoir."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min",
                 "max", "reservoir", "capacity", "stride")

    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = SECONDS_BUCKETS,
                 reservoir: int = 512) -> None:
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # + +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.capacity = max(8, int(reservoir))
        self.reservoir: list[float] = []
        self.stride = 1

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        # Deterministic bounded reservoir: keep every stride-th sample;
        # on overflow decimate (drop every other kept sample) and
        # double the stride, so retention spreads over the whole run.
        if self.count % self.stride == 0:
            self.reservoir.append(value)
            if len(self.reservoir) >= self.capacity:
                self.reservoir = self.reservoir[::2]
                self.stride *= 2

    def quantile(self, q: float) -> float:
        if not self.reservoir:
            return 0.0
        ordered = sorted(self.reservoir)
        index = min(len(ordered) - 1,
                    max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def merge(self, other: "Histogram") -> None:
        if other.count == 0:
            return
        if other.buckets != self.buckets:
            # Re-bucket through the reservoir: approximate but bounded.
            for value in other.reservoir:
                self.observe(value)
            self.count += other.count - len(other.reservoir)
            self.sum += other.sum - sum(other.reservoir)
            return
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in enumerate(other.bucket_counts):
            self.bucket_counts[index] += n
        for value in other.reservoir:
            self.reservoir.append(value)
            if len(self.reservoir) >= self.capacity:
                self.reservoir = self.reservoir[::2]
                self.stride *= 2

    def as_dict(self) -> dict[str, Any]:
        cumulative: dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            cumulative[_fmt_float(bound)] = running
        cumulative["+Inf"] = self.count
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": cumulative,
            "quantiles": {f"p{int(q * 100)}": self.quantile(q)
                          for q in QUANTILES},
        }

    def load(self, data: dict[str, Any]) -> None:
        self.count = int(data.get("count", 0))
        self.sum = float(data.get("sum", 0.0))
        if self.count:
            self.min = float(data.get("min", 0.0))
            self.max = float(data.get("max", 0.0))
        cumulative = data.get("buckets", {})
        bounds = [float("inf") if key == "+Inf" else float(key)
                  for key in cumulative]
        self.buckets = tuple(b for b in sorted(bounds)
                             if b != float("inf"))
        counts = [cumulative[_fmt_float(b)] for b in self.buckets]
        self.bucket_counts = []
        previous = 0
        for running in counts:
            self.bucket_counts.append(int(running) - previous)
            previous = int(running)
        self.bucket_counts.append(self.count - previous)
        # Quantile detail is approximated from the exported quantiles.
        self.reservoir = [float(v)
                          for v in data.get("quantiles", {}).values()
                          if self.count]


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge,
                 "histogram": Histogram}


class MetricsRegistry:
    """All metrics of one run, keyed by (name, labels)."""

    def __init__(self, namespace: str = "force") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        #: (name, labelitems) -> metric
        self._metrics: dict[tuple[str, tuple], Any] = {}
        #: name -> (kind, help, constructor kwargs)
        self._families: dict[str, tuple[str, str, dict]] = {}

    # ------------------------------------------------------------------
    # registration / lookup
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, help_text: str,
             labels: dict[str, str] | None, **kwargs: Any) -> Any:
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None and metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, requested {kind}")
            if metric is None:
                family = self._families.get(name)
                if family is None:
                    self._families[name] = (kind, help_text, kwargs)
                elif family[0] != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family[0]}, requested {kind}")
                else:
                    kwargs = family[2]
                metric = _METRIC_TYPES[kind](**kwargs)
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, labels: dict[str, str] | None = None,
                help: str = "") -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, labels: dict[str, str] | None = None,
              help: str = "", mode: str = "last") -> Gauge:
        return self._get("gauge", name, help, labels, mode=mode)

    def histogram(self, name: str,
                  labels: dict[str, str] | None = None, help: str = "",
                  buckets: Iterable[float] = SECONDS_BUCKETS,
                  reservoir: int = 512) -> Histogram:
        return self._get("histogram", name, help, labels,
                         buckets=tuple(buckets), reservoir=reservoir)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def _snapshot(self) -> list[tuple[str, dict[str, str], Any]]:
        with self._lock:
            items = [(name, dict(labelitems), metric)
                     for (name, labelitems), metric
                     in self._metrics.items()]
        return sorted(items, key=lambda item: (item[0],
                                               sorted(item[1].items())))

    def as_dict(self) -> dict[str, Any]:
        """The JSON export (see :func:`validate_metrics`)."""
        metrics = []
        for name, labels, metric in self._snapshot():
            entry: dict[str, Any] = {
                "name": f"{self.namespace}_{name}",
                "type": metric.kind,
                "help": self._families.get(name, ("", "", {}))[1],
                "labels": labels,
            }
            entry.update(metric.as_dict())
            metrics.append(entry)
        return {"schema": METRICS_SCHEMA, "namespace": self.namespace,
                "metrics": metrics}

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: list[str] = []
        seen_families: set[str] = set()
        for name, labels, metric in self._snapshot():
            full = f"{self.namespace}_{name}"
            if full not in seen_families:
                seen_families.add(full)
                kind, help_text, _ = self._families.get(
                    name, (metric.kind, "", {}))
                if help_text:
                    lines.append(f"# HELP {full} {help_text}")
                lines.append(f"# TYPE {full} {metric.kind}")
            label_text = _labels_text(labels)
            if metric.kind in ("counter", "gauge"):
                lines.append(
                    f"{full}{label_text} {_fmt_float(metric.value)}")
                continue
            data = metric.as_dict()
            for bound, running in data["buckets"].items():
                bucket_labels = _labels_text({**labels, "le": bound})
                lines.append(f"{full}_bucket{bucket_labels} {running}")
            lines.append(f"{full}_sum{label_text} "
                         f"{_fmt_float(data['sum'])}")
            lines.append(f"{full}_count{label_text} {data['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # merge / transport
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        with other._lock:
            items = list(other._metrics.items())
            families = dict(other._families)
        with self._lock:
            for name, family in families.items():
                self._families.setdefault(name, family)
        for (name, labelitems), metric in items:
            kind, help_text, kwargs = families.get(
                name, (metric.kind, "", {}))
            mine = self._get(kind, name, help_text, dict(labelitems),
                             **kwargs)
            mine.merge(metric)

    def load_dict(self, document: dict[str, Any]) -> None:
        """Merge a :meth:`as_dict` document back into this registry."""
        prefix = f"{document.get('namespace', self.namespace)}_"
        for entry in document.get("metrics", []):
            name = entry["name"]
            if name.startswith(prefix):
                name = name[len(prefix):]
            kind = entry.get("type", "gauge")
            kwargs: dict[str, Any] = {}
            if kind == "histogram":
                bounds = [float(k) for k in entry.get("buckets", {})
                          if k != "+Inf"]
                if bounds:
                    kwargs["buckets"] = tuple(sorted(bounds))
            fresh = _METRIC_TYPES[kind](**kwargs)
            fresh.load(entry)
            mine = self._get(kind, name, entry.get("help", ""),
                             entry.get("labels") or {}, **kwargs)
            mine.merge(fresh)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(value)}"'
        for key, value in sorted(labels.items()))
    return "{" + body + "}"


def _escape(value: Any) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"") \
        .replace("\n", r"\n")


def validate_metrics(document: Any) -> list[str]:
    """Schema-check a metrics JSON export; ``[]`` means valid."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["top level must be a JSON object"]
    if document.get("schema") != METRICS_SCHEMA:
        errors.append(f"schema must be {METRICS_SCHEMA}")
    metrics = document.get("metrics")
    if not isinstance(metrics, list):
        return errors + ["'metrics' must be a list"]
    for index, entry in enumerate(metrics):
        where = f"metrics[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            errors.append(f"{where}: missing string 'name'")
        kind = entry.get("type")
        if kind not in _METRIC_TYPES:
            errors.append(f"{where}: unknown type {kind!r}")
            continue
        if not isinstance(entry.get("labels"), dict):
            errors.append(f"{where}: missing 'labels' object")
        if kind in ("counter", "gauge"):
            if not isinstance(entry.get("value"), (int, float)):
                errors.append(f"{where}: missing numeric 'value'")
            continue
        for key in ("count", "sum", "min", "max"):
            if not isinstance(entry.get(key), (int, float)):
                errors.append(f"{where}: missing numeric {key!r}")
        buckets = entry.get("buckets")
        if not isinstance(buckets, dict) or "+Inf" not in buckets:
            errors.append(f"{where}: histogram needs cumulative "
                          "'buckets' ending at '+Inf'")
        else:
            # JSON writers may reorder keys (sort_keys puts "+Inf"
            # first and sorts bounds as strings); cumulativeness is a
            # property of the *numeric* bound order.
            try:
                in_order = sorted(
                    buckets.items(),
                    key=lambda item: float("inf") if item[0] == "+Inf"
                    else float(item[0]))
            except ValueError:
                errors.append(f"{where}: bucket bounds must be "
                              "numbers or '+Inf'")
                in_order = []
            running = -1
            for _bound, value in in_order:
                if not isinstance(value, int) or value < running:
                    errors.append(f"{where}: bucket counts must be "
                                  "cumulative non-decreasing ints")
                    break
                running = value
            if isinstance(entry.get("count"), int) \
                    and buckets["+Inf"] != entry["count"]:
                errors.append(f"{where}: +Inf bucket must equal count")
        if not isinstance(entry.get("quantiles"), dict):
            errors.append(f"{where}: histogram needs 'quantiles'")
    return errors


# ----------------------------------------------------------------------
# the runtime facade
# ----------------------------------------------------------------------
class ForceMetrics:
    """The runtime's metric surface over one registry.

    Each Force process's one count reducer (the probe feeds it every
    barrier, critical, chunk and asyncvar fact), and the one place the
    metric names and label conventions live; :func:`stats_view` reads
    the ``Force.stats`` document off a folded registry:

    ========================================  ======================
    metric                                    labels
    ========================================  ======================
    ``force_barrier_episodes_total``          —
    ``force_barrier_wait_seconds``            —
    ``force_critical_acquisitions_total``     ``name``
    ``force_critical_contended_total``        ``name``
    ``force_critical_wait_seconds``           ``name``
    ``force_critical_hold_seconds``           ``name``
    ``force_selfsched_chunks_total``          ``label``
    ``force_selfsched_indices_total``         ``label``
    ``force_selfsched_chunk_max``             ``label``
    ``force_askfor_put_total``                ``pool``
    ``force_askfor_got_total``                ``pool``
    ``force_askfor_depth_max``                ``pool``
    ``force_asyncvar_blocked_seconds``        ``name``
    ``force_processes``                       —
    ``force_run_wall_seconds``                —
    ``force_checkpoints_written_total``       —
    ``force_checkpoint_bytes_total``          —
    ``force_recoveries_total``                —
    ``force_retries_total``                   —
    ``force_degraded_restarts_total``         —
    ========================================  ======================
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry()

    # -- barriers ------------------------------------------------------
    def barrier(self, waited: float, released: bool) -> None:
        self.registry.histogram(
            "barrier_wait_seconds",
            help="Time blocked at the barrier").observe(waited)
        if released:
            self.registry.counter(
                "barrier_episodes_total",
                help="Barrier episodes completed").inc()

    # -- critical sections ---------------------------------------------
    def critical(self, name: str, waited: float, contended: bool,
                 held: float) -> None:
        reg = self.registry
        labels = {"name": name}
        reg.counter("critical_acquisitions_total", labels,
                    help="Critical-section acquisitions").inc()
        if contended:
            reg.counter("critical_contended_total", labels,
                        help="Contended critical entries").inc()
            reg.histogram("critical_wait_seconds", labels,
                          help="Time blocked entering a critical "
                               "section").observe(waited)
        reg.histogram("critical_hold_seconds", labels,
                      help="Time the critical section was "
                           "held").observe(held)

    # -- selfscheduled loops -------------------------------------------
    def selfsched_chunk(self, label: str, size: int) -> None:
        reg = self.registry
        labels = {"label": label}
        reg.counter("selfsched_chunks_total", labels,
                    help="Chunk dispatches (one lock round "
                         "each)").inc()
        reg.counter("selfsched_indices_total", labels,
                    help="Loop indices handed out").inc(size)
        chunk_max = reg.gauge("selfsched_chunk_max", labels,
                              help="Largest chunk handed out",
                              mode="max")
        if size > chunk_max.value:
            chunk_max.set(size)

    # -- askfor / asyncvar ---------------------------------------------
    def askfor(self, pool: str, *, total_put: int, total_got: int,
               max_depth: int) -> None:
        reg = self.registry
        labels = {"pool": pool}
        reg.gauge("askfor_put_total", labels,
                  help="Work items put", mode="max").set(total_put)
        reg.gauge("askfor_got_total", labels,
                  help="Work items got", mode="max").set(total_got)
        reg.gauge("askfor_depth_max", labels,
                  help="Maximum pool depth", mode="max").set(max_depth)

    def asyncvar_block(self, name: str, seconds: float) -> None:
        self.registry.histogram(
            "asyncvar_blocked_seconds", {"name": name},
            help="Time blocked on a full/empty "
                 "variable").observe(seconds)

    # -- recovery ------------------------------------------------------
    def checkpoint_written(self, nbytes: int) -> None:
        reg = self.registry
        reg.counter("checkpoints_written_total",
                    help="Snapshots serialized at barrier "
                         "episodes").inc()
        reg.counter("checkpoint_bytes_total",
                    help="Bytes of snapshot documents "
                         "written").inc(nbytes)

    def recovery(self, *, degraded: bool) -> None:
        reg = self.registry
        reg.counter("recoveries_total",
                    help="Runs resumed from a checkpoint").inc()
        if degraded:
            reg.counter("degraded_restarts_total",
                        help="Elastic restarts at reduced "
                             "nproc").inc()

    def retry(self) -> None:
        self.registry.counter(
            "retries_total",
            help="Supervised attempts after a transient "
                 "failure").inc()

    # -- run-level -----------------------------------------------------
    def run_info(self, nproc: int, wall_s: float | None = None) -> None:
        reg = self.registry
        reg.gauge("processes", help="Force width", mode="max").set(nproc)
        if wall_s is not None:
            reg.gauge("run_wall_seconds",
                      help="Wall-clock of the run",
                      mode="max").set(wall_s)


def wait_dict(histogram: Histogram | None) -> dict[str, float]:
    """A seconds histogram as ``{count,total_s,mean_s,min_s,max_s,
    spread_s}``: the wait sections of ``--stats`` and ``force trace``.
    An absent or empty histogram reports zeros, never the +inf min
    sentinel."""
    if histogram is None or not histogram.count:
        return {"count": 0, "total_s": 0.0, "mean_s": 0.0, "min_s": 0.0,
                "max_s": 0.0, "spread_s": 0.0}
    return {"count": histogram.count, "total_s": histogram.sum,
            "mean_s": histogram.sum / histogram.count,
            "min_s": histogram.min, "max_s": histogram.max,
            "spread_s": histogram.max - histogram.min}


def stats_view(registry: MetricsRegistry) -> dict[str, Any]:
    """The ``Force.stats`` document, read off a folded registry.

    Counters and gauges map to ints, histograms through
    :func:`wait_dict`; each per-name section is sorted by name.
    """
    #: family -> label value -> metric (ForceMetrics families carry at
    #: most one label each)
    series: dict[str, dict[str, Any]] = {}
    for name, labels, metric in registry._snapshot():
        series.setdefault(name, {})[next(iter(labels.values()), "")] = \
            metric

    def count(name: str, key: str = "") -> int:
        metric = series.get(name, {}).get(key)
        return int(metric.value) if metric is not None else 0

    def wait(name: str, key: str = "") -> dict[str, float]:
        return wait_dict(series.get(name, {}).get(key))

    return {
        "nproc": count("processes"),
        "barriers": {"episodes": count("barrier_episodes_total"),
                     "wait": wait("barrier_wait_seconds")},
        "criticals": {
            name: {"acquisitions": count("critical_acquisitions_total",
                                         name),
                   "contended": count("critical_contended_total", name),
                   "wait": wait("critical_wait_seconds", name)}
            for name in series.get("critical_acquisitions_total", {})},
        "selfsched": {
            label: {"chunks": count("selfsched_chunks_total", label),
                    "indices": count("selfsched_indices_total", label),
                    "max_chunk": count("selfsched_chunk_max", label)}
            for label in series.get("selfsched_chunks_total", {})},
        "askfor": {
            pool: {"total_put": count("askfor_put_total", pool),
                   "total_got": count("askfor_got_total", pool),
                   "max_depth": count("askfor_depth_max", pool)}
            for pool in series.get("askfor_put_total", {})},
        "asyncvar": {
            name: wait_dict(histogram) for name, histogram
            in series.get("asyncvar_blocked_seconds", {}).items()},
    }


def registry_from_sim(machine_key: str, nproc: int,
                      stats_dict: dict[str, Any],
                      events: list | None = None) -> MetricsRegistry:
    """Build a registry from a simulated run.

    The simulator already aggregates its interception points into
    :class:`~repro.sim.scheduler.SimStats`; this ingests that document
    (the ``sim`` section of ``stats_dict``) plus, when a trace was
    collected, the per-lock wait/hold spans recovered by the analysis
    engine — so simulated runs export through the same registry/format
    as native ones (histograms in cycles, buckets
    :data:`CYCLES_BUCKETS`).
    """
    registry = MetricsRegistry()
    sim = stats_dict.get("sim", stats_dict)
    registry.gauge("processes", help="Force width",
                   mode="max").set(nproc)
    registry.gauge("sim_makespan_cycles",
                   help="Simulated makespan").set(sim.get("makespan", 0))
    registry.gauge("sim_utilization_ratio",
                   help="Busy fraction across "
                        "processes").set(sim.get("utilization", 0.0))
    registry.counter("sim_lock_acquisitions_total",
                     help="Lock acquisitions").inc(
        sim.get("lock_acquisitions", 0))
    registry.counter("sim_contended_acquisitions_total",
                     help="Contended lock acquisitions").inc(
        sim.get("contended_acquisitions", 0))
    registry.counter("sim_spin_cycles_total",
                     help="Cycles burned spinning").inc(
        sim.get("spin_cycles", 0))
    registry.counter("sim_context_switches_total",
                     help="Context switches").inc(
        sim.get("context_switches", 0))
    if events:
        from repro.obsv.analyze import normalize_spans
        spans, _ = normalize_spans(events)
        for span in spans:
            if span.op == "hold":
                registry.histogram(
                    f"{span.kind}_hold_cycles", {"name": span.name},
                    help="Cycles a lock was held",
                    buckets=CYCLES_BUCKETS).observe(span.t1 - span.t0)
            elif span.op == "wait":
                registry.histogram(
                    f"{span.kind}_wait_cycles", {"name": span.name},
                    help="Cycles blocked waiting",
                    buckets=CYCLES_BUCKETS).observe(span.t1 - span.t0)
    return registry
