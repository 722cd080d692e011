"""The metrics registry: primitives, export schema, runtime wiring."""

import json
import pickle

import pytest

from repro._util.errors import ForceError
from repro.obsv.metrics import (
    CYCLES_BUCKETS,
    Counter,
    ForceMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_from_sim,
    validate_metrics,
)
from repro.runtime.force import Force


class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_max_mode_merge(self):
        a, b = Gauge(mode="max"), Gauge(mode="max")
        a.set(3)
        b.set(7)
        a.merge(b)
        assert a.value == 7


class TestHistogram:
    def test_buckets_are_cumulative(self):
        hist = Histogram(buckets=(1.0, 10.0), reservoir=16)
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        data = hist.as_dict()
        assert data["buckets"]["1"] == 1
        assert data["buckets"]["10"] == 2
        assert data["buckets"]["+Inf"] == 3
        assert data["count"] == 3
        assert data["min"] == 0.5
        assert data["max"] == 50.0

    def test_reservoir_stays_bounded(self):
        hist = Histogram(reservoir=32)
        for i in range(10_000):
            hist.observe(float(i))
        assert len(hist.reservoir) <= 32
        assert hist.count == 10_000
        # decimation is deterministic: same input, same reservoir
        other = Histogram(reservoir=32)
        for i in range(10_000):
            other.observe(float(i))
        assert other.reservoir == hist.reservoir

    def test_quantiles_track_distribution(self):
        hist = Histogram(reservoir=512)
        for i in range(1, 101):
            hist.observe(float(i))
        assert 40 <= hist.quantile(0.5) <= 60
        assert hist.quantile(0.99) >= 90

    def test_merge_adds_counts(self):
        a, b = Histogram(), Histogram()
        a.observe(1e-5)
        b.observe(1e-2)
        a.merge(b)
        assert a.count == 2
        assert a.max == 1e-2


class TestRegistry:
    def test_labels_key_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("acq_total", help="x", labels={"name": "A"}).inc()
        registry.counter("acq_total", help="x",
                         labels={"name": "B"}).inc(2)
        doc = registry.as_dict()
        values = {tuple(m["labels"].items()): m["value"]
                  for m in doc["metrics"]}
        assert values[(("name", "A"),)] == 1
        assert values[(("name", "B"),)] == 2

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing", help="x")
        with pytest.raises(ValueError):
            registry.gauge("thing", help="x")

    def test_export_validates(self):
        registry = MetricsRegistry()
        registry.counter("a_total", help="a").inc()
        registry.gauge("b", help="b").set(4)
        registry.histogram("c_seconds", help="c").observe(0.01)
        assert validate_metrics(registry.as_dict()) == []

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a_total", help="a").inc(3)
        registry.histogram("c_seconds", help="c").observe(0.02)
        doc = json.loads(json.dumps(registry.as_dict()))
        loaded = MetricsRegistry()
        loaded.load_dict(doc)
        assert loaded.as_dict() == registry.as_dict()

    def test_sorted_json_still_validates(self):
        # `force run --metrics x.json` writes with sort_keys=True,
        # which orders bucket bounds lexicographically ("+Inf" first,
        # "1e-05" after "10"); the validator must judge cumulativeness
        # in *numeric* bound order, not key order.
        registry = MetricsRegistry()
        hist = registry.histogram("c_seconds", help="c")
        for value in (5e-6, 3e-4, 0.002, 0.002, 0.7):
            hist.observe(value)
        doc = json.loads(json.dumps(registry.as_dict(), sort_keys=True))
        assert validate_metrics(doc) == []

    def test_merge_via_pickle(self):
        """The process backend's ship-and-merge path."""
        worker = MetricsRegistry()
        worker.counter("a_total", help="a").inc(2)
        clone = pickle.loads(pickle.dumps(worker))
        parent = MetricsRegistry()
        parent.counter("a_total", help="a").inc(1)
        parent.merge(clone)
        entry = parent.as_dict()["metrics"][0]
        assert entry["value"] == 3


class TestPrometheusExposition:
    def test_text_format_contract(self):
        registry = MetricsRegistry()
        registry.counter("critical_acquisitions_total",
                         help="Acquisitions",
                         labels={"name": "LCK"}).inc(5)
        hist = registry.histogram("critical_hold_seconds",
                                  help="Hold time")
        hist.observe(0.5e-3)
        hist.observe(2e-3)
        text = registry.to_prometheus()
        assert "# HELP force_critical_acquisitions_total " \
            "Acquisitions" in text
        assert "# TYPE force_critical_acquisitions_total counter" \
            in text
        assert 'force_critical_acquisitions_total{name="LCK"} 5' in text
        assert "# TYPE force_critical_hold_seconds histogram" in text
        assert 'force_critical_hold_seconds_bucket{le="0.001"} 1' in text
        assert 'force_critical_hold_seconds_bucket{le="+Inf"} 2' in text
        assert "force_critical_hold_seconds_count 2" in text

    def test_help_and_type_emitted_once_per_family(self):
        registry = MetricsRegistry()
        registry.counter("x_total", help="x", labels={"name": "A"}).inc()
        registry.counter("x_total", help="x", labels={"name": "B"}).inc()
        text = registry.to_prometheus()
        assert text.count("# TYPE force_x_total counter") == 1


def _program(force, me):
    with force.critical("acc"):
        counter = force.shared_counter("sum")
        counter.value += me
    force.barrier()
    for _i in force.selfsched_range("L10", 1, 20):
        pass
    force.barrier()


class TestForceWiring:
    def test_disabled_force_has_no_registry(self):
        force = Force(2)
        assert force.metrics_enabled is False
        with pytest.raises(ForceError):
            force.metrics_registry()

    def test_thread_backend_records_constructs(self):
        force = Force(4, metrics=True, stats=True)
        force.run(_program)
        doc = force.metrics_registry(wall_s=0.5).as_dict()
        assert validate_metrics(doc) == []
        by_name = {}
        for metric in doc["metrics"]:
            by_name.setdefault(metric["name"], []).append(metric)
        acq = by_name["force_critical_acquisitions_total"][0]
        assert acq["labels"] == {"name": "acc"}
        assert acq["value"] == 4
        indices = by_name["force_selfsched_indices_total"][0]
        assert indices["value"] == 20
        chunk_max = by_name["force_selfsched_chunk_max"][0]
        assert chunk_max["labels"] == {"label": "L10"}
        assert chunk_max["value"] == \
            force.stats["selfsched"]["L10"]["max_chunk"] == 1
        assert by_name["force_barrier_episodes_total"][0]["value"] == 2
        assert by_name["force_processes"][0]["value"] == 4
        assert by_name["force_run_wall_seconds"][0]["value"] == 0.5

    def test_process_backend_merges_workers(self):
        force = Force(4, backend="process", metrics=True, stats=True)
        force.run(_program)
        doc = force.metrics_registry().as_dict()
        assert validate_metrics(doc) == []
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["force_critical_acquisitions_total"]["value"] == 4
        assert by_name["force_selfsched_indices_total"]["value"] == 20
        assert by_name["force_selfsched_chunk_max"]["value"] == \
            force.stats["selfsched"]["L10"]["max_chunk"] == 1


class TestSimIngestion:
    def test_stats_become_metrics(self):
        stats = {"sim": {"machine": "sequent-balance", "processes": 4,
                         "makespan": 1000, "utilization": 0.8,
                         "lock_acquisitions": 10,
                         "contended_acquisitions": 3,
                         "spin_cycles": 55, "context_switches": 7}}
        registry = registry_from_sim("sequent-balance", 4, stats)
        doc = registry.as_dict()
        assert validate_metrics(doc) == []
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["force_sim_makespan_cycles"]["value"] == 1000
        assert by_name["force_sim_lock_acquisitions_total"]["value"] == 10

    def test_cycle_buckets_used_for_events(self):
        from repro.trace.events import TraceEvent
        stats = {"sim": {"machine": "m", "processes": 2, "makespan": 10,
                         "utilization": 1.0, "lock_acquisitions": 0,
                         "contended_acquisitions": 0, "spin_cycles": 0,
                         "context_switches": 0}}
        events = [
            TraceEvent(ts=0, proc="p-1", kind="critical", name="L",
                       op="acquire"),
            TraceEvent(ts=5, proc="p-1", kind="critical", name="L",
                       op="release"),
        ]
        registry = registry_from_sim("m", 2, stats, events=events)
        doc = registry.as_dict()
        holds = [m for m in doc["metrics"]
                 if m["name"] == "force_critical_hold_cycles"]
        assert holds
        assert list(map(float, holds[0]["buckets"]))[:3] == \
            list(CYCLES_BUCKETS[:3])


class TestFacade:
    def test_critical_contention_paths(self):
        facade = ForceMetrics()
        facade.critical("L", 0.0, False, 0.001)
        facade.critical("L", 0.002, True, 0.001)
        doc = facade.registry.as_dict()
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["force_critical_acquisitions_total"]["value"] == 2
        assert by_name["force_critical_contended_total"]["value"] == 1
        assert by_name["force_critical_wait_seconds"]["count"] == 1
        assert by_name["force_critical_hold_seconds"]["count"] == 2
