"""Stats, metrics and trace agree across backends and sink subsets.

One Force-API program exercises every instrumented construct
(barrier, barrier_section, critical, selfsched, askfor, asyncvar).
It runs on the thread and process backends under each of the seven
non-empty subsets of {stats, trace, metrics}.  Counts that the
program fixes regardless of interleaving must come out the same in
every run, whichever other sinks are on; counts that depend on
timing (contention, blocking) must at least agree between the sinks
of one run.
"""

import sys
from itertools import combinations

import pytest

from repro.runtime import Force

BACKENDS = ("thread", "process")
SINKS = ("stats", "trace", "metrics")
SUBSETS = [frozenset(combo) for size in (1, 2, 3)
           for combo in combinations(SINKS, size)]
NPROC = 3

#: trace ops whose counts depend on contention or blocking
TIMING_OPS = {("critical", "wait"), ("askfor", "wait")}


def every_construct_program(force, me):
    total = force.shared_counter("total")
    force.barrier_section(me, lambda: None)
    for index in force.selfsched_range("L1", 1, 12):
        with force.critical("acc"):
            total.value += index
    force.barrier()
    for _index in force.selfsched_range("L2", 1, 10, chunk=3):
        pass
    pool = force.askfor("tree")
    if me == 1:
        pool.put(3.0)     # seed after creation: first creator wins
    force.barrier()
    for weight in pool:
        with force.critical("acc"):
            total.value += 1
        if weight > 1:
            pool.put(weight - 1)
            pool.put(weight - 1)
    chan = force.async_var("chan")
    force.barrier()
    if me == 1:
        chan.produce(5.0)
    elif me == 2:
        chan.consume()
    force.barrier()


def _run(backend, sinks):
    force = Force(NPROC, backend=backend, timeout=60,
                  stats="stats" in sinks, trace="trace" in sinks,
                  metrics="metrics" in sinks)
    force.run(every_construct_program)
    return force


def _stats_counts(stats):
    return {
        "episodes": stats["barriers"]["episodes"],
        "barrier_waits": stats["barriers"]["wait"]["count"],
        "acquisitions": {name: entry["acquisitions"]
                         for name, entry in stats["criticals"].items()},
        "selfsched": stats["selfsched"],
        "askfor": {name: (entry["total_put"], entry["total_got"])
                   for name, entry in stats["askfor"].items()},
    }


def _metric_counts(doc):
    counts = {}
    for metric in doc["metrics"]:
        name = metric["name"]
        if name in ("force_critical_contended_total",
                    "force_critical_wait_seconds",
                    "force_asyncvar_blocked_seconds",
                    "force_askfor_depth_max"):
            continue        # timing-dependent
        key = (name, tuple(sorted(metric["labels"].items())))
        counts[key] = metric["count"] if metric["type"] == "histogram" \
            else metric["value"]
    return counts


def _trace_counts(events):
    counts = {}
    for event in events:
        if event.kind == "asyncvar" or \
                (event.kind, event.op) in TIMING_OPS:
            continue
        key = (event.kind, event.name, event.op)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _timing_counts(force, sinks):
    """Contended entries and asyncvar blocks, as each sink saw them."""
    seen = {}
    if "stats" in sinks:
        stats = force.stats
        seen["stats"] = (
            sum(e["contended"] for e in stats["criticals"].values()),
            sum(v["count"] for v in stats["asyncvar"].values()))
    if "metrics" in sinks:
        metrics = force.metrics_registry().as_dict()["metrics"]
        seen["metrics"] = (
            sum(m["value"] for m in metrics
                if m["name"] == "force_critical_contended_total"),
            sum(m["count"] for m in metrics
                if m["name"] == "force_asyncvar_blocked_seconds"))
    if "trace" in sinks:
        events = force.trace_events()
        seen["trace"] = (
            sum(1 for e in events
                if e.kind == "critical" and e.op == "wait"),
            sum(1 for e in events if e.kind == "asyncvar"))
    return seen


@pytest.fixture(scope="module")
def runs():
    return {(backend, sinks): _run(backend, sinks)
            for backend in BACKENDS for sinks in SUBSETS}


def test_deterministic_counts_agree_across_backends_and_subsets(runs):
    stats, metrics, traces = {}, {}, {}
    for (backend, sinks), force in runs.items():
        where = (backend, tuple(sorted(sinks)))
        if "stats" in sinks:
            stats[where] = _stats_counts(force.stats)
        else:
            assert force.stats is None
        if "metrics" in sinks:
            metrics[where] = _metric_counts(
                force.metrics_registry().as_dict())
        if "trace" in sinks:
            traces[where] = _trace_counts(force.trace_events())
    for collected in (stats, metrics, traces):
        assert len(collected) == 2 * 4
        reference = next(iter(collected.values()))
        for where, counts in collected.items():
            assert counts == reference, where

    counts = next(iter(stats.values()))
    # barrier_section + 4 barriers, each waited on by every process
    assert counts["episodes"] == 5
    assert counts["barrier_waits"] == 5 * NPROC
    # 12 selfsched indices + 7 askfor items, one entry each
    assert counts["acquisitions"] == {"acc": 19}
    assert counts["selfsched"] == {
        "L1": {"chunks": 12, "indices": 12, "max_chunk": 1},
        "L2": {"chunks": 4, "indices": 10, "max_chunk": 3},
    }
    assert counts["askfor"] == {"tree": (7, 7)}
    metric = next(iter(metrics.values()))
    assert metric[("force_critical_acquisitions_total",
                   (("name", "acc"),))] == 19
    assert metric[("force_critical_hold_seconds",
                   (("name", "acc"),))] == 19
    assert metric[("force_barrier_wait_seconds", ())] == 5 * NPROC
    trace = next(iter(traces.values()))
    assert trace[("critical", "acc", "hold")] == 19
    assert trace[("barrier", "barrier", "episode")] == 5
    assert trace[("askfor", "tree", "got")] == 7
    assert trace[("askfor", "tree", "terminated")] == NPROC


def test_timing_counts_agree_between_the_sinks_of_one_run(runs):
    for (backend, sinks), force in runs.items():
        seen = _timing_counts(force, sinks)
        assert len(set(seen.values())) == 1, (backend, sorted(sinks),
                                             seen)


def test_lanes_lose_no_update_under_preemption():
    # Each thread counts into its own lane without a lock; a lost
    # update would show as a short count once the lanes are folded.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        force = Force(8, timeout=60, stats=True, metrics=True)

        def program(force, me):
            for _round in range(200):
                with force.critical("hot"):
                    pass
            force.barrier()

        force.run(program)
    finally:
        sys.setswitchinterval(interval)
    assert force.stats["criticals"]["hot"]["acquisitions"] == 8 * 200
    assert force.stats["barriers"]["wait"]["count"] == 8
    doc = force.metrics_registry().as_dict()
    assert [m["value"] for m in doc["metrics"]
            if m["name"] == "force_critical_acquisitions_total"] == [1600]
