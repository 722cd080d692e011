"""Simulated runs in the unified event model.

The scheduler records every trace entry as a typed ``(kind, name, op,
text)`` record where the event happens; ``RunResult.trace_events()``
turns those records into :class:`TraceEvent` s without reading the
text back.  These cases check the categories and names over real
runs, and :func:`lock_kind`, the one lock-naming rule the simulator
and the native pipeline share.
"""

import re

from repro.core import HEP, SEQUENT_BALANCE, force_compile_and_run, \
    programs
from repro.sim import Scheduler
from repro.sim.events import Block, Cost, Spawn, Wake
from repro.sim.scheduler import trace_events
from repro.trace.events import KINDS, lock_kind


def _run(name, machine=SEQUENT_BALANCE, nproc=3, **params):
    return force_compile_and_run(programs.render(name, **params),
                                 machine, nproc=nproc, trace=True)


def _by_kind(events, kind):
    return [e for e in events if e.kind == kind]


def _events(sched):
    return trace_events(sched.trace_fields)


def _synthetic(key):
    """Trace one process that blocks on ``key`` and one that wakes it."""
    sched = Scheduler(HEP, trace=True)

    def sleeper():
        yield Block(key)

    def waker():
        yield Cost(10)
        yield Wake(key)

    sched.spawn(sleeper(), name="s")
    sched.spawn(waker(), name="w")
    sched.run()
    return sched


class TestLockKind:
    def test_barrier_gate_locks(self):
        for name in ("BARWIN", "BARWOT", "barwin", "Barwot",
                     "BARWIN(1)", "barwot(2)"):
            assert lock_kind(name) == "barrier", name

    def test_selfsched_index_locks(self):
        for name in ("ZZL100", "zzl7", "ZZL100(3)"):
            assert lock_kind(name) == "selfsched", name

    def test_other_locks_are_critical_sections(self):
        for name in ("LCK", "SUMLCK", "lock3", "BARWINX", "XBARWIN",
                     "ZL1", ""):
            assert lock_kind(name) == "critical", name


class TestLockCategorisation:
    def test_barrier_gate_locks(self):
        events = _run("sum_critical", n=10).trace_events()
        names = {e.name for e in _by_kind(events, "barrier")}
        assert names == {"BARWIN", "BARWOT"}
        assert {e.op for e in _by_kind(events, "barrier")} == {
            "acquire", "wait", "grant", "release"}

    def test_selfsched_index_locks(self):
        events = _run("sum_critical", n=10).trace_events()
        assert {e.name for e in _by_kind(events, "selfsched")} == {
            "ZZL100"}

    def test_other_locks_are_critical_sections(self):
        events = _run("sum_critical", n=10).trace_events()
        critical = _by_kind(events, "critical")
        assert {e.name for e in critical} == {"LCK"}
        assert {e.op for e in critical} == {"acquire", "release"}

    def test_granted_verb(self):
        for event in _run("sum_critical", n=10).trace_events():
            if event.op == "grant":
                assert event.detail == f"granted {event.name}"


class TestBlockCategorisation:
    def test_full_empty_cells_are_asyncvar(self):
        # Only the HEP has hardware full/empty cells; the two-lock
        # machines' async traffic shows up as lock (critical) events,
        # exactly as the paper describes the protocol.
        events = _run("pipeline", machine=HEP, nproc=2,
                      items=5).trace_events()
        cells = _by_kind(events, "asyncvar")
        assert cells
        for event in cells:
            assert event.op == "block"
            assert event.name.startswith(("('fe-full', ", "('fe-empty', "))
            assert event.detail == f"block {event.name}"

    def test_queue_keys_are_askfor(self):
        events = _run("askfor_tree", nproc=2, depth=3, qsize=64,
                      work=5).trace_events()
        waits = _by_kind(events, "askfor")
        assert waits
        assert {(e.name, e.op) for e in waits} == {
            ("('queue', 'WORK')", "block")}

    def test_other_keys_are_sched(self):
        # a join key's tail is a raw object id: the event keeps only
        # the tag, so reports stay the same from run to run
        events = _run("sum_critical", n=10).trace_events()
        blocks = [e for e in events
                  if e.kind == "sched" and e.op == "block"]
        assert [e.name for e in blocks] == ["join"]
        assert re.fullmatch(r"block \('join', \d+\)", blocks[0].detail)

    def test_barrier_algorithm_keys_are_sched(self):
        sched = _synthetic(("sense", id(object()), True))
        events = _events(sched)
        block, = [e for e in events if e.op == "block"]
        assert (block.kind, block.name) == ("sched", "sense")


class TestSchedEvents:
    def test_spawn(self):
        sched = Scheduler(HEP, trace=True)

        def child():
            yield Cost(1)

        def parent():
            yield Spawn(child(), name="summer-1")

        sched.spawn(parent(), name="driver")
        sched.run()
        spawn, = [e for e in _events(sched) if e.op == "spawn"]
        assert (spawn.kind, spawn.name, spawn.proc, spawn.detail) == (
            "sched", "summer-1", "driver", "spawn summer-1")

    def test_lifecycle_words(self):
        events = _run("sum_critical", n=10).trace_events()
        lifecycle = [e for e in events
                     if e.op in ("spawned", "woken", "halt", "done")]
        assert {e.op for e in lifecycle} == {"spawned", "woken", "done"}
        for event in lifecycle:
            assert (event.kind, event.name, event.detail) == (
                "sched", "", event.op)

    def test_unrecognised_text_still_becomes_an_event(self):
        # a key that is no tagged tuple is a scheduler wait named by
        # the key's text
        events = _events(_synthetic("plain-key"))
        block, = [e for e in events if e.op == "block"]
        assert (block.kind, block.name, block.detail) == (
            "sched", "plain-key", "block plain-key")


class TestDetailPassthrough:
    def test_original_line_preserved_verbatim(self):
        for event in _run("sum_critical", n=10).trace_events():
            assert event.text_line() == event.detail

    def test_real_run_adapts_every_line(self):
        for name, machine, params in (
                ("sum_critical", SEQUENT_BALANCE, {"n": 10}),
                ("pipeline", HEP, {"items": 5}),
                ("askfor_tree", SEQUENT_BALANCE,
                 {"depth": 3, "qsize": 64, "work": 5})):
            result = _run(name, machine=machine, nproc=2, **params)
            events = result.trace_events()
            assert len(events) == len(result.trace)
            for (when, who, what), event in zip(result.trace, events):
                assert (event.ts, event.proc, event.detail) == (
                    when, who, what)
                assert event.kind in KINDS
                assert event.phase == "i"

    def test_askfor_waits_categorised(self):
        result = _run("askfor_tree", nproc=2, depth=3, qsize=64, work=5)
        kinds = {e.kind for e in result.trace_events()}
        assert "askfor" in kinds

    def test_hardware_full_empty_waits_are_asyncvar(self):
        result = _run("pipeline", machine=HEP, nproc=2, items=5)
        kinds = {e.kind for e in result.trace_events()}
        assert "asyncvar" in kinds
