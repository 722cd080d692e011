"""The exact ``Force.stats`` of scripted runs, pinned.

Every probe timing reads ``repro.runtime.probe.monotonic``; these
tests replace it with a per-thread scripted clock, so each wait and
hold duration is a fixed dyadic number (exact under any fold order)
and each run's stats come out identical to the last bit.  The
scenario synchronizes its two processes with events outside the
Force, so contention and blocking happen exactly where scripted: an
armed callback fires on the blocked process's next clock reading,
which is the one taken just before it blocks.

The expected values compare by ``==`` and by ``repr``, so dict key
order, int-versus-float types and float bits are all part of the pin.
"""

import threading

import pytest

from repro.runtime import Force
import repro.runtime.probe as probe_module

ZERO_WAIT = {"count": 0, "total_s": 0.0, "mean_s": 0.0, "min_s": 0.0,
             "max_s": 0.0, "spread_s": 0.0}

SCRIPTED_STATS = {
    "nproc": 2,
    "barriers": {"episodes": 2,
                 "wait": {"count": 4, "total_s": 2.75, "mean_s": 0.6875,
                          "min_s": 0.1875, "max_s": 1.25,
                          "spread_s": 1.0625}},
    "criticals": {
        "cold": {"acquisitions": 1, "contended": 0, "wait": ZERO_WAIT},
        "hot": {"acquisitions": 2, "contended": 1,
                "wait": {"count": 1, "total_s": 0.375, "mean_s": 0.375,
                         "min_s": 0.375, "max_s": 0.375,
                         "spread_s": 0.0}},
    },
    "selfsched": {"L1": {"chunks": 2, "indices": 2, "max_chunk": 1},
                  "L3": {"chunks": 3, "indices": 7, "max_chunk": 3}},
    "askfor": {"jobs": {"total_put": 3, "total_got": 3, "max_depth": 3}},
    "asyncvar": {"chan": {"count": 1, "total_s": 1.125, "mean_s": 1.125,
                          "min_s": 1.125, "max_s": 1.125,
                          "spread_s": 0.0}},
}

SCRIPTED_REPORT = """\
--- barriers ---
episodes:            2
waits:               4 (mean 687.50ms, max 1.250s, spread 1.062s)
--- critical sections ---
cold                      1 acq,      0 contended, waited 0.00ms
hot                       2 acq,      1 contended, waited 375.00ms
--- selfscheduled loops ---
L1                        2 chunks,        2 indices (max chunk 1)
L3                        3 chunks,        7 indices (max chunk 3)
--- askfor pools ---
jobs               put 3, got 3, max depth 3
--- asynchronous variables ---
chan                      1 blocked waits, 1.125s blocked"""

IDLE_STATS = {"nproc": 2, "barriers": {"episodes": 0, "wait": ZERO_WAIT},
              "criticals": {}, "selfsched": {}, "askfor": {},
              "asyncvar": {}}


class ScriptedClock:
    """Per-thread clock: process ``me``'s k-th reading advances its
    time by ``(k + me) / 16`` seconds."""

    def __init__(self) -> None:
        self._local = threading.local()

    def bind(self, me: int) -> None:
        self._local.me = me
        self._local.readings = 0
        self._local.now = 0.0
        self._local.armed = None

    def arm(self, callback) -> None:
        """Call ``callback`` at this thread's next reading."""
        self._local.armed = callback

    def __call__(self) -> float:
        local = self._local
        local.readings += 1
        local.now += (local.readings + local.me) / 16
        armed, local.armed = local.armed, None
        if armed is not None:
            armed()
        return local.now


@pytest.fixture
def clock(monkeypatch):
    clock = ScriptedClock()
    monkeypatch.setattr(probe_module, "monotonic", clock)
    return clock


def _scripted_program(clock):
    holding = threading.Event()
    peer_blocked = threading.Event()
    peer_consuming = threading.Event()

    def program(force, me):
        clock.bind(me)
        force.barrier()                      # two arrivals, one release
        if me == 1:
            with force.critical("hot"):      # uncontended
                holding.set()
                assert peer_blocked.wait(10)
            with force.critical("cold"):     # uncontended, alone
                pass
        else:
            assert holding.wait(10)
            clock.arm(peer_blocked.set)
            with force.critical("hot"):      # contended
                pass
        for _index in force.selfsched_range("L1", 1, 2):
            pass
        for _index in force.selfsched_range("L3", 1, 7, chunk=3):
            pass
        chan = force.async_var("chan")
        if me == 2:
            clock.arm(peer_consuming.set)
            chan.consume()                   # blocks until produced
        else:
            assert peer_consuming.wait(10)
            chan.produce(1.0)
        pool = force.askfor("jobs")
        if me == 1:
            for _item in range(3):
                pool.put(1)
        force.barrier()
        # Askfor waits read the clock only when they block: last, so
        # no later reading depends on them.
        for _item in pool:
            pass

    return program


def test_scripted_run_stats_are_exact(clock):
    force = Force(2, timeout=30, stats=True)
    force.run(_scripted_program(clock))
    stats = force.stats
    assert stats == SCRIPTED_STATS
    assert repr(stats) == repr(SCRIPTED_STATS)
    assert force.stats_report() == SCRIPTED_REPORT


def test_scripted_run_repeats_bit_for_bit(clock):
    seen = set()
    for _run in range(3):
        force = Force(2, timeout=30, stats=True)
        force.run(_scripted_program(clock))
        seen.add(repr(force.stats))
    assert seen == {repr(SCRIPTED_STATS)}


def test_idle_stats_run_reports_all_zero_sections(clock):
    force = Force(2, timeout=30, stats=True)
    force.run(lambda force, me: None)
    assert force.stats == IDLE_STATS
    assert repr(force.stats) == repr(IDLE_STATS)
    assert force.stats_report() == ""
