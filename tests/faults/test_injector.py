"""The injector: exact occurrence counting, deterministic firing."""

import threading

import pytest

from repro.faults.injector import (
    FaultInjector,
    InjectedDeath,
    InjectedFault,
)
from repro.faults.plan import FaultPlan, FaultSpec


def injector(*specs: FaultSpec, **kwargs) -> FaultInjector:
    return FaultInjector(FaultPlan(seed=0, faults=list(specs)), **kwargs)


class TestOccurrenceCounting:
    def test_fires_exactly_at_the_nth_hit(self):
        inj = injector(FaultSpec("raise", "critical.hold",
                                 occurrence=3))
        inj.fire("critical.hold", "sum", me=1)
        inj.fire("critical.hold", "sum", me=2)
        with pytest.raises(InjectedFault):
            inj.fire("critical.hold", "sum", me=1)

    def test_fires_at_most_once(self):
        inj = injector(FaultSpec("raise", "critical.hold"))
        with pytest.raises(InjectedFault):
            inj.fire("critical.hold", "sum", me=1)
        for _ in range(5):
            inj.fire("critical.hold", "sum", me=1)   # quiet now
        assert len(inj.injected) == 1

    def test_non_matching_sites_do_not_count(self):
        inj = injector(FaultSpec("raise", "critical.hold",
                                 occurrence=2))
        inj.fire("critical.acquire", "sum", me=1)
        inj.fire("barrier.entry", "barrier", me=1)
        inj.fire("critical.hold", "sum", me=1)       # hit 1 of 2
        assert inj.injected == []

    def test_proc_filter_counts_only_that_process(self):
        inj = injector(FaultSpec("raise", "selfsched.chunk", proc=2,
                                 occurrence=2))
        inj.fire("selfsched.chunk", "loop", me=1)
        inj.fire("selfsched.chunk", "loop", me=2)    # proc-2 hit 1
        inj.fire("selfsched.chunk", "loop", me=3)
        with pytest.raises(InjectedFault) as info:
            inj.fire("selfsched.chunk", "loop", me=2)
        assert info.value.me == 2

    def test_name_filter(self):
        inj = injector(FaultSpec("raise", "critical.hold", name="hot"))
        inj.fire("critical.hold", "cold", me=1)
        with pytest.raises(InjectedFault):
            inj.fire("critical.hold", "hot", me=1)


class TestFaultKinds:
    def test_die_raises_base_exception(self):
        inj = injector(FaultSpec("die", "askfor.got"))
        with pytest.raises(InjectedDeath):
            inj.fire("askfor.got", "jobs", me=1)
        # not catchable by `except Exception` in user programs
        assert not issubclass(InjectedDeath, Exception)

    def test_delay_sleeps_for_the_spec_duration(self):
        naps = []
        inj = injector(FaultSpec("delay", "critical.hold",
                                 seconds=0.123),
                       sleep=naps.append)
        inj.fire("critical.hold", "sum", me=1)
        assert naps == [0.123]

    def test_lost_wakeup_swallows_exactly_one_notify(self):
        inj = injector(FaultSpec("lost-wakeup", "asyncvar.produce",
                                 occurrence=2))
        assert inj.swallow_notify("asyncvar.produce", "chan", me=1) \
            is False
        assert inj.swallow_notify("asyncvar.produce", "chan", me=1) \
            is True
        assert inj.swallow_notify("asyncvar.produce", "chan", me=1) \
            is False

    def test_fire_and_swallow_count_independently(self):
        # A raise spec and a lost-wakeup spec at the same site must
        # each see its own consistent occurrence stream.
        inj = injector(
            FaultSpec("raise", "askfor.put", occurrence=2),
            FaultSpec("lost-wakeup", "askfor.put", occurrence=1))
        assert inj.swallow_notify("askfor.put", "jobs", me=1) is True
        inj.fire("askfor.put", "jobs", me=1)         # raise hit 1
        with pytest.raises(InjectedFault):
            inj.fire("askfor.put", "jobs", me=1)     # raise hit 2


class TestProcessResolution:
    def test_me_resolved_from_force_thread_name(self):
        inj = injector(FaultSpec("raise", "barrier.entry", proc=7))
        result = {}

        def worker():
            try:
                inj.fire("barrier.entry", "barrier")
                result["fired"] = False
            except InjectedFault as exc:
                result["fired"] = True
                result["me"] = exc.me

        thread = threading.Thread(target=worker, name="force-7")
        thread.start()
        thread.join()
        assert result == {"fired": True, "me": 7}


class TestRecords:
    def test_every_firing_is_recorded_in_order(self):
        inj = injector(FaultSpec("delay", "critical.hold",
                                 seconds=0.0),
                       FaultSpec("lost-wakeup", "askfor.put"),
                       sleep=lambda _s: None)
        inj.fire("critical.hold", "sum", me=1)
        inj.swallow_notify("askfor.put", "jobs", me=2)
        assert [(r.kind, r.site, r.proc) for r in inj.injected] == \
            [("delay", "critical.hold", 1), ("lost-wakeup",
                                             "askfor.put", 2)]
        assert "critical.hold" in inj.report()

    def test_recorded_as_trace_events(self):
        from repro.runtime.probe import Probe

        probe = Probe(1, trace=True)
        probe.start(1)
        inj = injector(FaultSpec("delay", "critical.hold",
                                 seconds=0.0),
                       probe=probe, sleep=lambda _s: None)
        inj.fire("critical.hold", "sum", me=1)
        faults = [e for e in probe.events() if e.kind == "fault"]
        assert len(faults) == 1
        assert faults[0].op == "delay"
        probe.end(1)
