"""Scheduler unit tests with hand-written process generators."""

import random
import time

import pytest

from repro._util.errors import SimDeadlockError
from repro.machines import CRAY_2, FLEX_32, HEP, MACHINES, SEQUENT_BALANCE
from repro.sim import (
    AcquireLock,
    Block,
    Cost,
    HaltSim,
    ReleaseLock,
    Scheduler,
    SimulationError,
    Spawn,
    Wake,
)
from repro.sim import scheduler as scheduler_module


def make_scheduler(machine=SEQUENT_BALANCE, **kw):
    return Scheduler(machine, **kw)


class TestBasics:
    def test_single_process_cost(self):
        sched = make_scheduler()

        def work():
            yield Cost(100)
            yield Cost(50)

        sched.spawn(work())
        stats = sched.run()
        assert stats.makespan == 150
        assert stats.processes == 1

    def test_parallel_processes_independent_clocks(self):
        sched = make_scheduler()

        def work(n):
            yield Cost(n)

        sched.spawn(work(100), name="a")
        sched.spawn(work(300), name="b")
        stats = sched.run()
        assert stats.makespan == 300
        assert stats.per_process_clock["a"] == 100
        assert stats.per_process_clock["b"] == 300

    def test_deterministic_order(self):
        log = []

        def worker(name, first, second):
            yield Cost(first)
            log.append((name, "mid"))
            yield Cost(second)
            log.append((name, "end"))

        sched = make_scheduler()
        sched.spawn(worker("a", 10, 100))
        sched.spawn(worker("b", 50, 10))
        sched.run()
        assert log == [("a", "mid"), ("b", "mid"), ("b", "end"),
                       ("a", "end")]

    def test_spawn_event(self):
        sched = make_scheduler()
        seen = []

        def child():
            yield Cost(5)
            seen.append("child")

        def parent():
            yield Cost(10)
            yield Spawn(child(), name="kid")
            yield Cost(1)

        sched.spawn(parent(), name="parent")
        stats = sched.run()
        assert seen == ["child"]
        assert stats.processes == 2
        # Child starts at parent's clock (10), runs 5 -> 15.
        assert stats.per_process_clock["kid"] == 15

    def test_halt_stops_everything(self):
        sched = make_scheduler()
        ran = []

        def stopper():
            yield Cost(1)
            yield HaltSim("bye")

        def long_runner():
            yield Cost(1000)
            ran.append("finished")
            yield Cost(1000)

        sched.spawn(stopper())
        sched.spawn(long_runner())
        stats = sched.run()
        assert stats.halted
        assert stats.halt_message == "bye"
        assert ran == []

    def test_max_events_guard(self):
        sched = make_scheduler(max_events=10)

        def forever():
            while True:
                yield Cost(1)

        sched.spawn(forever())
        with pytest.raises(SimulationError):
            sched.run()


class TestRepeatedCost:
    """``Cost(..., repeat=k)`` must schedule exactly like ``k`` yields."""

    @staticmethod
    def _race(repeated):
        sched = make_scheduler(trace=True)
        lock = sched.new_lock("L")
        log = []

        def sweeper():
            if repeated:
                yield Cost(10, 2, 3)
            else:
                for _ in range(3):
                    yield Cost(10, 2)
            yield AcquireLock(lock)
            log.append("sweeper")
            yield Cost(5)
            yield ReleaseLock(lock)

        def rival():
            yield Cost(30)
            yield AcquireLock(lock)
            log.append("rival")
            yield Cost(5)
            yield ReleaseLock(lock)

        sched.spawn(sweeper(), name="sweeper")
        sched.spawn(rival(), name="rival")
        stats = sched.run()
        return stats, log, sched.trace

    def test_interleaving_matches_separate_yields(self):
        stats, log, trace = self._race(repeated=True)
        expected_stats, expected_log, expected_trace = \
            self._race(repeated=False)
        # both reach the lock at clock 30: the rival pushed first, as
        # it would against three separate yields
        assert log == expected_log == ["rival", "sweeper"]
        assert trace == expected_trace
        assert stats == expected_stats
        assert stats.statements == 3 * 2 + 3

    def test_every_step_counts_as_an_event(self):
        sched = make_scheduler(max_events=10)

        def work():
            yield Cost(1, 1, 20)

        sched.spawn(work())
        with pytest.raises(SimulationError):
            sched.run()

    def test_deadline_fires_although_steps_jump_the_check_points(self):
        # The event count grows 5,000 at a time, so it first lands on a
        # multiple of 4,096 after 512 ops, later than the event limit
        # allows; the deadline is read each time a multiple is crossed.
        sched = make_scheduler(max_events=2_000_000, deadline=0.05)

        def endless():
            while True:
                time.sleep(0.0005)
                yield Cost(1, 1, 5000)

        sched.spawn(endless())
        with pytest.raises(SimDeadlockError, match="wall-clock deadline"):
            sched.run()

    def test_non_integer_repeated_cycles_are_refused(self):
        sched = make_scheduler()

        def work():
            yield Cost(1.5, 1, 3)

        sched.spawn(work())
        with pytest.raises(SimulationError, match="repeated Cost"):
            sched.run()


#: every machine the scheduler runs: the paper's six and the Python host
_ALL_MACHINES = sorted(MACHINES.values(), key=lambda m: m.key)


def _simulate(machine, plans, *, repeated, processors=None, locks=2):
    """Run ``plans`` (per process: start clock and a list of ops) with
    each repeated Cost either kept whole or expanded into one yield
    per step; return everything a run lets one observe."""
    sched = Scheduler(machine, trace=True, processors=processors)
    shared = [sched.new_lock(f"L{k}") for k in range(locks)]
    grants = []

    def body(name, ops):
        for op in ops:
            if op[0] == "cost":
                _, cycles, statements, times = op
                if repeated:
                    yield Cost(cycles, statements, times)
                else:
                    for _ in range(times):
                        yield Cost(cycles, statements)
            else:
                _, k, hold = op
                yield AcquireLock(shared[k])
                grants.append((name, k))
                yield Cost(hold)
                yield ReleaseLock(shared[k])

    for index, (start, ops) in enumerate(plans):
        name = f"p{index}"
        sched.spawn(body(name, ops), name=name, start_time=start)
    try:
        stats = sched.run()
    except SimulationError as exc:   # a spin machine over-subscribed
        return ("raised", type(exc).__name__, str(exc), grants,
                sched.trace)
    return stats, grants, sched.trace, [p.busy_cycles
                                        for p in sched._procs]


def _random_plans(rng, cycles=(1, 2, 3, 4, 6, 10)):
    plans = []
    for _ in range(rng.randint(1, 4)):
        ops = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.7:
                ops.append(("cost", rng.choice(cycles), rng.randint(1, 3),
                            rng.randint(1, 12)))
            else:
                ops.append(("lock", rng.randint(0, 1), rng.randint(1, 8)))
        plans.append((rng.randint(0, 5), ops))
    return plans


class TestBulkStepping:
    """Bulk-applied repeats against the same Costs yielded one step at
    a time: stats, trace, clocks, busy cycles and lock-grant order must
    all be equal."""

    @staticmethod
    def _check(plans, machine=SEQUENT_BALANCE, processors=None):
        whole = _simulate(machine, plans, repeated=True,
                          processors=processors)
        steps = _simulate(machine, plans, repeated=False,
                          processors=processors)
        assert whole == steps
        return whole

    @pytest.mark.parametrize("processors", [None, 2])
    @pytest.mark.parametrize("machine", _ALL_MACHINES,
                             ids=lambda m: m.key)
    def test_random_process_sets(self, machine, processors):
        rng = random.Random(f"bulk-{machine.key}-{processors}")
        for _ in range(400):
            self._check(_random_plans(rng), machine, processors)

    def test_random_zero_cycle_repeats(self):
        rng = random.Random("bulk-zero")
        for _ in range(300):
            self._check(_random_plans(rng, cycles=(0, 0, 1, 2)))

    @staticmethod
    def _first_granted(plans):
        _stats, grants, _trace, _busy = TestBulkStepping._check(plans)
        return grants[0][0]

    def test_equal_cycles_later_started_run_pops_first(self):
        # p0 steps 2, 4, ...; p1's run starts at 4 and meets p0 at
        # every later clock: p1's entry there is older, so p1 stays
        # ahead and reaches the lock at 12 first
        plans = [(0, [("cost", 2, 1, 6), ("lock", 0, 1)]),
                 (2, [("cost", 2, 1, 5), ("lock", 0, 1)])]
        assert self._first_granted(plans) == "p1"

    def test_equal_cycles_and_start_fall_back_to_push_order(self):
        plans = [(0, [("cost", 3, 1, 4), ("lock", 0, 1)]),
                 (0, [("cost", 3, 1, 4), ("lock", 0, 1)])]
        assert self._first_granted(plans) == "p0"

    def test_larger_step_pops_first_at_a_shared_clock(self):
        # both reach 12: p0's last step left 10, p1's left 9
        plans = [(0, [("cost", 2, 1, 6), ("lock", 0, 1)]),
                 (0, [("cost", 3, 1, 4), ("lock", 0, 1)])]
        assert self._first_granted(plans) == "p1"

    def test_entry_already_queued_pops_before_a_step(self):
        # p1 is queued at 10 by one Cost before p0's steps get there
        plans = [(0, [("cost", 2, 1, 5), ("lock", 0, 1)]),
                 (0, [("cost", 10, 1, 1), ("lock", 0, 1)])]
        assert self._first_granted(plans) == "p1"

    def test_zero_cycle_runs_take_turns(self):
        # zero-cycle steps stay at one clock and re-queue behind each
        # other, so the shorter run finishes first
        plans = [(0, [("cost", 0, 1, 6), ("lock", 0, 1)]),
                 (0, [("cost", 0, 1, 3), ("lock", 0, 1)]),
                 (0, [("cost", 1, 1, 1), ("lock", 0, 1)])]
        stats, grants, _trace, _busy = self._check(plans)
        assert [name for name, _k in grants] == ["p1", "p0", "p2"]
        assert stats.events == 6 + 3 + 1 + 3 * 3 + 3


class TestLocks:
    def test_uncontended_acquire_release(self):
        sched = make_scheduler()
        lock = sched.new_lock("L")

        def work():
            yield AcquireLock(lock)
            yield Cost(10)
            yield ReleaseLock(lock)

        sched.spawn(work())
        stats = sched.run()
        assert stats.lock_acquisitions == 1
        assert stats.contended_acquisitions == 0
        assert not lock.locked

    def test_mutual_exclusion(self):
        sched = make_scheduler()
        lock = sched.new_lock("L")
        inside = []

        def work(name):
            yield AcquireLock(lock)
            inside.append((name, "in"))
            yield Cost(100)
            inside.append((name, "out"))
            yield ReleaseLock(lock)

        sched.spawn(work("a"))
        sched.spawn(work("b"))
        sched.run()
        # No interleaving: each 'in' immediately followed by its 'out'.
        assert inside[0][0] == inside[1][0]
        assert inside[2][0] == inside[3][0]

    def test_any_process_may_unlock(self):
        # Binary semaphore semantics: initial-locked lock released by a
        # different process (the Force barrier depends on this).
        sched = make_scheduler()
        lock = sched.new_lock("GATE")
        lock.locked = True
        order = []

        def waiter():
            yield AcquireLock(lock)
            order.append("waiter ran")

        def opener():
            yield Cost(500)
            order.append("opening")
            yield ReleaseLock(lock)

        sched.spawn(waiter())
        sched.spawn(opener())
        sched.run()
        assert order == ["opening", "waiter ran"]

    def test_fifo_handoff(self):
        sched = make_scheduler()
        lock = sched.new_lock("L")
        order = []

        def work(name, delay):
            yield Cost(delay)
            yield AcquireLock(lock)
            order.append(name)
            yield Cost(1000)
            yield ReleaseLock(lock)

        sched.spawn(work("first", 1))
        sched.spawn(work("second", 2))
        sched.spawn(work("third", 3))
        sched.run()
        assert order == ["first", "second", "third"]

    def test_spin_lock_burns_cycles(self):
        sched = make_scheduler(SEQUENT_BALANCE)
        lock = sched.new_lock("L")

        def holder():
            yield AcquireLock(lock)
            yield Cost(1000)
            yield ReleaseLock(lock)

        def spinner():
            yield Cost(1)
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sched.spawn(holder())
        sched.spawn(spinner())
        stats = sched.run()
        assert stats.spin_cycles > 900          # burned most of the wait

    def test_syscall_lock_context_switches(self):
        sched = make_scheduler(CRAY_2)
        lock = sched.new_lock("L")

        def holder():
            yield AcquireLock(lock)
            yield Cost(1000)
            yield ReleaseLock(lock)

        def sleeper():
            yield Cost(1)
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sched.spawn(holder())
        sched.spawn(sleeper())
        stats = sched.run()
        assert stats.context_switches == 1
        assert stats.spin_cycles == 0

    def test_combined_lock_short_wait_spins(self):
        sched = make_scheduler(FLEX_32)
        lock = sched.new_lock("L")

        def holder():
            yield AcquireLock(lock)
            yield Cost(50)                      # < spin limit of 120
            yield ReleaseLock(lock)

        def waiter():
            yield Cost(1)
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sched.spawn(holder())
        sched.spawn(waiter())
        stats = sched.run()
        assert stats.context_switches == 0
        assert stats.spin_cycles > 0

    def test_combined_lock_long_wait_syscalls(self):
        sched = make_scheduler(FLEX_32)
        lock = sched.new_lock("L")

        def holder():
            yield AcquireLock(lock)
            yield Cost(100_000)                 # >> spin limit
            yield ReleaseLock(lock)

        def waiter():
            yield Cost(1)
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sched.spawn(holder())
        sched.spawn(waiter())
        stats = sched.run()
        assert stats.context_switches == 1
        assert stats.spin_cycles == FLEX_32.combined_spin_limit

    def test_hep_wait_is_cheap(self):
        sched = make_scheduler(HEP)
        lock = sched.new_lock("L")

        def holder():
            yield AcquireLock(lock)
            yield Cost(1000)
            yield ReleaseLock(lock)

        def waiter():
            yield Cost(1)
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sched.spawn(holder())
        sched.spawn(waiter())
        stats = sched.run()
        assert stats.spin_cycles == 0
        assert stats.context_switches == 0

    def test_cray_lock_scarcity(self):
        sched = make_scheduler(CRAY_2)
        for _ in range(CRAY_2.lock_limit):
            sched.new_lock()
        with pytest.raises(SimulationError):
            sched.new_lock()

    def test_deadlock_detected(self):
        sched = make_scheduler()
        lock = sched.new_lock("L")
        lock.locked = True

        def stuck():
            yield AcquireLock(lock)

        sched.spawn(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sched.run()


class TestBlockWake:
    def test_block_then_wake(self):
        sched = make_scheduler()
        order = []

        def sleeper():
            order.append("sleeping")
            yield Block("signal")
            order.append("awake")

        def waker():
            yield Cost(100)
            order.append("waking")
            yield Wake("signal")

        sched.spawn(sleeper())
        sched.spawn(waker())
        sched.run()
        assert order == ["sleeping", "waking", "awake"]

    def test_wake_all(self):
        sched = make_scheduler()
        awake = []

        def sleeper(i):
            yield Block("go")
            awake.append(i)

        def waker():
            yield Cost(10)
            yield Wake("go", all_waiters=True)

        for i in range(4):
            sched.spawn(sleeper(i))
        sched.spawn(waker())
        sched.run()
        assert sorted(awake) == [0, 1, 2, 3]

    def test_wake_one_only(self):
        sched = make_scheduler()
        awake = []

        def sleeper(i):
            yield Block("go")
            awake.append(i)
            yield Wake("go")     # chain to the next

        def waker():
            yield Cost(10)
            yield Wake("go")

        for i in range(3):
            sched.spawn(sleeper(i))
        sched.spawn(waker())
        sched.run()
        assert awake == [0, 1, 2]

    def test_wake_without_waiters_is_noop(self):
        sched = make_scheduler()

        def lonely():
            yield Wake("nobody")
            yield Cost(1)

        sched.spawn(lonely())
        stats = sched.run()
        assert stats.makespan >= 1

    def test_exit_callback_fires(self):
        sched = make_scheduler()
        done = []

        def child():
            yield Cost(5)

        def parent():
            yield Spawn(child(), name="kid",
                        on_exit=lambda p: done.append(p.name))
            yield Cost(1)

        sched.spawn(parent())
        sched.run()
        assert done == ["kid"]


class TestStats:
    def test_utilization_bounds(self):
        sched = make_scheduler()

        def work():
            yield Cost(100)

        sched.spawn(work())
        sched.spawn(work())
        stats = sched.run()
        assert 0.0 < stats.utilization <= 1.0

    def test_trace_collection(self):
        sched = make_scheduler(trace=True)
        lock = sched.new_lock("L")

        def work():
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sched.spawn(work())
        sched.run()
        actions = [what for (_t, _n, what) in sched.trace]
        assert "acquired L" in actions
        assert "released L" in actions

    def test_trace_keeps_the_first_events_up_to_its_bound(self,
                                                          monkeypatch):
        monkeypatch.setattr(scheduler_module, "_MAX_TRACE_FIELDS", 3 * 4)
        sched = make_scheduler(trace=True)
        lock = sched.new_lock("L")

        def work():
            for _ in range(3):
                yield AcquireLock(lock)
                yield ReleaseLock(lock)

        sched.spawn(work(), name="w")
        sched.run()
        assert [what for (_t, _who, what) in sched.trace] == [
            "spawned", "acquired L", "released L", "acquired L"]
        assert len(sched.trace_fields) == 3 * 4

    def test_untraced_run_records_nothing(self):
        sched = make_scheduler()
        lock = sched.new_lock("L")

        def work():
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sched.spawn(work())
        sched.run()
        assert sched.trace == []
        assert sched.trace_fields == []
        assert sched.trace_dropped == 0

    def test_events_past_the_bound_are_counted_as_dropped(self):
        # spawned + 60,000 acquire/release pairs + done: 120,002 events,
        # of which the trace keeps the first 100,000
        sched = make_scheduler(trace=True)
        lock = sched.new_lock("L")

        def work():
            for _ in range(60_000):
                yield AcquireLock(lock)
                yield ReleaseLock(lock)

        sched.spawn(work(), name="w")
        sched.run()
        assert len(sched.trace_fields) == 3 * 100_000
        assert sched.trace_dropped == 20_002
        assert sched.trace[-1][2] == "acquired L"

    def test_untraced_run_formats_no_block_key(self):
        calls = []

        class Key:
            def __hash__(self):
                return 7

            def __repr__(self):
                calls.append("repr")
                return "Key()"

            def __str__(self):
                calls.append("str")
                return "key-7"

        def run(trace):
            sched = make_scheduler(trace=trace)
            key = Key()

            def sleeper():
                yield Block(key)

            def waker():
                yield Cost(10)
                yield Wake(key)

            sched.spawn(sleeper(), name="s")
            sched.spawn(waker(), name="w")
            sched.run()
            return sched

        run(trace=False)
        assert calls == []
        sched = run(trace=True)
        assert calls
        assert ("s", "block key-7") in [(who, what)
                                         for _t, who, what in sched.trace]
