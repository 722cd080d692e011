"""Scheduler unit tests with hand-written process generators."""

import pytest

from repro.machines import CRAY_2, FLEX_32, HEP, SEQUENT_BALANCE
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
