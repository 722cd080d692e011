"""Differential suite: the process backend against the thread backend.

The process backend's contract is "the thread backend's API over real
OS processes": for a corpus of Force programs the two backends must
produce identical observable results — program output, final shared
state, stats shape, error messages — and the process backend must
never leak a ``/dev/shm`` segment, whether the run exits normally,
dies from an injected fault, or is cancelled by a failing worker.

Programs here are **module-level functions** (the process backend
requires picklable programs) and report results through a scratch
file passed as an argument, which works identically on both vehicles.
"""

import glob
import pickle
import threading

import numpy as np
import pytest

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.faults.plan import FaultPlan
from repro.runtime import Force, ForceProgramError, ProcessForce

BACKENDS = ("thread", "process")
JOIN_TIMEOUT = 30.0


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/force-arena-*"))


def _run(backend, program, *args, nproc=3, **kwargs):
    kwargs.setdefault("timeout", JOIN_TIMEOUT)
    kwargs.setdefault("construct_timeout", 15.0)
    force = Force(nproc, backend=backend, **kwargs)
    force.run(program, *args)
    return force


# ----------------------------------------------------------------------
# corpus programs (module level: must pickle for the process backend)
# ----------------------------------------------------------------------

def critical_counter_program(force, me, path):
    counter = force.shared_counter("total")
    for _ in range(25):
        with force.critical("bump"):
            counter.value += me
    force.barrier()
    if me == 1:
        with open(path, "w") as sink:
            sink.write(f"total={int(counter.value)}\n")
    force.barrier()


def barrier_stage_program(force, me, path):
    stages = force.shared_array("stages", (4,), np.int64)
    for stage in range(4):
        with force.critical("stage"):
            stages[stage] += me * (stage + 1)
        force.barrier()
    force.barrier_section(
        me, lambda: open(path, "w").write(
            "stages=" + ",".join(str(int(v)) for v in stages) + "\n"))


def selfsched_program(force, me, path):
    squares = force.shared_array("squares", (40,), np.int64)
    for index in force.selfsched_range("sq", 0, 39, chunk=3,
                                       schedule="chunked"):
        squares[index] = index * index
    force.barrier_section(
        me, lambda: open(path, "w").write(
            f"sum={int(squares.sum())}\n"))


def askfor_tree_program(force, me, path):
    count = force.shared_counter("visited")
    pool = force.askfor("tree")
    if me == 1:
        pool.put(1)       # seed after creation: first-creator-wins
    force.barrier()
    for node in pool:
        with force.critical("visit"):
            count.value += 1
        child = int(2 * node)
        if child <= 15:
            pool.put(child)
            pool.put(child + 1)
    force.barrier_section(
        me, lambda: open(path, "w").write(
            f"visited={int(count.value)}\n"))


def async_pipeline_program(force, me, path):
    chan = force.async_var("chan")
    done = force.shared_counter("done")
    if me == 1:
        for value in range(1, 10):
            chan.produce(float(value))
        for _ in range(force.nproc - 1):
            chan.produce(-1.0)     # one stop sentinel per consumer
    else:
        while True:
            value = chan.consume()
            if value < 0:
                break
            with force.critical("sum"):
                done.value += value
    force.barrier_section(
        me, lambda: open(path, "w").write(
            f"done={int(done.value)}\n"))


def failing_program(force, me):
    force.barrier()
    if me == 2:
        raise ValueError("differential boom")
    force.barrier()


def lopsided_barrier_program(force, me):
    if me == 1:
        return          # never arrives: peers strand on the barrier
    force.barrier()


def consume_never_program(force, me):
    force.async_var("never").consume()   # stays empty: true deadlock


CORPUS = [
    (critical_counter_program, "total=150\n"),           # 25*(1+2+3)
    (barrier_stage_program, "stages=6,12,18,24\n"),
    (selfsched_program, f"sum={sum(i * i for i in range(40))}\n"),
    (askfor_tree_program, "visited=15\n"),
    (async_pipeline_program, "done=45\n"),
]


# ----------------------------------------------------------------------
# the differential proper
# ----------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize(
        "program,expected", CORPUS,
        ids=[entry[0].__name__ for entry in CORPUS])
    def test_same_result_on_both_backends(self, program, expected,
                                          tmp_path):
        results = {}
        for backend in BACKENDS:
            path = tmp_path / f"{backend}.txt"
            _run(backend, program, str(path))
            results[backend] = path.read_text()
        assert results["thread"] == results["process"] == expected

    def test_error_messages_identical(self):
        messages = {}
        for backend in BACKENDS:
            with pytest.raises(ForceProgramError) as info:
                _run(backend, failing_program)
            assert info.value.me == 2
            messages[backend] = str(info.value)
        assert messages["thread"] == messages["process"]

    def test_deadlock_reports_same_construct(self):
        fields = {}
        for backend in BACKENDS:
            with pytest.raises(ForceDeadlockError) as info:
                _run(backend, consume_never_program,
                     construct_timeout=1.0)
            fields[backend] = (info.value.construct, info.value.timeout)
        assert fields["thread"] == fields["process"]

    def test_exited_peer_detected_promptly(self):
        # Where the thread backend can only ride out the construct
        # deadline (a returned thread gives no liveness signal), the
        # process backend sees the exited pid and poisons at once.
        with pytest.raises(ForceWorkerDied) as info:
            _run("process", lopsided_barrier_program)
        assert info.value.me == 1
        assert "barrier" in info.value.construct

    def test_stats_shape_identical(self, tmp_path):
        shapes = {}
        for backend in BACKENDS:
            force = _run(backend, askfor_tree_program,
                         str(tmp_path / f"{backend}.txt"), stats=True)
            stats = force.stats
            shapes[backend] = {
                "top": sorted(stats),
                "barriers": sorted(stats["barriers"]),
                "criticals": {name: sorted(entry)
                              for name, entry in
                              stats["criticals"].items()},
                "askfor": {name: sorted(entry)
                           for name, entry in
                           stats["askfor"].items()},
            }
        assert shapes["thread"] == shapes["process"]

    def test_askfor_totals_match(self, tmp_path):
        totals = {}
        for backend in BACKENDS:
            force = _run(backend, askfor_tree_program,
                         str(tmp_path / f"{backend}.txt"), stats=True)
            entry = force.stats["askfor"]["tree"]
            totals[backend] = (entry["total_put"], entry["total_got"])
        assert totals["thread"] == totals["process"] == (15, 15)

    def test_trace_covers_every_worker(self, tmp_path):
        force = _run("process", barrier_stage_program,
                     str(tmp_path / "out.txt"), trace=True)
        events = force.trace_events()
        lanes = {event.proc for event in events if event.proc}
        assert {f"force-{me}" for me in (1, 2, 3)} <= lanes


# ----------------------------------------------------------------------
# shared-memory lifecycle: no segment may survive any exit path
# ----------------------------------------------------------------------

class TestShmLifecycle:
    def test_unlinked_after_normal_exit(self, tmp_path):
        before = _shm_segments()
        _run("process", critical_counter_program,
             str(tmp_path / "out.txt"))
        assert _shm_segments() == before

    def test_unlinked_after_die_fault(self, tmp_path):
        before = _shm_segments()
        with pytest.raises(ForceWorkerDied):
            _run("process", barrier_stage_program,
                 str(tmp_path / "out.txt"),
                 inject=FaultPlan.from_specs(
                     ["die@barrier.entry:proc=2"]))
        assert _shm_segments() == before

    def test_unlinked_after_cancellation(self):
        before = _shm_segments()
        with pytest.raises(ForceProgramError):
            _run("process", failing_program)
        assert _shm_segments() == before

    def test_unlinked_after_deadlock_timeout(self):
        before = _shm_segments()
        with pytest.raises(ForceDeadlockError):
            _run("process", consume_never_program,
                 construct_timeout=1.0)
        assert _shm_segments() == before

    def test_unlinked_after_exited_peer(self):
        before = _shm_segments()
        with pytest.raises(ForceWorkerDied):
            _run("process", lopsided_barrier_program)
        assert _shm_segments() == before


# ----------------------------------------------------------------------
# picklable runtime state (the groundwork distributed execution needs)
# ----------------------------------------------------------------------

class TestPicklableState:
    def test_unpicklable_program_rejected_up_front(self):
        force = Force(2, backend="process", timeout=JOIN_TIMEOUT)
        before = _shm_segments()
        with pytest.raises(ForceError, match="picklable"):
            force.run(lambda force, me: None)
        assert _shm_segments() == before   # rejected before creation

    def test_unpicklable_argument_rejected_up_front(self):
        force = Force(2, backend="process", timeout=JOIN_TIMEOUT)
        with pytest.raises(ForceError, match="picklable"):
            force.run(critical_counter_program, threading.Lock())

    @pytest.mark.parametrize("program", [entry[0] for entry in CORPUS],
                             ids=[e[0].__name__ for e in CORPUS])
    def test_corpus_programs_round_trip(self, program):
        clone = pickle.loads(pickle.dumps(program))
        assert clone is program    # module-level: pickled by reference

    def test_common_descriptors_round_trip(self):
        # COMMON layouts travel to worker processes by pickle: the
        # specs and the machine's shared-region plan must survive.
        from repro.machines import ENCORE_MULTIMAX, MemoryLayout
        from repro.machines.memory import VariableSpec

        shared = [VariableSpec("NSHARE", "INTEGER"),
                  VariableSpec("A", "REAL", 1000)]
        private = [VariableSpec("TMP", "DOUBLE PRECISION", 10)]
        for spec in shared + private:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert clone.size == spec.size
        plan = MemoryLayout(ENCORE_MULTIMAX).plan(shared, private)
        clone = pickle.loads(pickle.dumps(plan))
        clone.check()
        assert clone.shared_start == plan.shared_start
        assert clone.shared_end == plan.shared_end
        assert clone.placement("A").start == plan.placement("A").start

    def test_fault_plan_round_trips(self):
        plan = FaultPlan.from_specs(
            ["die@barrier.entry:proc=2", "raise@critical.hold/sum"])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.as_dict() == plan.as_dict()

    def test_stats_and_trace_round_trip(self, tmp_path):
        from repro.obsv.metrics import stats_view
        from repro.runtime.stats import render_stats
        force = _run("thread", askfor_tree_program,
                     str(tmp_path / "out.txt"), stats=True, trace=True,
                     metrics=True)
        # the folded registry pickles, and the stats view of the clone
        # is the published stats dict and report
        clone = pickle.loads(pickle.dumps(force.metrics_registry()))
        assert stats_view(clone) == force.stats
        assert render_stats(stats_view(clone)) == force.stats_report()
        events = force.trace_events()
        clones = pickle.loads(pickle.dumps(events))
        assert [e.as_dict() for e in clones] == \
            [e.as_dict() for e in events]

    def test_structured_errors_round_trip(self):
        for error in (
                ForceWorkerDied(2, "askfor 'work'", detail="died"),
                ForceDeadlockError("stuck", construct="barrier",
                                   timeout=1.5),
                ForceProgramError(3, ValueError("boom"))):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert str(clone) == str(error)
        clone = pickle.loads(pickle.dumps(
            ForceDeadlockError("stuck", construct="barrier",
                               timeout=1.5)))
        assert clone.construct == "barrier"
        assert clone.timeout == 1.5


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_force_constructor_dispatches(self):
        assert isinstance(Force(2, backend="process"), ProcessForce)
        assert not isinstance(Force(2, backend="thread"), ProcessForce)
        assert Force(2, backend="process").backend == "process"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ForceError, match="backend"):
            Force(2, backend="mpi")

    def test_process_force_rejects_other_backend(self):
        with pytest.raises(ForceError):
            ProcessForce(2, backend="thread")


# ----------------------------------------------------------------------
# the hot-path lock-churn fix (satellite regression test)
# ----------------------------------------------------------------------

class TestCriticalLockChurn:
    def test_repeated_entries_reuse_one_lock(self, monkeypatch):
        """Re-entering a named critical must not allocate fresh locks.

        The regression being pinned: ``setdefault(name,
        threading.Lock())`` evaluates its default eagerly, so every
        pass through an already-registered section allocated (and
        discarded) a Lock while holding the registry lock.
        """
        force = Force(1, backend="thread", timeout=JOIN_TIMEOUT)
        real_lock = threading.Lock
        allocated = []

        def counting_lock():
            lock = real_lock()
            allocated.append(lock)
            return lock

        def program(force, me):
            monkeypatch.setattr(threading, "Lock", counting_lock)
            try:
                for _ in range(50):
                    with force.critical("hot"):
                        pass
            finally:
                monkeypatch.setattr(threading, "Lock", real_lock)

        force.run(program)
        assert len(allocated) == 1     # one allocation, 50 entries

    def test_lock_identity_stable_across_entries(self):
        force = Force(2, backend="thread", timeout=JOIN_TIMEOUT)
        seen = []
        guard = threading.Lock()

        def program(force, me):
            for _ in range(10):
                with force.critical("ident"):
                    pass
                with guard:
                    seen.append(force._criticals["ident"])

        force.run(program)
        assert len(set(map(id, seen))) == 1
