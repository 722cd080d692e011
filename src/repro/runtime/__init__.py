"""A native, thread-based Force runtime for Python programs.

The preprocessor pipeline reproduces the paper's system; this package
makes its *programming model* usable directly from Python: write a
function of ``(force, me)``, run it with N real threads, and use Force
constructs — barriers, critical sections, pre-/self-scheduled DOALLs,
Pcase, Askfor, asynchronous (full/empty) variables, and Resolve (the
paper's "yet unimplemented concept", built here as an extension).

The default ``backend="thread"`` runs under CPython's GIL and
demonstrates *semantics*; ``Force(nproc, backend="process")`` runs the
same program on real OS processes over POSIX shared memory for true
multi-core execution (see :mod:`repro.runtime.procforce`), and
:mod:`repro.sim` covers performance-shaped experiments on the paper's
machines.

Example::

    from repro.runtime import Force

    def program(force, me):
        total = force.shared_counter("total")
        for i in force.selfsched_range(1, 101):
            with force.critical("sum"):
                total.value += i
        force.barrier()
        if me == 1:
            print(total.value)

    Force(nproc=4).run(program)
"""

from repro._util.errors import ForceDeadlockError, ForceWorkerDied
from repro.runtime.barriers import (
    BARRIER_ALGORITHMS,
    CentralCounterBarrier,
    DisseminationBarrier,
    SenseReversingBarrier,
    TournamentBarrier,
    make_barrier,
)
from repro.runtime.asyncvar import AsyncVariable, AsyncArray
from repro.runtime.cancel import CancelToken, ForceCancelled
from repro.runtime.force import Force, ForceProgramError
from repro.runtime.askfor import AskforMonitor
from repro.runtime.procforce import ProcessForce
from repro.runtime.resolve import Resolve
from repro.runtime.stats import render_stats

__all__ = [
    "BARRIER_ALGORITHMS",
    "CentralCounterBarrier",
    "DisseminationBarrier",
    "SenseReversingBarrier",
    "TournamentBarrier",
    "make_barrier",
    "AsyncVariable",
    "AsyncArray",
    "CancelToken",
    "Force",
    "ForceCancelled",
    "ForceDeadlockError",
    "ForceProgramError",
    "ForceWorkerDied",
    "render_stats",
    "AskforMonitor",
    "ProcessForce",
    "Resolve",
]
