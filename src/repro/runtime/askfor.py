"""The Askfor monitor [LO83]: dynamic work distribution (§3.3).

"This construct provides a means of work distribution in cases where
the degree of concurrency is not known at compile time" — workers ask
for work; any worker may add more; the monitor detects global
termination when the pool is empty and no worker still holds an item.

Termination/drain contract: ``get`` always drains queued items before
reporting termination, so every successfully ``put`` item is handed
out exactly once (``total_put == total_got`` at termination).  A
``put`` after the pool terminated raises, so no item is ever silently
dropped.  Monitors created through a Force carry its
:class:`~repro.runtime.cancel.CancelToken`: workers blocked in ``get``
raise ``ForceCancelled`` when a peer process fails.

Robustness: holders are tracked by *thread object*, so a worker that
dies while holding an item (abrupt death, injected or real) is
detected by any blocked ``get`` within one revalidation slice; the
pool then poisons the force with
:class:`~repro._util.errors.ForceWorkerDied` naming the dead process
and the pool — a structured error instead of a termination-protocol
hang.  With a fault injector attached
(``Force(..., inject=plan)``), ``put``/``got`` are injection sites and
``put``'s wakeup can be swallowed by a ``lost-wakeup`` fault (waiters
survive via the revalidating wait).

``put`` and ``get`` are written once, over a small pool protocol
(``_append``, ``_ready``, ``_await_ready``, ``_take`` …) that the
process backend's shared-memory pool implements over its arena ring.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Iterator

from repro._util.errors import ForceError, ForceWorkerDied
from repro.runtime.cancel import CancelToken

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.runtime.probe import Probe


def _me_of_thread(thread: threading.Thread) -> int:
    """Force process id from a ``force-N`` thread name (else 0)."""
    name = thread.name
    if name.startswith("force-"):
        try:
            return int(name[6:])
        except ValueError:
            pass
    return 0


class AskforMonitor:
    """A work pool with built-in termination detection.

    With a :class:`~repro.runtime.probe.Probe` attached (monitors
    created through an observed ``Force``), ``put`` and ``get`` are
    probe sites: ``put``/``got`` instants with queue depth, a span for
    every blocked wait, the waiter marked parked for the stall
    watchdog.
    """

    def __init__(self, initial: list | None = None, *,
                 cancel: CancelToken | None = None,
                 probe: "Probe | None" = None,
                 injector: "FaultInjector | None" = None,
                 name: str = "") -> None:
        self._items: deque = deque(initial or [])
        self._condition = threading.Condition()
        self._holders = 0
        #: thread ident -> Thread for every worker holding an item;
        #: the liveness source for dead-holder detection
        self._holder_threads: dict[int, threading.Thread] = {}
        self._done = False
        self._cancel = cancel
        self._probe = probe
        self._injector = injector
        self._name = name
        self.total_put = len(self._items)
        self.total_got = 0
        #: high-water mark of the queue depth (stats)
        self.max_depth = len(self._items)
        if cancel is not None:
            cancel.register(self._condition)

    def _describe(self) -> str:
        return f"askfor '{self._name}'" if self._name else "askfor"

    def put(self, item: Any) -> None:
        """Add a work item (callable from inside a worker's body)."""
        injector = self._injector
        with self._condition:
            depth = self._append(item)
            if self._probe is not None:
                self._probe.event("askfor", self._name, "put",
                                  depth=depth)
            if injector is None or \
                    not injector.swallow_notify("askfor.put", self._name):
                self._wake()
        if injector is not None:
            # Outside the lock: a fault here models a producer that
            # crashed right after publishing work.
            injector.fire("askfor.put", self._name)

    def get(self) -> tuple[bool, Any]:
        """Ask for work: (True, item), or (False, None) at termination.

        A call to ``get`` also marks the caller's previous item (if
        any) complete — matching the Force askfor loop structure where
        each worker alternates get/process.  Queued items are drained
        even after termination was declared, so nothing is dropped.
        """
        with self._condition:
            self._release_mine()
            self._check()
            probe = self._probe
            if probe is not None:
                got, item = probe.askfor_get(self)
            else:
                if not self._ready():
                    self._await_ready()
                got, item = self._take()
        if got and self._injector is not None:
            # Outside the lock, after the item was handed out: a
            # ``die`` here kills the worker *mid-chunk*, stranding the
            # holder count — the case dead-holder detection covers.
            self._injector.fire("askfor.got", self._name)
        return got, item

    def __iter__(self) -> Iterator[Any]:
        """Iterate work items until global termination."""
        while True:
            got, item = self.get()
            if not got:
                return
            yield item

    # -- the pool protocol (condition held) ----------------------------
    def _append(self, item: Any) -> int:
        """Queue ``item``; returns the new depth."""
        if self._done:
            raise ForceError("putwork after the pool terminated")
        self._items.append(item)
        self.total_put += 1
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)
        return len(self._items)

    def _wake(self) -> None:
        self._condition.notify()

    def _release_mine(self) -> None:
        """The caller's previous item (if any) is complete."""
        if self._holder_threads.pop(threading.get_ident(), None) \
                is not None:
            self._holders -= 1
            self._condition.notify_all()

    def _check(self) -> None:
        if self._cancel is not None:
            self._cancel.check()

    def _depth(self) -> int:
        return len(self._items)

    def _ready(self) -> bool:
        """Work is queued, or the pool has terminated."""
        return bool(self._items) or self._done or self._holders == 0

    def _await_ready(self) -> None:
        """Block until :meth:`_ready`.

        Cancel-aware waits revalidate periodically and run the
        dead-holder hazard, so a lost wakeup or a worker that died
        holding an item cannot hang the termination protocol.
        """
        if self._cancel is None:
            self._condition.wait_for(self._ready)
            return
        self._cancel.wait_for(self._condition, self._ready,
                              what=self._describe(),
                              hazard=self._dead_holder_hazard)

    def _take(self) -> tuple[bool, Any]:
        """Hand out the next item, or declare termination (ready)."""
        if self._items:
            self._holders += 1
            self._holder_threads[threading.get_ident()] = \
                threading.current_thread()
            self.total_got += 1
            return True, self._items.popleft()
        self._done = True
        self._condition.notify_all()
        return False, None

    def _dead_holder_hazard(self) -> ForceWorkerDied | None:
        """A holder thread that died strands the pool: poison it."""
        for ident, thread in list(self._holder_threads.items()):
            if not thread.is_alive():
                del self._holder_threads[ident]
                self._holders -= 1
                if self._probe is not None:
                    self._probe.event("askfor", self._name, "dead-holder",
                                      proc=_me_of_thread(thread))
                return ForceWorkerDied(
                    _me_of_thread(thread), self._describe(),
                    detail="died while holding a work item")
        return None
