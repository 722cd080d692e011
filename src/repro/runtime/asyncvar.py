"""Asynchronous (full/empty) variables for the native runtime (§3.4).

An :class:`AsyncVariable` carries a value plus a full/empty state:

* ``produce(v)`` waits for empty, writes, sets full;
* ``consume()`` waits for full, reads, sets empty;
* ``copy()`` waits for full, reads, leaves full;
* ``void()`` forces empty regardless of state;
* ``isfull`` tests the state without blocking.

On the HEP this was a hardware bit per memory cell; elsewhere the Force
used two locks per variable.  Here a condition variable provides the
same atomic state transition semantics.

Variables created through a :class:`~repro.runtime.force.Force` carry
the force's :class:`~repro.runtime.cancel.CancelToken`, so a wait for a
partner that died raises ``ForceCancelled`` instead of hanging (and
waits revalidate their predicate periodically, so a lost wakeup delays
a waiter by at most one revalidation slice rather than forever), and
the force's :class:`~repro.runtime.probe.Probe` when it observes the
run: every blocked ``produce``/``consume``/``copy`` is a probe site —
blocked time for stats and metrics, a complete trace span, the waiter
marked parked for the stall watchdog.  The process backend's
shared-memory variable reuses these operations over its arena cells.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro._util.errors import ForceError
from repro.runtime.cancel import CancelToken

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.runtime.probe import Probe


class AsyncVariable:
    """One full/empty cell."""

    __slots__ = ("_value", "_full", "_condition", "_cancel", "_probe",
                 "_injector", "_name")

    def __init__(self, value: Any = None, *, full: bool = False,
                 cancel: CancelToken | None = None,
                 probe: "Probe | None" = None,
                 injector: "FaultInjector | None" = None,
                 name: str = "") -> None:
        self._value = value
        self._full = full
        self._condition = threading.Condition()
        self._cancel = cancel
        self._probe = probe
        self._injector = injector
        self._name = name
        if cancel is not None:
            cancel.register(self._condition)

    def _fire(self, op: str) -> None:
        """Injection hook at operation start (no-op without a plan)."""
        if self._injector is not None:
            self._injector.fire(f"asyncvar.{op}", self._name)

    def _notify_all(self, op: str) -> None:
        """State-change wakeup; a lost-wakeup fault swallows it once
        (waiters still progress via the revalidating wait)."""
        if self._injector is not None and \
                self._injector.swallow_notify(f"asyncvar.{op}",
                                              self._name):
            return
        self._condition.notify_all()

    @property
    def isfull(self) -> bool:
        with self._condition:
            return self._full

    def _await(self, predicate: Callable[[], bool],
               timeout: float | None, failure: str,
               op: str = "wait") -> None:
        """Wait (condition held) until predicate.  Only a wait that
        actually blocks is a probe site, so a fast-path
        produce/consume records nothing."""
        if predicate():
            return
        probe = self._probe
        if probe is None:
            satisfied = self._wait(predicate, timeout)
        else:
            satisfied = probe.wait("asyncvar", self._name, self._wait,
                                   predicate, timeout, op=op)
        if not satisfied:
            raise ForceError(failure)

    def _wait(self, predicate: Callable[[], bool],
              timeout: float | None) -> bool:
        """Block (condition held); cancel-aware when a token is set."""
        if self._cancel is None:
            return self._condition.wait_for(predicate, timeout=timeout)
        what = f"asyncvar '{self._name}'" if self._name else "asyncvar"
        return self._cancel.wait_for(self._condition, predicate, timeout,
                                     what=what)

    def produce(self, value: Any, *, timeout: float | None = None) -> None:
        """Wait for empty, write ``value``, set full."""
        self._fire("produce")
        with self._condition:
            self._await(lambda: not self._full, timeout,
                        "produce timed out (variable stayed full)",
                        op="produce")
            self._value = value
            self._full = True
            self._notify_all("produce")

    def consume(self, *, timeout: float | None = None) -> Any:
        """Wait for full, read, set empty."""
        self._fire("consume")
        with self._condition:
            self._await(lambda: self._full, timeout,
                        "consume timed out (variable stayed empty)",
                        op="consume")
            value = self._value
            self._full = False
            self._notify_all("consume")
            return value

    def copy(self, *, timeout: float | None = None) -> Any:
        """Wait for full, read, leave full."""
        self._fire("copy")
        with self._condition:
            self._await(lambda: self._full, timeout,
                        "copy timed out (variable stayed empty)",
                        op="copy")
            return self._value

    def void(self) -> None:
        """Set the state to empty regardless of its previous state."""
        self._fire("void")
        with self._condition:
            self._full = False
            self._notify_all("void")


class AsyncArray:
    """An array of full/empty cells (HEP-style per-element state)."""

    def __init__(self, size: int, *,
                 cancel: CancelToken | None = None,
                 probe: "Probe | None" = None,
                 injector: "FaultInjector | None" = None,
                 name: str = "") -> None:
        if size <= 0:
            raise ForceError("AsyncArray size must be positive")
        self._cells = [AsyncVariable(cancel=cancel, probe=probe,
                                     injector=injector,
                                     name=f"{name}[{index}]" if name
                                     else "")
                       for index in range(size)]

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, index: int) -> AsyncVariable:
        return self._cells[index]

    def produce(self, index: int, value: Any, **kw) -> None:
        self._cells[index].produce(value, **kw)

    def consume(self, index: int, **kw) -> Any:
        return self._cells[index].consume(**kw)

    def copy(self, index: int, **kw) -> Any:
        return self._cells[index].copy(**kw)

    def void_all(self) -> None:
        for cell in self._cells:
            cell.void()
