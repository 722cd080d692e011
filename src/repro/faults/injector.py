"""Fault execution: deterministic triggering at runtime hook sites.

The :class:`FaultInjector` lives on a :class:`~repro.runtime.force.Force`
run (``Force(..., inject=plan)``) and is consulted from the *same*
interception points as the run's observability probe, as a separate
control hook.  Each consultation is
one ``fire(site, name, me)`` call; the injector counts matching hits
per spec and executes the spec's fault exactly at its scheduled
occurrence:

* ``raise``  — raises :class:`InjectedFault` (an ordinary
  :class:`~repro._util.errors.ForceError` subclass, so it propagates
  like any program error);
* ``die``    — raises :class:`InjectedDeath`, a ``BaseException`` the
  runtime translates into abrupt thread death *without construct
  cleanup*;
* ``delay``  — sleeps ``spec.seconds`` in place;
* ``lost-wakeup`` — armed via :meth:`swallow_notify`, which the
  notifying construct consults before its ``notify``; a True return
  means "drop this wakeup".

Every executed fault is appended to :attr:`FaultInjector.injected`
(and recorded as a ``fault`` event through the run's
:class:`~repro.runtime.probe.Probe`, when it has one), so a
chaos run can report — and a replay can verify — exactly what was
injected where.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._util.errors import ForceError
from repro.faults.plan import FaultPlan, FaultSpec

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.runtime.probe import Probe


class InjectedFault(ForceError):
    """A fault injected by a :class:`FaultPlan` ``raise`` spec."""

    def __init__(self, spec: FaultSpec, me: int) -> None:
        self.spec = spec
        self.me = me
        super().__init__(
            f"injected fault at {spec.site}"
            f"{'/' + spec.name if spec.name else ''} "
            f"(process {me}, occurrence {spec.occurrence})")


class InjectedDeath(BaseException):
    """Abrupt injected thread death (not an Exception: user ``except
    Exception`` blocks in programs must not swallow it)."""

    def __init__(self, spec: FaultSpec, me: int) -> None:
        self.spec = spec
        self.me = me
        super().__init__(f"process {me} killed at {spec.site}")


@dataclass(frozen=True)
class InjectionRecord:
    """One executed fault: what fired, where, in which process."""

    kind: str
    site: str
    name: str
    proc: int
    occurrence: int

    def describe(self) -> str:
        where = self.site + (f"/{self.name}" if self.name else "")
        return (f"{self.kind}@{where} in process {self.proc} "
                f"(occurrence {self.occurrence})")


class FaultInjector:
    """Executes one :class:`FaultPlan` against one Force run.

    Hit counting is per spec under one lock, so the n-th matching
    occurrence is exact regardless of thread interleaving; each spec
    fires at most once.
    """

    def __init__(self, plan: FaultPlan, *,
                 probe: "Probe | None" = None,
                 sleep=time.sleep) -> None:
        self.plan = plan
        self._probe = probe
        self._sleep = sleep
        self._lock = threading.Lock()
        self._hits = [0] * len(plan.faults)
        self._fired = [False] * len(plan.faults)
        #: executed faults, in firing order
        self.injected: list[InjectionRecord] = []

    # ------------------------------------------------------------------
    # trigger matching
    # ------------------------------------------------------------------
    def _due(self, site: str, name: str, me: int,
             kinds: tuple[str, ...]) -> FaultSpec | None:
        """Count this hit; return the spec that fires now (if any)."""
        with self._lock:
            due = None
            for index, spec in enumerate(self.plan.faults):
                if spec.kind not in kinds or self._fired[index]:
                    continue
                if not spec.matches(site, name, me):
                    continue
                self._hits[index] += 1
                if self._hits[index] == spec.occurrence and due is None:
                    self._fired[index] = True
                    due = spec
            if due is not None:
                self._record(due, site, name, me)
            return due

    def _record(self, spec: FaultSpec, site: str, name: str,
                me: int) -> None:
        """Log the firing (lock held: keeps ``injected`` ordered)."""
        record = InjectionRecord(kind=spec.kind, site=site, name=name,
                                 proc=me, occurrence=spec.occurrence)
        self.injected.append(record)
        if self._probe is not None:
            self._probe.event("fault", site, spec.kind,
                              detail=record.describe(),
                              proc=me, occurrence=spec.occurrence)

    @staticmethod
    def _me_of(me: int | None) -> int:
        """Resolve the force process id, falling back to thread name."""
        if me is not None:
            return me
        name = threading.current_thread().name
        if name.startswith("force-"):
            try:
                return int(name[6:])
            except ValueError:
                pass
        return 0

    # ------------------------------------------------------------------
    # hook-site API
    # ------------------------------------------------------------------
    def fire(self, site: str, name: str = "",
             me: int | None = None) -> None:
        """Consult the plan at an interception site; execute any
        ``raise``/``die``/``delay`` fault scheduled for this hit."""
        spec = self._due(site, name, self._me_of(me),
                         ("raise", "die", "delay"))
        if spec is None:
            return
        if spec.kind == "raise":
            raise InjectedFault(spec, self._me_of(me))
        if spec.kind == "die":
            raise InjectedDeath(spec, self._me_of(me))
        self._sleep(spec.seconds)   # kind == "delay"

    def swallow_notify(self, site: str, name: str = "",
                       me: int | None = None) -> bool:
        """True exactly when a ``lost-wakeup`` spec fires here — the
        caller must then *skip* its notify."""
        spec = self._due(site, name, self._me_of(me), ("lost-wakeup",))
        return spec is not None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        if not self.injected:
            return "no faults injected"
        return "\n".join(record.describe() for record in self.injected)
