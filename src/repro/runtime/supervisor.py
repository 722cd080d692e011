"""Supervised execution: retry, resume, and elastic restart.

:class:`SupervisedRun` wraps either Force backend in the classic
master/worker recovery discipline:

* **classify** — a failed attempt is *transient* when the runtime
  produced a structured liveness verdict
  (:class:`~repro._util.errors.ForceWorkerDied`,
  :class:`~repro._util.errors.ForceDeadlockError`: a worker died or a
  partner went missing) and *permanent* when the program itself raised
  (:class:`~repro.runtime.force.ForceProgramError` or a checkpoint /
  configuration error).  Permanent failures re-raise immediately — the
  exit taxonomy of an unsupervised run is preserved.
* **retry with backoff** — transient failures are retried up to
  ``RetryPolicy.retries`` times, sleeping a capped exponential backoff
  with seeded jitter between attempts (``random.Random(seed)``: the
  same policy produces the same delays, so supervised chaos sweeps
  replay exactly).
* **resume** — each retry restores the newest *valid* snapshot from
  the checkpoint directory (see :mod:`repro.runtime.checkpoint`); a
  corrupt newest snapshot falls back to the previous one, and no valid
  snapshot at all means a clean from-scratch restart.
* **elastic restart** — because snapshots are nproc-independent (the
  paper's programs never name specific processes), a retry may restart
  with *fewer* workers, down to ``min_nproc`` — the degraded-hardware
  case.  When a ``force check --facts`` document is provided, degraded
  restarts are refused unless every DOALL in it is proven race-free:
  an nproc-dependent phase must not be resumed under a different
  worker count.
* **fault re-arming** — an armed :class:`~repro.faults.plan.FaultPlan`
  is re-armed on retry *minus the specs that already fired*: a
  transient fault strikes once, it does not chase the retry forever.

The supervisor records its own metric families (retries, recoveries,
degraded restarts) through :class:`~repro.obsv.metrics.ForceMetrics`;
checkpoint writes are counted by the runtime itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.faults.injector import InjectionRecord
from repro.faults.plan import FaultPlan
from repro.obsv.metrics import ForceMetrics
from repro.runtime.checkpoint import (
    CheckpointPolicy,
    latest_checkpoint,
)
from repro.runtime.force import Force

#: failure classes the supervisor treats as worth retrying
TRANSIENT_FAILURES = (ForceWorkerDied, ForceDeadlockError)


def classify_failure(error: BaseException) -> str:
    """``"transient"`` (retry) or ``"permanent"`` (re-raise)."""
    return "transient" if isinstance(error, TRANSIENT_FAILURES) \
        else "permanent"


def nproc_portable(facts: dict | None) -> tuple[bool, str]:
    """May this program resume under a different worker count?

    With no facts document the answer is yes (the language contract
    says Force programs are nproc-independent; trust it).  With one,
    every DOALL must be proven race-free — a racy phase's outcome can
    depend on the interleaving width, so the supervisor refuses to
    change nproc under it.  An empty document ``{}`` proves nothing:
    the analysis yields it when it rejects the source (and for a
    source with no Force routine), so it is not portable.  Returns
    ``(portable, why_not)``.
    """
    if facts is None:
        return True, ""
    if not facts:
        return False, "no facts: the analysis proved no DOALL race-free"
    for entry in facts.get("files", []):
        for doall in entry.get("doalls", []):
            if not doall.get("race_free", False):
                where = doall.get("routine", "?")
                label = doall.get("label") or doall.get("line", "?")
                return False, f"DOALL {where}:{label} is not race-free"
    return True, ""


def prune_fired(plan: FaultPlan,
                fired: list[InjectionRecord]) -> FaultPlan:
    """The plan minus the specs that already fired.

    Each fired record consumes the first spec it can have come from
    (same kind/site/occurrence, compatible name and proc), so a
    re-armed retry does not replay a death that already happened —
    while unfired specs stay armed.
    """
    remaining = list(plan.faults)
    for record in fired:
        for index, spec in enumerate(remaining):
            if (spec.kind == record.kind
                    and spec.site == record.site
                    and spec.occurrence == record.occurrence
                    and (not spec.name or spec.name == record.name)
                    and (spec.proc == 0 or spec.proc == record.proc)):
                del remaining[index]
                break
    return FaultPlan(seed=plan.seed, faults=remaining)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: attempts, backoff shape, degrade schedule."""

    retries: int = 3            #: max retries after the first attempt
    base_delay: float = 0.05    #: first backoff (seconds)
    max_delay: float = 2.0      #: backoff ceiling
    degrade_after: int = 2      #: shed one worker from this retry on
    seed: int = 0               #: jitter seed (replayable backoff)

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ForceError("RetryPolicy.retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ForceError(
                "RetryPolicy delays need 0 <= base_delay <= max_delay")
        if self.degrade_after < 1:
            raise ForceError("RetryPolicy.degrade_after must be >= 1")

    def delay(self, retry: int, rng: random.Random) -> float:
        """Backoff before 1-based ``retry``: capped doubling, jittered.

        The jitter multiplies by [0.5, 1.0), so the delay never
        exceeds the cap and never collapses to zero (unless
        ``base_delay`` is zero) — the perfbook discipline for not
        stampeding a shared resource in lockstep.
        """
        raw = self.base_delay * (2.0 ** (retry - 1))
        capped = min(self.max_delay, raw)
        return capped * (0.5 + 0.5 * rng.random())


@dataclass
class AttemptRecord:
    """One supervised attempt, for the run report."""

    attempt: int                    #: 1-based
    nproc: int
    resumed_from: str | None        #: checkpoint path (None = fresh)
    outcome: str = "ok"             #: "ok" | "transient" | "permanent"
    error: str = ""
    backoff: float = 0.0            #: slept before the *next* attempt

    def as_dict(self) -> dict[str, Any]:
        return {"attempt": self.attempt, "nproc": self.nproc,
                "resumed_from": self.resumed_from,
                "outcome": self.outcome, "error": self.error,
                "backoff": self.backoff}


@dataclass
class SupervisedResult:
    """What a supervised run did, attempt by attempt."""

    ok: bool
    attempts: list[AttemptRecord] = field(default_factory=list)
    force: Force | None = None      #: the final attempt's force
    recoveries: int = 0             #: attempts resumed from a snapshot
    degraded_restarts: int = 0      #: resumed at reduced nproc
    final_nproc: int = 0

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def as_dict(self) -> dict[str, Any]:
        return {"ok": self.ok,
                "attempts": [a.as_dict() for a in self.attempts],
                "retries": self.retries,
                "recoveries": self.recoveries,
                "degraded_restarts": self.degraded_restarts,
                "final_nproc": self.final_nproc}


class SupervisedRun:
    """Run a program under supervision; see the module docstring.

    ``force_factory(nproc, restore, inject)`` builds each attempt's
    force — override it to wire supervision into a pipeline that
    constructs its own forces (the CLI's native runner does).  The
    default builds ``Force(nproc, backend=..., checkpoint=...,
    restore=..., inject=..., **force_kwargs)``.

    ``sleep`` is injectable so tests assert the backoff schedule
    without waiting it out.
    """

    def __init__(self, program: Callable[..., Any], args: tuple = (),
                 *, nproc: int, backend: str = "thread",
                 checkpoint: CheckpointPolicy | None = None,
                 min_nproc: int | None = None,
                 retry: RetryPolicy | None = None,
                 inject: FaultPlan | None = None,
                 facts: dict | None = None,
                 resume: bool = False,
                 force_factory: Callable[..., Force] | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 metrics: ForceMetrics | None = None,
                 **force_kwargs: Any) -> None:
        if nproc < 1:
            raise ForceError("a force needs at least one process")
        min_nproc = nproc if min_nproc is None else min_nproc
        if not 1 <= min_nproc <= nproc:
            raise ForceError(
                f"min_nproc must be in [1, nproc]; got {min_nproc} "
                f"with nproc={nproc}")
        self.program = program
        self.args = args
        self.nproc = nproc
        self.backend = backend
        self.checkpoint = checkpoint
        self.min_nproc = min_nproc
        self.retry_policy = retry or RetryPolicy()
        self.plan = inject
        self.facts = facts
        self.resume = resume
        self.force_factory = force_factory or self._default_factory
        self.force_kwargs = force_kwargs
        self._sleep = sleep
        self.metrics = metrics or ForceMetrics()
        self._rng = random.Random(self.retry_policy.seed)
        portable, why = nproc_portable(facts)
        self._portable = portable
        self._not_portable_why = why
        #: every InjectionRecord that fired, across ALL attempts (a
        #: single force only reports its own attempt's records)
        self.fired: list[InjectionRecord] = []
        #: the in-progress/last result, readable even when run() raises
        self.last_result: SupervisedResult | None = None

    def _default_factory(self, nproc: int, restore: str | None,
                         inject: FaultPlan | None) -> Force:
        return Force(nproc, backend=self.backend,
                     checkpoint=self.checkpoint, restore=restore,
                     inject=inject, **self.force_kwargs)

    def _resume_path(self, first: bool) -> str | None:
        """Newest valid snapshot — always on retries, on the first
        attempt only when ``resume=True`` was asked for."""
        if self.checkpoint is None or (first and not self.resume):
            return None
        return latest_checkpoint(self.checkpoint.dir)

    def run(self) -> SupervisedResult:
        """Attempt until success, permanent failure, or retries spent.

        Returns the :class:`SupervisedResult` on success; raises the
        last failure otherwise (permanent errors immediately, so the
        caller's exit taxonomy is exactly the unsupervised one).
        """
        policy = self.retry_policy
        result = SupervisedResult(ok=False)
        self.last_result = result
        plan = self.plan
        nproc = self.nproc
        failure: BaseException | None = None
        for attempt in range(1, policy.retries + 2):
            restore = self._resume_path(first=(attempt == 1))
            record = AttemptRecord(attempt=attempt, nproc=nproc,
                                   resumed_from=restore)
            result.attempts.append(record)
            result.final_nproc = nproc
            degraded = nproc < self.nproc
            if degraded:
                result.degraded_restarts += 1
            if restore is not None:
                result.recoveries += 1
                self.metrics.recovery(degraded=degraded)
            force = self.force_factory(nproc, restore, plan)
            result.force = force
            try:
                force.run(self.program, *self.args)
            except TRANSIENT_FAILURES as exc:
                failure = exc
                record.outcome = "transient"
                record.error = repr(exc)
            except BaseException:
                record.outcome = "permanent"
                raise                   # exit taxonomy unchanged
            else:
                result.ok = True
                return result
            finally:
                self.fired.extend(force.injected_faults() or [])
            # transient: maybe retry
            if attempt > policy.retries:
                break
            self.metrics.retry()
            if plan is not None:
                plan = prune_fired(plan, force.injected_faults())
            retry_number = attempt     # retry k follows attempt k
            if retry_number >= policy.degrade_after \
                    and nproc > self.min_nproc and self._portable:
                nproc -= 1
            record.backoff = policy.delay(retry_number, self._rng)
            if record.backoff > 0:
                self._sleep(record.backoff)
        assert failure is not None
        raise failure

    @property
    def portable(self) -> bool:
        """Whether elastic (nproc-changing) restart is permitted."""
        return self._portable

    @property
    def refusal_reason(self) -> str:
        """Why elastic restart is refused ("" when it is allowed)."""
        return self._not_portable_why
