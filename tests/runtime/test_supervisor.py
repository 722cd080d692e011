"""Supervised execution: classification, backoff, resume, elasticity.

Unit tests drive :class:`SupervisedRun` through a scripted
``force_factory`` (each attempt's "force" succeeds or raises on cue),
so retry counts, backoff schedules, degrade decisions and facts-gated
refusals are asserted exactly and instantly.  The closing integration
test then runs a real thread-backend force under an injected death and
watches it recover.
"""

import pytest

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
)
from repro.faults.corpus import CORPUS
from repro.faults.injector import InjectionRecord
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obsv.metrics import ForceMetrics
from repro.runtime.checkpoint import (
    CheckpointPolicy,
    build_checkpoint,
    counter_entry,
    write_checkpoint,
)
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedRun,
    classify_failure,
    nproc_portable,
    prune_fired,
)

#: a zero-delay policy so unit tests never sleep for real
FAST = dict(base_delay=0.0, max_delay=0.0)


class FakeForce:
    """One scripted attempt: run() raises `outcome` or succeeds."""

    def __init__(self, outcome, fired=()):
        self.outcome = outcome
        self._fired = list(fired)

    def run(self, program, *args):
        if self.outcome is not None:
            raise self.outcome

    def injected_faults(self):
        return list(self._fired)


class Script:
    """force_factory replaying a list of attempt outcomes."""

    def __init__(self, outcomes, fired=None):
        self.outcomes = list(outcomes)
        self.fired = list(fired or [[] for _ in outcomes])
        self.calls = []     # (nproc, restore, inject) per attempt

    def __call__(self, nproc, restore, inject):
        self.calls.append((nproc, restore, inject))
        return FakeForce(self.outcomes.pop(0), self.fired.pop(0))


def _supervise(script, *, nproc=4, retry=None, **kwargs):
    return SupervisedRun(lambda force, me: None, nproc=nproc,
                         retry=retry or RetryPolicy(**FAST),
                         force_factory=script, sleep=lambda s: None,
                         **kwargs)


died = ForceWorkerDied(2, "critical")
deadlocked = ForceDeadlockError("parked on barrier")


class TestClassification:
    def test_liveness_verdicts_are_transient(self):
        assert classify_failure(died) == "transient"
        assert classify_failure(deadlocked) == "transient"

    def test_everything_else_is_permanent(self):
        assert classify_failure(ValueError("bug")) == "permanent"
        assert classify_failure(ForceError("config")) == "permanent"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ForceError):
            RetryPolicy(retries=-1)
        with pytest.raises(ForceError):
            RetryPolicy(degrade_after=0)
        with pytest.raises(ForceError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)

    def test_delay_is_capped_doubling_with_bounded_jitter(self):
        import random
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4)
        rng = random.Random(0)
        for retry in range(1, 8):
            cap = min(0.4, 0.1 * 2 ** (retry - 1))
            delay = policy.delay(retry, rng)
            assert cap * 0.5 <= delay < cap

    def test_seeded_jitter_replays(self):
        def schedule():
            script = Script([died, died, died])
            run = _supervise(script, retry=RetryPolicy(
                retries=2, base_delay=0.01, seed=9))
            with pytest.raises(ForceWorkerDied):
                run.run()
            return [a.backoff for a in run.last_result.attempts]

        assert schedule() == schedule()


class TestRetryLoop:
    def test_clean_first_attempt(self):
        script = Script([None])
        result = _supervise(script).run()
        assert result.ok and result.retries == 0
        assert result.final_nproc == 4
        assert [a.outcome for a in result.attempts] == ["ok"]

    def test_transient_then_success(self):
        slept = []
        script = Script([died, None])
        run = SupervisedRun(lambda force, me: None, nproc=4,
                            retry=RetryPolicy(retries=3, base_delay=0.05),
                            force_factory=script, sleep=slept.append)
        result = run.run()
        assert result.ok and result.retries == 1
        assert [a.outcome for a in result.attempts] \
            == ["transient", "ok"]
        assert slept == [result.attempts[0].backoff]
        assert slept[0] > 0

    def test_retries_exhausted_reraises_the_last_failure(self):
        script = Script([died, deadlocked])
        with pytest.raises(ForceDeadlockError):
            _supervise(script, retry=RetryPolicy(retries=1,
                                                 **FAST)).run()
        assert len(script.calls) == 2

    def test_permanent_failures_reraise_immediately(self):
        script = Script([ValueError("program bug"), None])
        run = _supervise(script)
        with pytest.raises(ValueError):
            run.run()
        assert len(script.calls) == 1       # no retry burned
        assert run.last_result.attempts[0].outcome == "permanent"

    def test_fired_records_accumulate_across_attempts(self):
        hit = InjectionRecord(kind="die", site="critical.acquire",
                              name="sum", proc=2, occurrence=3)
        script = Script([died, None], fired=[[hit], []])
        run = _supervise(script)
        result = run.run()
        assert result.ok
        assert run.fired == [hit]


class TestElasticRestart:
    def test_degrade_schedule_sheds_one_worker_per_retry(self):
        script = Script([died, died, died, died])
        run = _supervise(script, nproc=4, min_nproc=2,
                         retry=RetryPolicy(retries=3, degrade_after=2,
                                           **FAST))
        with pytest.raises(ForceWorkerDied):
            run.run()
        assert [c[0] for c in script.calls] == [4, 4, 3, 2]
        assert run.last_result.degraded_restarts == 2
        assert run.last_result.final_nproc == 2

    def test_min_nproc_is_the_floor(self):
        script = Script([died] * 5)
        run = _supervise(script, nproc=4, min_nproc=3,
                         retry=RetryPolicy(retries=4, degrade_after=1,
                                           **FAST))
        with pytest.raises(ForceWorkerDied):
            run.run()
        assert [c[0] for c in script.calls] == [4, 3, 3, 3, 3]

    def test_facts_with_a_racy_doall_refuse_elasticity(self):
        facts = {"files": [{"doalls": [
            {"routine": "JAC", "label": "100", "race_free": False}]}]}
        script = Script([died, died, died])
        run = _supervise(script, nproc=4, min_nproc=2, facts=facts,
                         retry=RetryPolicy(retries=2, degrade_after=1,
                                           **FAST))
        assert not run.portable
        assert "JAC:100" in run.refusal_reason
        with pytest.raises(ForceWorkerDied):
            run.run()
        # retries happen, but always at full width
        assert [c[0] for c in script.calls] == [4, 4, 4]
        assert run.last_result.degraded_restarts == 0

    def test_race_free_facts_permit_elasticity(self):
        facts = {"files": [{"doalls": [
            {"routine": "JAC", "label": "100", "race_free": True}]}]}
        portable, why = nproc_portable(facts)
        assert portable and why == ""
        assert nproc_portable(None) == (True, "")

    def test_empty_facts_refuse_elasticity(self):
        # program_facts yields {} when the analysis rejects a source:
        # no DOALL was proven race-free, so nproc must not change.
        portable, why = nproc_portable({})
        assert not portable
        assert "no facts" in why
        script = Script([died, None])
        run = _supervise(script, nproc=4, min_nproc=2, facts={},
                         retry=RetryPolicy(retries=2, degrade_after=1,
                                           **FAST))
        assert not run.portable
        assert run.refusal_reason == why
        assert run.run().ok
        # the plain retry still happens, at full width
        assert [c[0] for c in script.calls] == [4, 4]

    def test_width_validation(self):
        with pytest.raises(ForceError):
            _supervise(Script([None]), nproc=0)
        with pytest.raises(ForceError):
            _supervise(Script([None]), nproc=2, min_nproc=3)


class TestResume:
    def _snapshot(self, directory, epoch=1):
        return write_checkpoint(str(directory), build_checkpoint(
            epoch=epoch, nproc=4, backend="thread",
            constructs=[counter_entry("total", 7)]))

    def test_retries_restore_the_newest_valid_snapshot(self, tmp_path):
        path = self._snapshot(tmp_path)
        script = Script([died, None])
        metrics = ForceMetrics()
        run = _supervise(script,
                         checkpoint=CheckpointPolicy(1, str(tmp_path)),
                         metrics=metrics)
        result = run.run()
        assert [c[1] for c in script.calls] == [None, path]
        assert result.recoveries == 1
        reg = metrics.registry
        assert reg.counter("retries_total").value == 1
        assert reg.counter("recoveries_total").value == 1
        assert reg.counter("degraded_restarts_total").value == 0

    def test_resume_true_restores_on_the_first_attempt(self, tmp_path):
        path = self._snapshot(tmp_path)
        script = Script([None])
        result = _supervise(
            script, resume=True,
            checkpoint=CheckpointPolicy(1, str(tmp_path))).run()
        assert script.calls[0][1] == path
        assert result.recoveries == 1

    def test_empty_checkpoint_dir_means_fresh_restart(self, tmp_path):
        script = Script([died, None])
        result = _supervise(
            script,
            checkpoint=CheckpointPolicy(1, str(tmp_path))).run()
        assert [c[1] for c in script.calls] == [None, None]
        assert result.recoveries == 0


class TestPruneFired:
    def _plan(self, *specs):
        return FaultPlan(seed=5, faults=tuple(specs))

    def test_a_fired_spec_is_consumed_once(self):
        spec = FaultSpec(kind="die", site="critical.acquire",
                         occurrence=2)
        other = FaultSpec(kind="raise", site="barrier.entry")
        hit = InjectionRecord(kind="die", site="critical.acquire",
                              name="sum", proc=3, occurrence=2)
        pruned = prune_fired(self._plan(spec, other), [hit])
        assert list(pruned.faults) == [other]
        assert pruned.seed == 5

    def test_unmatched_records_leave_the_plan_alone(self):
        spec = FaultSpec(kind="die", site="critical.acquire")
        miss = InjectionRecord(kind="die", site="barrier.entry",
                               name="", proc=1, occurrence=1)
        assert list(prune_fired(self._plan(spec), [miss]).faults) \
            == [spec]

    def test_duplicate_specs_consume_one_per_record(self):
        spec = FaultSpec(kind="die", site="critical.acquire")
        hit = InjectionRecord(kind="die", site="critical.acquire",
                              name="sum", proc=1, occurrence=1)
        pruned = prune_fired(self._plan(spec, spec), [hit])
        assert list(pruned.faults) == [spec]


class TestRealRecovery:
    def test_injected_death_recovers_on_the_thread_backend(
            self, tmp_path):
        entry = CORPUS["sum_critical"]
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(kind="die", site="critical.acquire",
                      occurrence=4),))
        run = SupervisedRun(
            entry.program, nproc=4, backend="thread",
            checkpoint=CheckpointPolicy(1, str(tmp_path)),
            retry=RetryPolicy(retries=2, **FAST), inject=plan,
            timeout=30.0, construct_timeout=10.0)
        result = run.run()
        assert result.ok and result.retries == 1
        assert [r.kind for r in run.fired] == ["die"]
        entry.check(result.force)
