"""The chaos invariant, asserted over a seeded sweep of the corpus.

Scale the sweep with ``FORCE_CHAOS_RUNS`` (the CI smoke job and the
acceptance run use larger values); the default keeps tier-1 fast while
still covering every corpus program and fault kind.
"""

import os

import pytest

from repro.faults.chaos import (
    INVARIANT_OK,
    ChaosReport,
    chaos_sweep,
    render_report,
    run_one,
    sites_for,
    write_failure_artifacts,
)
from repro.faults.corpus import CORPUS
from repro.faults.plan import FaultPlan, random_plan

SEED = 20260806
RUNS = int(os.environ.get("FORCE_CHAOS_RUNS", "24"))
NPROC = 4
DEADLINE = 8.0
CONSTRUCT_TIMEOUT = 1.0


@pytest.fixture(scope="module")
def sweep_report() -> ChaosReport:
    return chaos_sweep(seed=SEED, runs=RUNS, nproc=NPROC,
                       deadline=DEADLINE,
                       construct_timeout=CONSTRUCT_TIMEOUT)


class TestChaosInvariant:
    def test_no_hangs_no_corruption(self, sweep_report):
        assert sweep_report.violations == [], \
            render_report(sweep_report)
        assert all(outcome.status in INVARIANT_OK
                   for outcome in sweep_report.outcomes)

    def test_every_run_finished_inside_its_budget(self, sweep_report):
        slow = [o for o in sweep_report.outcomes
                if o.elapsed > DEADLINE + 5.0]
        assert slow == []

    def test_faults_were_actually_injected(self, sweep_report):
        # A sweep that injects nothing tests nothing: site targeting
        # must keep the hit rate meaningful.
        assert sweep_report.faults_injected >= RUNS // 3

    def test_structured_errors_name_a_construct(self, sweep_report):
        for outcome in sweep_report.outcomes:
            if outcome.status in ("worker-died", "deadlock"):
                assert any(word in outcome.error for word in
                           ("barrier", "critical", "selfsched",
                            "askfor", "asyncvar")), outcome.error


class TestReplayDeterminism:
    def test_same_seed_derives_identical_plans(self):
        first = chaos_sweep(seed=SEED, runs=4, nproc=NPROC,
                            deadline=DEADLINE,
                            construct_timeout=CONSTRUCT_TIMEOUT)
        second = chaos_sweep(seed=SEED, runs=4, nproc=NPROC,
                             deadline=DEADLINE,
                             construct_timeout=CONSTRUCT_TIMEOUT)
        assert [o.plan.as_dict() for o in first.outcomes] == \
            [o.plan.as_dict() for o in second.outcomes]
        assert [o.program for o in first.outcomes] == \
            [o.program for o in second.outcomes]

    def test_proc_pinned_fault_replays_identically(self):
        # Barrier entries are per-process deterministic, so a pinned
        # plan must fire the same fault sequence on every replay.
        plan = FaultPlan.from_specs(
            ["raise@barrier.entry:proc=3,n=7"], seed=99)
        runs = [run_one(CORPUS["jacobi"], plan, nproc=NPROC,
                        deadline=DEADLINE,
                        construct_timeout=CONSTRUCT_TIMEOUT)
                for _ in range(2)]
        sequences = [[(r.kind, r.site, r.proc, r.occurrence)
                      for r in force.injected_faults()]
                     for _outcome, force in runs]
        assert sequences[0] == sequences[1] == \
            [("raise", "barrier.entry", 3, 7)]
        assert {outcome.status for outcome, _force in runs} == \
            {"injected-error"}


class TestSiteTargeting:
    def test_each_program_targets_only_reachable_sites(self):
        for entry in CORPUS.values():
            sites = sites_for(entry)
            assert sites, entry.name
            plan = random_plan(3, nproc=NPROC, sites=sites)
            assert all(spec.site in sites for spec in plan.faults)

    def test_askfor_program_targets_askfor_sites(self):
        assert "askfor.got" in sites_for(CORPUS["askfor_tree"])
        assert "asyncvar.produce" in sites_for(CORPUS["pipeline"])


class TestFailureArtifacts:
    def test_artifacts_round_trip_the_plan(self, tmp_path):
        plan = FaultPlan.from_specs(
            ["delay@barrier.entry:seconds=0.01"], seed=5)
        outcome, force = run_one(CORPUS["sections"], plan,
                                 nproc=2, deadline=DEADLINE,
                                 construct_timeout=CONSTRUCT_TIMEOUT)
        written = write_failure_artifacts(str(tmp_path), outcome,
                                          force)
        names = sorted(p.split("/")[-1] for p in written)
        assert names == ["sections-seed5.outcome.json",
                         "sections-seed5.plan.json",
                         "sections-seed5.trace.json"]
        replay = FaultPlan.from_json(
            (tmp_path / "sections-seed5.plan.json").read_text(
                encoding="utf-8"))
        assert replay == plan
