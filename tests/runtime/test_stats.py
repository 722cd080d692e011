"""Force.stats collection and the shared stats report format."""

import pytest

from repro.runtime import Force, render_stats
from repro._util.errors import ForceError


def jacobi_like(force, me):
    n = 32
    u = force.shared_array("u", n)
    unew = force.shared_array("unew", n)
    force.barrier_section(me, lambda: None)
    for _sweep in range(4):
        for i in force.presched_range(me, 1, n - 2):
            unew[i] = 0.5 * (u[i - 1] + u[i + 1])
        force.barrier()
        for i in force.presched_range(me, 1, n - 2):
            u[i] = unew[i]
        force.barrier()


class TestCollection:
    def test_disabled_by_default(self):
        force = Force(nproc=2, timeout=10)
        force.run(lambda force, me: force.barrier())
        assert force.stats is None
        with pytest.raises(ForceError):
            force.stats_report()

    def test_barrier_episodes_and_waits(self):
        force = Force(nproc=3, timeout=30, stats=True)
        force.run(jacobi_like)
        stats = force.stats
        barriers = stats["barriers"]
        # 1 barrier_section + 4 sweeps x 2 barriers = 9 episodes.
        assert barriers["episodes"] == 9
        assert barriers["wait"]["count"] == 9 * 3
        assert barriers["wait"]["max_s"] >= barriers["wait"]["min_s"]

    def test_critical_contention_per_name(self):
        force = Force(nproc=4, timeout=30, stats=True)

        def program(force, me):
            counter = force.shared_counter("c")
            for _ in range(200):
                with force.critical("hot"):
                    counter.value += 1
            with force.critical("cold"):
                pass

        force.run(program)
        criticals = force.stats["criticals"]
        assert criticals["hot"]["acquisitions"] == 4 * 200
        assert criticals["cold"]["acquisitions"] == 4
        assert set(criticals) == {"hot", "cold"}
        assert force.shared_counter("c").value == 800

    def test_selfsched_chunks_per_label(self):
        force = Force(nproc=3, timeout=30, stats=True)

        def program(force, me):
            for _i in force.selfsched_range("sweep", 1, 40):
                pass
            for _i in force.selfsched_range("tail", 1, 7):
                pass

        force.run(program)
        assert force.stats["selfsched"] == {
            "sweep": {"chunks": 40, "indices": 40, "max_chunk": 1},
            "tail": {"chunks": 7, "indices": 7, "max_chunk": 1},
        }

    def test_askfor_traffic(self):
        force = Force(nproc=3, timeout=30, stats=True)

        def program(force, me):
            pool = force.askfor("jobs", [4] if me == 1 else None)
            for weight in pool:
                if weight > 1:
                    pool.put(weight - 1)
                    pool.put(weight - 1)

        force.run(program)
        jobs = force.stats["askfor"]["jobs"]
        assert jobs["total_put"] == jobs["total_got"] == 2 ** 4 - 1
        assert jobs["max_depth"] >= 1

    def test_asyncvar_blocked_time(self):
        force = Force(nproc=2, timeout=30, stats=True)

        def program(force, me):
            channel = force.async_var("channel")
            if me == 1:
                import time
                time.sleep(0.05)
                channel.produce(1)
            else:
                channel.consume()

        force.run(program)
        channel = force.stats["asyncvar"]["channel"]
        assert channel["count"] >= 1
        assert channel["total_s"] >= 0.04

    def test_stats_reset_between_runs(self):
        force = Force(nproc=2, timeout=10, stats=True)
        force.run(lambda force, me: force.barrier())
        assert force.stats["barriers"]["episodes"] == 1
        force.run(lambda force, me: None)
        assert force.stats["barriers"]["episodes"] == 0


class TestRendering:
    def test_report_has_sections(self):
        force = Force(nproc=3, timeout=30, stats=True)

        def program(force, me):
            counter = force.shared_counter("c")
            for _i in force.selfsched_range("L", 1, 10):
                with force.critical("sum"):
                    counter.value += 1
            force.barrier()

        force.run(program)
        report = force.stats_report()
        assert "--- barriers ---" in report
        assert "--- critical sections ---" in report
        assert "--- selfscheduled loops ---" in report
        assert "10 chunks" in report
        assert "10 indices" in report

    def test_render_accepts_sim_section(self):
        report = render_stats({"sim": {
            "machine": "Test Machine", "processes": 4, "makespan": 100,
            "utilization": 0.5, "lock_acquisitions": 10,
            "contended_acquisitions": 2, "spin_cycles": 7,
            "context_switches": 3,
        }})
        assert "--- simulation ---" in report
        assert "makespan:            100 cycles" in report

    def test_render_skips_absent_sections(self):
        assert render_stats({}) == ""

    def test_force_stats_object_renders(self):
        force = Force(nproc=2, timeout=10, stats=True)
        force.run(lambda force, me: force.barrier())
        assert force.stats["barriers"]["episodes"] == 1
        assert "episodes:            1" in force.stats_report()
        assert force.stats_report() == render_stats(force.stats)
