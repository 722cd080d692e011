"""Simulator timeline and report tests.

The text timeline is :func:`repro.trace.export.to_text` over a run's
trace events (its truncation, filter and empty-trace behaviour is
covered in tests/trace/test_export.py); these cases pin what only a
simulated run supplies.
"""

import re

from repro.core import SEQUENT_BALANCE, force_compile_and_run, programs
from repro.machines import HEP
from repro.pipeline.cli import main
from repro.sim import Cost, Scheduler
from repro.sim.timeline import lock_contention_report, render_utilization
from repro.trace.export import to_text

#: raw object ids in scheduler block keys differ from run to run
_RAW_ID = re.compile(r"\b\d{7,}\b")


def traced_run():
    source = programs.render("sum_critical", n=10)
    return force_compile_and_run(source, SEQUENT_BALANCE, nproc=3,
                                 trace=True)


class TestRenderTimeline:
    def test_contains_lock_events_with_names(self):
        result = traced_run()
        text = to_text(result.trace_events(), max_events=100000)
        assert "BARWIN" in text
        assert "acquired" in text
        assert "released" in text

    def test_max_events_zero_shows_only_the_marker(self):
        result = traced_run()
        text = to_text(result.trace_events(), max_events=0)
        assert text == f"... {len(result.trace)} more events"

    def test_filter_with_no_matches_yields_no_lines(self):
        result = traced_run()
        text = to_text(result.trace_events(),
                       only=("no-such-event-text",))
        assert "t=" not in text

    def test_filter_accepts_multiple_tags(self):
        result = traced_run()
        text = to_text(result.trace_events(),
                       only=("spawned", "acquired"), max_events=100000)
        assert "spawned" in text
        assert "acquired" in text
        assert "released" not in text

    def test_no_truncation_marker_when_everything_fits(self):
        result = traced_run()
        text = to_text(result.trace_events(), max_events=10**6)
        assert "more events" not in text


class TestUnifiedModel:
    """The timeline is rendered through repro.trace, not privately."""

    def test_equals_the_shared_text_exporter(self, tmp_path, capsys):
        path = tmp_path / "sum.frc"
        path.write_text(programs.render("sum_critical", n=10),
                        encoding="utf-8")
        assert main(["run", str(path), "--machine", "sequent-balance",
                     "--nproc", "3", "--trace", "-"]) == 0
        err = capsys.readouterr().err
        events = traced_run().trace_events()
        expected = (to_text(events) + "\n--- lock contention ---\n"
                    + lock_contention_report(events) + "\n")
        assert _RAW_ID.sub("ID", err) == _RAW_ID.sub("ID", expected)

    def test_lines_round_trip_byte_for_byte(self):
        # every rendered body is the scheduler's own text, the same
        # as the run's (time, process, text) view
        result = traced_run()
        text = to_text(result.trace_events(), max_events=10**6)
        bodies = [line.split(" | ", 2)[2] for line in text.split("\n")]
        assert bodies == [what for _t, _who, what in result.trace]


class TestUtilization:
    def test_bars_per_process(self):
        result = traced_run()
        text = render_utilization(result.stats)
        assert "driver" in text
        assert "summer-1" in text
        assert "makespan" in text

    def test_empty_stats(self):
        sched = Scheduler(HEP)

        def nop():
            yield Cost(0)

        sched.spawn(nop())
        stats = sched.run()
        assert "empty run" in render_utilization(stats)


class TestContentionReport:
    def test_barrier_locks_contended(self):
        result = traced_run()
        report = lock_contention_report(result.trace_events())
        assert "BARWIN" in report or "BARWOT" in report or "LCK" in report
        assert "waits" in report

    def test_exact_report_for_sum_critical(self):
        # counted from the typed records; the text is the one the
        # report printed when it parsed the trace lines
        report = lock_contention_report(traced_run().trace_events())
        assert report == "\n".join([
            "lock                    events   waits",
            "BARWIN                      33       9",
            "BARWOT                      24       6",
            "ZZL100                      28       2",
            "LCK                         20       0",
        ])

    def test_no_events(self):
        assert "no lock events" in lock_contention_report([])
