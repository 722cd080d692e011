"""CLI tests (the `force` entry point)."""

import re

import pytest

from repro.pipeline.cli import main
from repro._util.text import strip_margin

PROGRAM = strip_margin("""
    Force CLIP of NP ident ME
    Shared INTEGER TOTAL
    End declarations
    Barrier
          TOTAL = NP * 10
          WRITE(*,*) "TOTAL", TOTAL
    End barrier
    Join
          END
""")


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.frc"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


class TestMachinesCommand:
    def test_lists_all_six(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for key in ("hep", "flex32", "encore-multimax", "sequent-balance",
                    "alliant-fx8", "cray-2"):
            assert key in out


class TestTranslateCommand:
    def test_fortran_stage(self, source_file, capsys):
        assert main(["translate", source_file, "--machine", "hep"]) == 0
        out = capsys.readouterr().out
        assert "SUBROUTINE CLIP(ME, NP)" in out
        assert "CALL HEPSPN" in out

    def test_sed_stage(self, source_file, capsys):
        assert main(["translate", source_file, "--stage", "sed"]) == 0
        out = capsys.readouterr().out
        assert "force_main(`CLIP',`NP',`ME')" in out
        assert "barrier_begin()" in out

    def test_default_machine(self, source_file, capsys):
        assert main(["translate", source_file]) == 0
        assert "SPINLK" in capsys.readouterr().out


class TestRunCommand:
    def test_runs_and_prints_output(self, source_file, capsys):
        assert main(["run", source_file, "--machine", "cray-2",
                     "--nproc", "3"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL 30" in out

    def test_stats_flag(self, source_file, capsys):
        assert main(["run", source_file, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "--- simulation ---" in err
        assert "makespan" in err
        assert "lock acquisitions" in err

    def test_stats_share_the_native_report_format(self, source_file):
        # The CLI's --stats report and the native runtime's
        # Force.stats_report() go through one renderer.
        from repro.pipeline.compile import force_translate
        from repro.pipeline.run import force_run
        from repro.machines import get_machine
        from repro.runtime.stats import render_stats

        with open(source_file, encoding="utf-8") as handle:
            source = handle.read()
        result = force_run(force_translate(
            source, get_machine("hep")), 2)
        stats = result.stats_dict()
        assert stats["sim"]["processes"] == 2
        assert stats["sim"]["makespan"] == result.makespan
        assert "--- simulation ---" in render_stats(stats)

    def test_trace_flag(self, source_file, capsys):
        assert main(["run", source_file, "--trace", "--nproc", "2"]) == 0
        err = capsys.readouterr().err
        assert "BARWIN" in err
        assert "lock contention" in err

    def test_utilization_flag(self, source_file, capsys):
        assert main(["run", source_file, "--utilization"]) == 0
        err = capsys.readouterr().err
        assert "utilization" in err
        assert "driver" in err


class TestTraceFile:
    def test_trace_file_is_valid_chrome_json(self, source_file, tmp_path,
                                             capsys):
        import json
        from repro.trace.export import validate_chrome_trace

        trace_path = tmp_path / "out.json"
        assert main(["run", source_file, "--nproc", "2",
                     "--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert "TOTAL 20" in captured.out
        assert "events written to" in captured.err
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["nproc"] == 2
        assert doc["otherData"]["clock"] == "cycles"

    def test_trace_file_has_a_lane_per_force_process(self, source_file,
                                                     tmp_path):
        import json

        trace_path = tmp_path / "out.json"
        assert main(["run", source_file, "--nproc", "3",
                     "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        lanes = {r["args"]["name"] for r in doc["traceEvents"]
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        # one lane per Force process (plus the simulator driver)
        assert sum(1 for lane in lanes if lane != "driver") >= 3

    def test_jsonl_format_by_flag_and_extension(self, source_file,
                                                tmp_path):
        from repro.trace.export import load_trace_file

        by_ext = tmp_path / "out.jsonl"
        by_flag = tmp_path / "out.dat"
        assert main(["run", source_file, "--trace", str(by_ext)]) == 0
        assert main(["run", source_file, "--trace", str(by_flag),
                     "--trace-format", "jsonl"]) == 0
        assert load_trace_file(str(by_ext))
        assert load_trace_file(str(by_flag))

    def test_text_format_writes_the_timeline(self, source_file, tmp_path):
        trace_path = tmp_path / "out.txt"
        assert main(["run", source_file, "--trace", str(trace_path)]) == 0
        content = trace_path.read_text(encoding="utf-8")
        assert "BARWIN" in content

    def test_bare_trace_flag_still_prints_to_stderr(self, source_file,
                                                    tmp_path, capsys):
        assert main(["run", source_file, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "BARWIN" in err
        assert "lock contention" in err
        # nothing written besides the source fixture itself
        assert [p.name for p in tmp_path.iterdir()] == ["prog.frc"]


class TestTraceSubcommand:
    def _write_trace(self, source_file, tmp_path):
        trace_path = tmp_path / "out.json"
        assert main(["run", source_file, "--nproc", "2",
                     "--trace", str(trace_path)]) == 0
        return str(trace_path)

    def test_summary_text(self, source_file, tmp_path, capsys):
        path = self._write_trace(source_file, tmp_path)
        capsys.readouterr()
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "processes:" in out
        assert "--- barriers ---" in out

    def test_summary_json(self, source_file, tmp_path, capsys):
        import json

        path = self._write_trace(source_file, tmp_path)
        capsys.readouterr()
        assert main(["trace", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["events"] > 0
        assert doc["barriers"]["waits"] >= 1

    def test_missing_trace_file(self, capsys):
        assert main(["trace", "/nonexistent/trace.json"]) == 1

    def test_corrupt_trace_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert main(["trace", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestJsonRunFormat:
    def test_stats_format_json_document(self, source_file, capsys):
        import json

        assert main(["run", source_file, "--stats", "--format", "json",
                     "--nproc", "2", "--machine", "hep"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["machine"] == "hep"
        assert doc["nproc"] == 2
        assert doc["output"] == ["TOTAL 20"]
        assert doc["makespan"] > 0
        assert doc["stats"]["sim"]["processes"] == 2

    def test_format_json_without_stats_omits_them(self, source_file,
                                                  capsys):
        import json

        assert main(["run", source_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "stats" not in doc
        assert doc["output"] == ["TOTAL 40"]

    def test_kernels_reported_without_facts_file(self, capsys):
        import json
        from pathlib import Path

        jacobi = Path(__file__).resolve().parents[2] / "examples" \
            / "jacobi.frc"
        assert main(["run", str(jacobi), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel_eligible"] == doc["kernelized_doalls"] \
            == {"JACOBI": [10, 20]}
        assert doc["kernel_refused"] == {}

    def test_trace_file_referenced_in_document(self, source_file,
                                               tmp_path, capsys):
        import json

        trace_path = tmp_path / "out.json"
        assert main(["run", source_file, "--format", "json",
                     "--trace", str(trace_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_file"] == str(trace_path)


class TestErrors:
    def test_unknown_machine_is_a_usage_error(self, source_file, capsys):
        assert main(["run", source_file, "--machine", "pdp-11"]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "unknown machine 'pdp-11'" in err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.frc"]) == 1

    def test_bad_program(self, tmp_path, capsys):
        path = tmp_path / "bad.frc"
        path.write_text("      THIS IS NOT FORCE\n", encoding="utf-8")
        assert main(["run", str(path)]) == 1


class TestSourceLines:
    """Force statements the sed stage must see whole, and errors cited
    at the line of the Force source rather than of the generated
    Fortran."""

    FORCECALL = strip_margin("""
        Force MAIN of NP ident ME
        Shared REAL A(4), B(2, 3)
        End declarations
        Barrier
              A(2) = 5.0
              B(1, 2) = 7.0
        End barrier
        Forcecall SHOW(A(2), B(1,2))
        Join
              END
        Forcesub SHOW(X, Y) of NP ident ME
        End declarations
        Barrier
              WRITE(*,*) "X", X, "Y", Y
        End barrier
              RETURN
              END
    """)

    CONTINUED = strip_margin("""
        Force CONT of NP ident ME
        Shared INTEGER X
        End declarations
        Barrier
              X = 1 + &
        End barrier
        Join
              END
    """)

    def _write(self, tmp_path, text):
        path = tmp_path / "prog.frc"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_forcecall_actual_with_parentheses(self, tmp_path, capsys):
        path = self._write(tmp_path, self.FORCECALL)
        for machine in ("sequent-balance", "hep"):
            for tier in ("source", "interp"):
                assert main(["run", path, "--machine", machine,
                             "--nproc", "2", "--codegen", tier]) == 0
                assert capsys.readouterr().out.split() == \
                    ["X", "5.0", "Y", "7.0"]
        assert main(["check", path]) == 0
        assert "F002" not in capsys.readouterr().out

    def test_continuation_into_a_force_statement(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONTINUED)
        wording = "a statement continued with '&' has no next line"
        assert main(["run", path, "--nproc", "2"]) == 1
        assert f"line 5: {wording}" in capsys.readouterr().err
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert ":5: error[F002]" in out and wording in out


class TestExitCodeTaxonomy:
    """The documented exit statuses: 0 ok, 1 program error, 2 usage,
    3 deadlock/timeout — so scripts can tell "the program is wrong"
    from "it hung"."""

    @pytest.fixture()
    def deadlocking_file(self, tmp_path):
        # Only process 1 reaches the barrier: the force can never
        # complete and the simulator reports a deadlock.
        path = tmp_path / "stuck.frc"
        path.write_text(strip_margin("""
            Force STUCK of NP ident ME
            End declarations
                  IF (ME .EQ. 1) THEN
            Barrier
            End barrier
                  END IF
            Join
                  END
        """), encoding="utf-8")
        return str(path)

    def test_success_is_zero(self, source_file):
        assert main(["run", source_file]) == 0

    def test_deadlock_is_three(self, deadlocking_file, capsys):
        assert main(["run", deadlocking_file, "--nproc", "3"]) == 3
        err = capsys.readouterr().err
        assert "force: deadlock:" in err
        assert "deadlock" in err

    def test_program_error_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.frc"
        path.write_text("      THIS IS NOT FORCE\n", encoding="utf-8")
        assert main(["run", str(path)]) == 1
        assert "force: error:" in capsys.readouterr().err

    def test_usage_error_is_two(self, source_file):
        assert main(["run", source_file, "--nproc", "0"]) == 2

    def test_deadline_flag_accepted(self, source_file, capsys):
        assert main(["run", source_file, "--deadline", "30"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_deadline_must_be_positive(self, source_file, capsys):
        assert main(["run", source_file, "--deadline", "0"]) == 2
        assert "positive number of seconds" in capsys.readouterr().err

    def test_deadline_must_be_a_number(self, source_file, capsys):
        assert main(["run", source_file, "--deadline", "soon"]) == 2


class TestArgumentValidation:
    """Bad flag values die at the parser with exit 2 and a clear
    `force … error:` message, before any file or runtime is touched."""

    def test_nproc_zero(self, source_file, capsys):
        assert main(["run", source_file, "--nproc", "0"]) == 2
        err = capsys.readouterr().err
        assert "force run: error:" in err
        assert "positive process count (got 0)" in err

    def test_nproc_negative(self, source_file, capsys):
        assert main(["run", source_file, "--nproc", "-3"]) == 2
        assert "positive process count (got -3)" in capsys.readouterr().err

    def test_nproc_not_an_integer(self, source_file, capsys):
        assert main(["run", source_file, "--nproc", "many"]) == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_machine_typo_suggests_nearest(self, source_file, capsys):
        assert main(["run", source_file,
                     "--machine", "sequent-balence"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'sequent-balance'?" in err

    def test_machine_typo_on_translate_too(self, source_file, capsys):
        assert main(["translate", source_file, "--machine", "crya-2"]) == 2
        assert "did you mean 'cray-2'?" in capsys.readouterr().err

    def test_stage_typo_lists_choices(self, source_file, capsys):
        assert main(["translate", source_file, "--stage", "see"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "sed" in err

    def test_validation_happens_before_file_access(self, capsys):
        # A bad --nproc on a missing file is still a usage error.
        assert main(["run", "/nonexistent/prog.frc", "--nproc", "0"]) == 2


LOOP_PROGRAM = strip_margin("""
    Force CLOOP of NP ident ME
    Private INTEGER I, J, W
    Shared INTEGER SINK
    End declarations
    Barrier
          SINK = 0
    End barrier
    Selfsched DO 100 I = 1, 24
          W = 3 * I
          DO 5 J = 1, W
            SINK = SINK
    5     CONTINUE
          Critical LCK
          SINK = SINK + W
          End critical
    100 End Selfsched DO
    Join
          END
""")


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.frc"
    path.write_text(LOOP_PROGRAM, encoding="utf-8")
    return str(path)


def _mask_ids(text):
    """Blank the object ids the simulator's join block key carries."""
    return re.sub(r"\('join', \d+\)", "('join', ID)", text)


class TestMetricsExport:
    def test_sim_prometheus_text(self, loop_file, tmp_path, capsys):
        out = tmp_path / "run.prom"
        assert main(["run", loop_file, "--metrics", str(out)]) == 0
        text = out.read_text()
        assert "# TYPE force_sim_makespan_cycles gauge" in text
        assert "force_sim_lock_acquisitions_total" in text
        assert "registry written" in capsys.readouterr().err

    def test_sim_json_document_validates(self, loop_file, tmp_path):
        import json

        from repro.obsv.metrics import validate_metrics
        out = tmp_path / "run.json"
        assert main(["run", loop_file, "--metrics", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_metrics(doc) == []

    def test_native_metrics_cover_constructs(self, loop_file, tmp_path):
        # The translated program synchronises via SPINLK/SPINUN, so
        # construct metrics come from the native runtime's lock hooks:
        # barrier episodes from Force.barrier, critical sections from
        # the named lock (selfsched index locks show up in traces, not
        # as a metrics family — their cost is lock churn, not indices).
        out = tmp_path / "native.prom"
        assert main(["run", loop_file, "--backend", "thread",
                     "--nproc", "2", "--metrics", str(out)]) == 0
        text = out.read_text()
        assert "force_barrier_episodes_total" in text
        assert "force_critical_acquisitions_total" in text
        assert 'name="LCK"' in text

    def test_trace_and_metrics_build_the_events_once(self, loop_file,
                                                     tmp_path, monkeypatch):
        from repro.pipeline.native import NativeRunResult
        from repro.pipeline.run import RunResult
        builds = []

        def counting(original):
            def build(result):
                builds.append(result)
                return original(result)
            return build

        for cls in (RunResult, NativeRunResult):
            monkeypatch.setattr(cls, "trace_events",
                                counting(cls.trace_events))
        both = (tmp_path / "both.json", tmp_path / "both.prom")
        assert main(["run", loop_file, "--trace", str(both[0]),
                     "--metrics", str(both[1])]) == 0
        assert len(builds) == 1
        # the same files as a trace-only run and a run whose metrics
        # come with the text timeline
        alone = (tmp_path / "alone.json", tmp_path / "alone.prom")
        assert main(["run", loop_file, "--trace", str(alone[0])]) == 0
        assert main(["run", loop_file, "--trace", "-",
                     "--metrics", str(alone[1])]) == 0
        assert len(builds) == 3
        masked = [_mask_ids(path.read_text()) for path in both + alone]
        assert masked[:2] == masked[2:]
        assert "force_sim_lock_acquisitions_total" in masked[1]
        # a native `--trace -` has no reader for the events
        assert main(["run", loop_file, "--backend", "thread",
                     "--trace", "-"]) == 0
        assert len(builds) == 3

    def test_json_run_document_names_metrics_file(self, loop_file,
                                                  tmp_path, capsys):
        import json
        out = tmp_path / "m.prom"
        assert main(["run", loop_file, "--metrics", str(out),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["metrics_file"] == str(out)


class TestProfileCommand:
    def _trace(self, loop_file, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["run", loop_file, "--trace", str(trace)]) == 0
        return str(trace)

    def test_text_report(self, loop_file, tmp_path, capsys):
        trace = self._trace(loop_file, tmp_path)
        capsys.readouterr()
        assert main(["profile", trace]) == 0
        out = capsys.readouterr().out
        assert "=== force profile ===" in out
        assert "contention ranking" in out
        assert "critical path" in out
        assert "selfsched:ZZL100" in out

    def test_json_report(self, loop_file, tmp_path, capsys):
        import json
        trace = self._trace(loop_file, tmp_path)
        capsys.readouterr()
        assert main(["profile", trace, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clock"] == "cycles"
        assert "shares" in doc["critical_path"]

    def test_folded_stacks_file(self, loop_file, tmp_path, capsys):
        trace = self._trace(loop_file, tmp_path)
        folded = tmp_path / "stacks.folded"
        assert main(["profile", trace, "--folded", str(folded)]) == 0
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            frames, weight = line.rsplit(" ", 1)
            assert int(weight) > 0

    def test_missing_trace_is_an_error(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "absent.jsonl")]) == 1


class TestTuneCommand:
    def test_recommendation_document(self, loop_file, tmp_path, capsys):
        import json

        from repro.obsv.tune import validate_recommendation
        trace = tmp_path / "run.jsonl"
        assert main(["run", loop_file, "--trace", str(trace)]) == 0
        rec = tmp_path / "rec.json"
        assert main(["tune", str(trace), "--output", str(rec)]) == 0
        doc = json.loads(rec.read_text())
        assert validate_recommendation(doc) == []
        sched = doc["recommendations"]["sched"]
        assert sched is not None
        assert sched["policy"] in ("cyclic", "blocked", "self",
                                   "chunked", "guided")
        # nproc came from the trace header, not a flag
        assert doc["observations"]["nproc"] == 4

    def test_prints_to_stdout_without_output(self, loop_file, tmp_path,
                                             capsys):
        import json
        trace = tmp_path / "run.jsonl"
        assert main(["run", loop_file, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["tune", str(trace)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["generated_by"] == "force tune"


class TestTraceBufferDrops:
    def test_tiny_buffer_warns_and_reports(self, loop_file, tmp_path,
                                           capsys):
        import json
        trace = tmp_path / "small.jsonl"
        assert main(["run", loop_file, "--backend", "thread",
                     "--nproc", "2", "--trace", str(trace),
                     "--trace-buffer", "4", "--format", "json"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["dropped_events"] > 0
        assert "trace event(s) dropped" in captured.err
        assert "--trace-buffer" in captured.err

    def test_trace_summary_surfaces_drops(self, loop_file, tmp_path,
                                          capsys):
        import json
        trace = tmp_path / "small.jsonl"
        assert main(["run", loop_file, "--backend", "thread",
                     "--nproc", "2", "--trace", str(trace),
                     "--trace-buffer", "4"]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dropped_events"] > 0
        assert main(["trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "lost" in err and "ring-buffer" in err

    def test_default_buffer_drops_nothing(self, loop_file, tmp_path,
                                          capsys):
        import json
        trace = tmp_path / "big.jsonl"
        assert main(["run", loop_file, "--backend", "thread",
                     "--nproc", "2", "--trace", str(trace),
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["dropped_events"] == 0
        assert "dropped" not in captured.err

    def test_simulator_trace_past_its_bound_warns_and_reports(
            self, tmp_path, capsys):
        # 25,000 Critical rounds on 4 processes make some 125,000
        # events; the simulator keeps the first 100,000
        import json

        from repro.core import programs
        source = tmp_path / "sum.frc"
        source.write_text(programs.render("sum_critical", n=25000),
                          encoding="utf-8")
        trace = tmp_path / "sum.json"
        assert main(["run", str(source), "--machine", "sequent-balance",
                     "--nproc", "4", "--trace", str(trace),
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        dropped = json.loads(captured.out)["dropped_events"]
        assert dropped > 0
        assert f"{dropped} trace event(s) dropped" in captured.err
        assert "--trace-buffer" not in captured.err
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert document["otherData"]["dropped_events"] == dropped
        assert sum(event["ph"] != "M"
                   for event in document["traceEvents"]) == 100_000
        assert main(["trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert f"lost {dropped} event(s)" in err
        assert "--trace-buffer" not in err
        assert main(["profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"WARNING: {dropped} event(s) were dropped by the " \
            "simulator's trace bound" in out
        assert "--trace-buffer" not in out


class TestSupervisedRunFlags:
    """`force run --checkpoint/--resume/--retries/--min-nproc`."""

    @pytest.fixture()
    def example(self):
        import os
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        return os.path.join(root, "examples", "sum_critical.frc")

    def test_sim_backend_refuses_supervision(self, source_file, capsys):
        assert main(["run", source_file, "--retries", "2"]) == 1
        err = capsys.readouterr().err
        assert "supervision" in err and "native backends" in err

    def test_checkpoint_needs_the_process_backend(self, example,
                                                  tmp_path, capsys):
        assert main(["run", example, "--backend", "thread",
                     "--checkpoint", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "process" in err and "COMMON" in err

    def test_resume_needs_a_checkpoint_dir(self, example, capsys):
        assert main(["run", example, "--backend", "process",
                     "--resume"]) == 1
        assert "--resume needs --checkpoint" in capsys.readouterr().err

    def test_min_nproc_needs_supervision(self, example, capsys):
        assert main(["run", example, "--backend", "thread",
                     "--min-nproc", "2"]) == 1
        assert "--min-nproc needs --retries" in capsys.readouterr().err

    def test_negative_retries_is_a_usage_error(self, example, capsys):
        assert main(["run", example, "--backend", "thread",
                     "--retries", "-1"]) == 2
        assert "force run: error:" in capsys.readouterr().err

    def test_checkpointed_process_run_writes_snapshots(self, example,
                                                       tmp_path,
                                                       capsys):
        import json
        import os
        ckpt = tmp_path / "snaps"
        assert main(["run", example, "--backend", "process",
                     "--nproc", "2", "--checkpoint", str(ckpt),
                     "--retries", "1", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "TOTAL 1275" in "".join(document["output"])
        assert document["supervision"]["retries"] == 0
        assert any(name.startswith("ckpt-")
                   for name in os.listdir(ckpt))

    def test_retries_alone_supervise_the_thread_backend(self, example,
                                                        capsys):
        import json
        assert main(["run", example, "--backend", "thread",
                     "--nproc", "2", "--retries", "2",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["supervision"]["ok"] is True
        assert document["supervision"]["final_nproc"] == 2
