"""The exact ``force trace --format json`` output, pinned.

Two traces: the simulator's sum_critical run (instant events only, so
every wait section reports zeros) and a synthetic stream with an
askfor pool and one measured asyncvar span.  Both go through the CLI
from a written JSONL file, so the pin covers loading, summarizing and
rendering.  The expected documents are compared as rendered text, so
int-versus-float types and float formatting are part of the pin.
"""

import json

from repro.core import programs
from repro.pipeline.cli import main
from repro.trace.events import TraceEvent
from repro.trace.export import write_trace_file

ZERO_WAIT = {"count": 0, "max_s": 0.0, "mean_s": 0.0, "min_s": 0.0,
             "spread_s": 0.0, "total_s": 0.0}

SUM_CRITICAL_SUMMARY = {
    "askfor": {},
    "asyncvar": {},
    "barriers": {"episodes": 0, "wait": ZERO_WAIT, "waits": 15},
    "criticals": {"LCK": {"acquisitions": 10, "contended": 0,
                          "hold": ZERO_WAIT, "wait": ZERO_WAIT}},
    "dropped_events": 0,
    "events": 115,
    "processes": ["driver", "summer-1", "summer-2", "summer-3"],
    "selfsched": {"ZZL100": {"chunks": 0, "per_process": {}}},
}

SYNTHETIC_SUMMARY = {
    "askfor": {"pool": {"got": 1, "put": 1, "wait": ZERO_WAIT}},
    "asyncvar": {"chan": {"blocked": 1, "by_op": {"consume": 1},
                          "wait": {"count": 1, "max_s": 0.05,
                                   "mean_s": 0.05, "min_s": 0.05,
                                   "spread_s": 0.0, "total_s": 0.05}}},
    "barriers": {"episodes": 0, "wait": ZERO_WAIT, "waits": 0},
    "criticals": {},
    "dropped_events": 0,
    "events": 3,
    "processes": ["p1", "p2"],
    "selfsched": {},
}


def _rendered(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _trace_json(path, capsys):
    capsys.readouterr()
    assert main(["trace", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out


def test_sum_critical_sim_trace_summary(tmp_path, capsys):
    source = tmp_path / "sum.frc"
    source.write_text(programs.render("sum_critical", n=10))
    trace = tmp_path / "sum.jsonl"
    assert main(["run", str(source), "--machine", "sequent-balance",
                 "--nproc", "3", "--trace", str(trace)]) == 0
    assert _trace_json(trace, capsys) == _rendered(SUM_CRITICAL_SUMMARY)


def test_synthetic_askfor_asyncvar_summary(tmp_path, capsys):
    events = [
        TraceEvent(ts=0.1, proc="p1", kind="askfor", name="pool",
                   op="put"),
        TraceEvent(ts=0.2, proc="p2", kind="askfor", name="pool",
                   op="got"),
        TraceEvent(ts=0.3, proc="p2", kind="asyncvar", name="chan",
                   op="consume", phase="X", dur=0.05),
    ]
    trace = tmp_path / "synthetic.jsonl"
    write_trace_file(str(trace), events)
    assert _trace_json(trace, capsys) == _rendered(SYNTHETIC_SUMMARY)
