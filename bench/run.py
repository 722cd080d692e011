"""End-to-end ``force run`` benchmark: four closed-loop workloads.

Usage, from the repository root::

    python3 bench/run.py [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
    python3 bench/run.py --write-golden

Each workload runs in a fresh workload process with one client: the
next op starts when the previous one returns.  The process times whole
rounds of its seeded plan for ``--seconds``, and finishes the round it
is in.  Every op's result is checked against ``golden.json``.

An untraced run reports the end-to-end metrics.  Between rounds, four
more fresh workload processes are started that only set up; with the
measuring process's own set-up they give five set-up times.
``--trace 1`` instead times the plan for half the time untraced, then
replays the same ops in another process with the layer wrappers of
:mod:`layers` installed, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()     # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: set-up samples per untraced run (the measuring process's own + cold
#: starts spread over the run); ``setup_s`` is their median
SETUP_SAMPLES = 5
#: lower quantile of round paces taken as a run's quiet pace
QUIET_QUANTILE = 0.1
#: seconds a workload process may run beyond its measuring time
CHILD_GRACE_S = 60
#: line a measuring process prints to ask for a cold start
COLD_START = "cold-start"
#: environment switches that would move ops off the default tier
_TIER_OVERRIDES = ("REPRO_CODEGEN", "REPRO_NO_JIT")
_RUSAGE_WHO = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)


class BenchError(RuntimeError):
    """A workload process failed; no result is printed."""


# ----------------------------------------------------------------------
# workload process
# ----------------------------------------------------------------------
def _cpu_s() -> float:
    """User plus system time of this process and its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in map(resource.getrusage, _RUSAGE_WHO))


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the process
    backend starts, so no process outlives the workload process."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def child_main(args) -> dict:
    """One fresh workload process: set up, then (unless ``setup``) time
    ops.  Returns the report the parent reads from the last line."""
    sys.path.insert(0, str(SRC))
    import workloads

    golden = workloads.load_golden()

    def check(case, result) -> str | None:
        expected = golden.get(case.golden_key)
        if expected is None:
            return f"{case.key}: no golden entry"
        got = workloads.observe(case, result)
        if got != expected:
            return f"{case.key}: got {got}, golden {expected}"
        return None

    warm = workloads.warmup_case(args.workload)
    problem = check(warm, workloads.execute(warm))
    if problem is not None:
        raise BenchError(f"warm-up op failed: {problem}")
    setup_s = perf_counter() - _PROCESS_START
    if args.child == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if args.child == "traced":
        from layers import LayerTracer, layer_metrics, result_counts
        tracer = LayerTracer()
    # measured seconds after which each remaining cold start is asked for
    cold_starts = [] if args.trace else \
        [(i + 0.5) * args.seconds / (SETUP_SAMPLES - 1)
         for i in range(SETUP_SAMPLES - 1)]

    def request_cold_start(rounds_done: int) -> None:
        # the parent runs it while this process waits, so its time and
        # resource use stay out of this process's rounds and rusage
        print(f"{COLD_START} {rounds_done}", flush=True)
        sys.stdin.readline()

    seen = {warm.key}
    latencies: list[float] = []
    failures: list[str] = []
    counts: dict[str, int] = {}
    repeats = 0
    #: (ops, wall s, cpu s) of each round
    rounds: list[tuple[int, float, float]] = []
    measured_s = 0.0
    with tracer.installed() if tracer else nullcontext():
        for round_cases in workloads.iter_plan(args.workload, args.seed):
            round_start, round_cpu, round_ops = \
                perf_counter(), _cpu_s(), len(latencies)
            for case in round_cases:
                if args.ops is not None and len(latencies) >= args.ops:
                    break
                repeats += case.key in seen
                seen.add(case.key)
                began = perf_counter()
                try:
                    if tracer is None:
                        result = workloads.execute(case)
                    else:
                        result = tracer.op(workloads.execute, case,
                                           stats=True)
                except Exception as exc:    # a failed op is counted
                    latencies.append(perf_counter() - began)
                    failures.append(f"{case.key}: {type(exc).__name__}: "
                                    f"{exc}")
                    continue
                latencies.append(perf_counter() - began)
                problem = check(case, result)
                if problem is not None:
                    failures.append(problem)
                if tracer is not None:
                    for name, value in result_counts(case, result).items():
                        counts[name] = counts.get(name, 0) + value
            wall_s = perf_counter() - round_start
            rounds.append((len(latencies) - round_ops, wall_s,
                           _cpu_s() - round_cpu))
            measured_s += wall_s
            if cold_starts and measured_s >= cold_starts[0]:
                cold_starts.pop(0)
                request_cold_start(len(rounds))
            if args.ops is not None:
                if len(latencies) >= args.ops:
                    break
            elif measured_s >= args.seconds:
                break
    for _ in cold_starts:
        request_cold_start(len(rounds))
    peak_rss_kb = sum(resource.getrusage(who).ru_maxrss
                      for who in _RUSAGE_WHO)
    _stop_resource_tracker()

    ops = len(latencies)
    report = {
        "setup_s": setup_s,
        "attempted": ops,
        "failed": len(failures),
        "failures": failures[:5],
        "repeat_frac": repeats / ops,
        "latencies_s": latencies,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, counts, ops)
        report["traced_layers_ms"] = {
            layer: 1e3 * entry["self_s"] / ops
            for layer, entry in tracer.totals().items()}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        document = tracer.chrome_trace(
            meta={"workload": args.workload, "seed": args.seed, "ops": ops})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        report["trace_file"] = str(path.relative_to(ROOT))
    return report


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _quiet(values: list[float]) -> float:
    """The lower decile: the value of the least disturbed rounds."""
    ordered = sorted(values)
    return ordered[int(QUIET_QUANTILE * (len(ordered) - 1))]


def timing_metrics(report: dict,
                   setups: list[tuple[float, int]] = ()) -> dict[str, float]:
    """End-to-end timings of one measured run, corrected for host load.

    Other tenants of a shared host slow whole stretches of a run, so
    raw medians drift from run to run.  Every round holds the same
    class mix, so round paces (wall seconds per op) are comparable: the
    run's quiet pace is the lower decile of its round paces.  Each op's
    latency is rescaled by quiet pace / its round's pace before taking
    percentiles; ops/s is the inverse quiet pace, and CPU ms per op the
    lower decile of round CPU per op.  Each set-up sample ``(seconds,
    rounds completed before it)`` is rescaled by quiet pace / the pace
    of the rounds either side of it.  The ``raw_*`` values are the
    uncorrected figures.
    """
    latencies = report["latencies_s"]
    paces = [wall_s / ops for ops, wall_s, _ in report["rounds"]]
    pace = _quiet(paces)
    corrected = []
    start = 0
    for (ops, _, _), round_pace in zip(report["rounds"], paces):
        corrected.extend(latency * pace / round_pace
                         for latency in latencies[start:start + ops])
        start += ops
    setup = []
    for seconds, rounds_done in setups:
        around = paces[max(rounds_done - 1, 0):rounds_done + 1]
        setup.append(seconds * pace / statistics.mean(around))
    total_wall = sum(wall_s for _, wall_s, _ in report["rounds"])
    total_cpu = sum(cpu_s for _, _, cpu_s in report["rounds"])
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(corrected),
        "op_p90_ms": 1e3 * _p90(corrected),
        "ops_per_s": 1 / pace,
        "cpu_ms_per_op": 1e3 * _quiet(
            [cpu_s / ops for ops, _, cpu_s in report["rounds"]]),
        "raw_p50_ms": 1e3 * statistics.median(latencies),
        "raw_p90_ms": 1e3 * _p90(latencies),
        "raw_ops_per_s": len(latencies) / total_wall,
        "raw_cpu_ms_per_op": 1e3 * total_cpu / len(latencies),
    }
    if setups:
        metrics["setup_s"] = statistics.median(setup)
        metrics["raw_setup_s"] = statistics.median(s for s, _ in setups)
    return metrics


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------
def _kill(proc: subprocess.Popen) -> None:
    """Kill a workload process and everything it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(mode: str, args, *, seconds: float, ops: int | None = None,
           setups: list[tuple[float, int]] | None = None) -> dict:
    """Run one workload process and return its report.  Cold starts it
    asks for are run here, and appended to ``setups``."""
    command = [sys.executable, str(HERE / "run.py"), "--child", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace)]
    if ops is not None:
        command += ["--ops", str(ops)]
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in _TIER_OVERRIDES}
    env["TMPDIR"] = str(tmp)            # native runs stage output here
    proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env, start_new_session=True)
    watchdog = threading.Timer(seconds + CHILD_GRACE_S, _kill, (proc,))
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            if line.startswith(COLD_START):
                sample = _spawn("setup", args, seconds=seconds)["setup_s"]
                setups.append((sample, int(line.split()[1])))
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill(proc)
            proc.wait()
    if proc.returncode != 0 or not last:
        raise BenchError(f"{args.workload} {mode} process exited with "
                         f"code {proc.returncode}")
    return json.loads(last)


def run_workload(args) -> tuple[dict, list[str]]:
    """One workload's result object and its human-readable lines."""
    if not args.trace:
        setups: list[tuple[float, int]] = []
        report = _spawn("measure", args, seconds=args.seconds, ops=args.ops,
                        setups=setups)
        setups.append((report["setup_s"], 0))
        timing = timing_metrics(report, setups)
        ops = report["attempted"]
        metrics = {
            "setup_s": (timing["setup_s"], "s"),
            "op_p50_ms": (timing["op_p50_ms"], "ms"),
            "op_p90_ms": (timing["op_p90_ms"], "ms"),
            "ops_per_s": (timing["ops_per_s"], "ops/s"),
            "cpu_ms_per_op": (timing["cpu_ms_per_op"], "ms"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setups)} cold starts; "
                       f"raw {timing['raw_setup_s']:.4g}",
            "op_p50_ms": f"raw {timing['raw_p50_ms']:.4g}",
            "op_p90_ms": f"n={ops}, {ops - int(0.9 * ops)} beyond; "
                         f"raw {timing['raw_p90_ms']:.4g}",
            "ops_per_s": f"raw {timing['raw_ops_per_s']:.4g}",
            "cpu_ms_per_op": f"raw {timing['raw_cpu_ms_per_op']:.4g}",
        }
        reports = [report]
    else:
        plain = _spawn("measure", args, seconds=args.seconds / 2,
                       ops=args.ops)
        traced = _spawn("traced", args, seconds=args.seconds,
                        ops=plain["attempted"])
        metrics = {name: tuple(entry)
                   for name, entry in traced["layers"].items()}
        metrics["trace.overhead"] = (
            timing_metrics(plain)["ops_per_s"]
            / timing_metrics(traced)["ops_per_s"], "ratio")
        metrics["plan.repeat_frac"] = (traced["repeat_frac"], "ratio")
        notes = {}
        reports = [plain, traced]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    lines = [f"== {args.workload}: seed {args.seed}, "
             f"{'traced' if args.trace else 'untraced'}, "
             f"{reports[-1]['attempted']} ops =="]
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:34s} {value:14.6g} {unit}{note}")
    lines.append(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio"
                 f"  ({failed}/{attempted})")
    if not args.trace:
        lines.append(f"  {'repeat_frac':34s} "
                     f"{reports[-1]['repeat_frac']:14.6g} ratio")
    else:
        lines.append(f"  self ms/op by traced layer "
                     f"(trace in {traced['trace_file']}):")
        for layer, value in sorted(traced["traced_layers_ms"].items(),
                                   key=lambda item: -item[1]):
            lines.append(f"    {layer:32s} {value:14.6g} ms")
    for report in reports:
        lines.extend(f"  FAILED {message}" for message in report["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end force run benchmark (see bench/README.md)")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed seconds per workload (default 25)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--ops", type=int,
                        help="time exactly this many ops instead")
    parser.add_argument("--out", help="also write the results to this file")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json from the oracle")
    parser.add_argument("--child", choices=("setup", "measure", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds and --ops must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no Force sources at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    # SIGTERM unwinds through _spawn's cleanup, which kills the workload
    # process group instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.path.insert(0, str(SRC))
    import workloads
    if args.write_golden:
        count = workloads.write_golden()
        print(f"wrote {count} golden entries to {workloads.GOLDEN_PATH}")
        return 0
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        print(f"bench: unknown workload {', '.join(sorted(unknown))}; "
              f"choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    results = {}
    for name in names:
        args.workload = name
        try:
            result, lines = run_workload(args)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result))
        results[name] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
