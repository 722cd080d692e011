"""Command-line interface: ``force translate|run|check|trace|chaos``.

Examples::

    force machines
    force translate program.frc --machine sequent-balance
    force translate program.frc --check          # gate on diagnostics
    force run program.frc --machine hep --nproc 8 --stats
    force run program.frc --stats --format json  # machine-readable
    force run program.frc --trace out.json       # Chrome trace file
    force run program.frc --metrics out.prom     # Prometheus export
    force run program.frc --deadline 30          # bound the simulation
    force trace out.json                         # per-construct summary
    force profile out.json --folded out.folded   # forensics report
    force tune out.json --output rec.json        # policy recommender
    force check program.frc                      # static analysis only
    force check program.frc --format json --werror
    force chaos --seed 42 --runs 200             # seeded fault sweep
    force chaos --inject die@askfor.got:proc=1 askfor_tree

IO contract: program output goes to stdout; diagnostics, timelines and
reports go to stderr.  With ``--format json`` a single JSON document
replaces stdout's plain lines (program output under ``"output"``,
statistics under ``"stats"``), giving ``force run`` the same
machine-readable surface as ``force check --format json``.

Exit status (the documented taxonomy, asserted by the CLI tests):

====  ===========================================================
code  meaning
====  ===========================================================
0     success
1     program or pipeline error (translation failure, a process
      raised, static ``check`` found errors, chaos invariant broken)
2     usage error (bad flags, unknown machine, bad fault spec
      grammar caught by argparse)
3     deadlock or timeout — a structured no-progress verdict:
      simulated deadlock, ``--deadline`` exceeded, a native
      construct deadline fired, or a worker died irrecoverably
====  ===========================================================
"""

from __future__ import annotations

import argparse
import difflib
import sys

from repro._util.errors import (
    ForceDeadlockError,
    ForceError,
    ForceWorkerDied,
    SimDeadlockError,
)
from repro.machines import get_machine, MACHINES
from repro.pipeline.compile import force_translate
from repro.pipeline.run import force_run

#: the exit-code taxonomy (see module docstring)
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DEADLOCK = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive process count (got {value})")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (got {value})")
    return value


def _fault_kinds(text: str) -> tuple:
    from repro.faults.plan import FAULT_KINDS
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown fault kind {kind!r}; expected a comma list "
                f"of {', '.join(FAULT_KINDS)}")
    if not kinds:
        raise argparse.ArgumentTypeError(
            "expected at least one fault kind")
    return kinds


def _chunk_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a chunk size >= 1 (got {value})")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds (got {value})")
    return value


def _fault_spec(text: str):
    from repro.faults.plan import FaultSpecError, parse_fault_spec
    try:
        return parse_fault_spec(text)
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _machine_key(text: str) -> str:
    if text in MACHINES:
        return text
    close = difflib.get_close_matches(text, MACHINES, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    raise argparse.ArgumentTypeError(
        f"unknown machine {text!r}{hint}; run 'force machines' to list "
        "the supported models")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="force",
        description="The Force parallel language — reproduction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    machines = sub.add_parser("machines",
                              help="list the supported machine models")
    machines.set_defaults(func=_cmd_machines)

    translate = sub.add_parser("translate",
                               help="preprocess a Force program to Fortran")
    translate.add_argument("source", help="Force source file")
    translate.add_argument("--machine", type=_machine_key,
                           default="sequent-balance")
    translate.add_argument("--stage", choices=["sed", "fortran"],
                           default="fortran",
                           help="which intermediate form to print")
    translate.add_argument("--check", action="store_true",
                           help="run the static analyzer first and refuse "
                                "to translate a program with errors")
    translate.add_argument("--sched", choices=["self", "chunked", "guided"],
                           default=None,
                           help="selfscheduled-DOALL dispatch policy "
                                "(default: the paper's one index per "
                                "lock round)")
    translate.add_argument("--chunk", type=_chunk_size, default=None,
                           metavar="N",
                           help="indices claimed per lock round for "
                                "--sched chunked (implies it when > 1)")
    translate.add_argument("--emit-python", metavar="FILE", default=None,
                           help="also write the source-codegen tier's "
                                "generated Python for every unit (with "
                                "per-line Fortran provenance comments) "
                                "to FILE")
    translate.set_defaults(func=_cmd_translate)

    run = sub.add_parser("run", help="simulate a Force program "
                                     "(or run it for real: --backend)")
    run.add_argument("source", help="Force source file")
    run.add_argument("--machine", type=_machine_key, default=None,
                     help="machine model to simulate (default "
                          "sequent-balance; the native backends always "
                          "execute python-host code)")
    run.add_argument("--backend", choices=["sim", "thread", "process"],
                     default="sim",
                     help="execution backend: the discrete-event "
                          "simulator (default), or native execution on "
                          "real OS threads / forked processes over "
                          "shared memory")
    run.add_argument("--nproc", type=_positive_int, default=4,
                     help="number of Force processes (positive)")
    run.add_argument("--stats", action="store_true",
                     help="print simulation statistics")
    run.add_argument("--trace", nargs="?", const="-", default=None,
                     metavar="FILE",
                     help="collect an event trace; with FILE write it "
                          "there (format from --trace-format or the "
                          "extension), bare --trace prints the text "
                          "timeline to stderr")
    run.add_argument("--trace-format", choices=["chrome", "jsonl", "text"],
                     default=None,
                     help="trace file format (default: chrome, or by "
                          "FILE extension: .jsonl, .txt)")
    run.add_argument("--trace-buffer", type=_positive_int, default=65536,
                     metavar="N",
                     help="per-process trace ring capacity (native "
                          "backends); overflow drops the oldest events "
                          "and is reported (default 65536)")
    run.add_argument("--metrics", metavar="FILE", default=None,
                     help="collect runtime metrics and write them to "
                          "FILE: Prometheus text exposition, or a JSON "
                          "registry document for a .json FILE")
    run.add_argument("--format", choices=["text", "json"], default="text",
                     help="stdout format: plain program output, or one "
                          "JSON document with output and stats")
    run.add_argument("--utilization", action="store_true",
                     help="print per-process utilization bars")
    run.add_argument("--deadline", type=_positive_float, default=None,
                     metavar="SECS",
                     help="wall-clock bound for the simulation; a run "
                          "still churning past it exits 3 with a "
                          "structured deadline error")
    run.add_argument("--sched", choices=["self", "chunked", "guided"],
                     default=None,
                     help="selfscheduled-DOALL dispatch policy "
                          "(default: the paper's one index per lock "
                          "round)")
    run.add_argument("--chunk", type=_chunk_size, default=None,
                     metavar="N",
                     help="indices claimed per lock round for "
                          "--sched chunked (implies it when > 1)")
    run.add_argument("--checkpoint", metavar="DIR", default=None,
                     help="write barrier-epoch snapshots here "
                          "(native process backend only)")
    run.add_argument("--checkpoint-every", type=_positive_int,
                     default=1, metavar="N",
                     help="snapshot every N-th barrier episode "
                          "(default 1)")
    run.add_argument("--resume", action="store_true",
                     help="resume the first attempt from the newest "
                          "valid snapshot in --checkpoint DIR")
    run.add_argument("--retries", type=_nonnegative_int, default=0,
                     metavar="N",
                     help="retry transient failures (worker death, "
                          "deadlock verdicts) up to N times with "
                          "capped backoff, resuming from the newest "
                          "snapshot when --checkpoint is set")
    run.add_argument("--min-nproc", type=_positive_int, default=None,
                     metavar="M",
                     help="allow elastic restart down to M workers "
                          "(refused when the facts, from --facts or "
                          "computed in-process on the source tier, "
                          "leave a DOALL unproven race-free; default: "
                          "no degradation)")
    run.add_argument("--facts", metavar="FILE", default=None,
                     help="analysis facts written by 'force check "
                          "--facts', used instead of the facts the "
                          "source tier computes in-process; DOALLs it "
                          "proves race-free are marked kernel-eligible "
                          "(and lowered to numpy kernels on the source "
                          "tier); stale-revision facts are refused")
    run.add_argument("--codegen", choices=["source", "interp"],
                     default=None,
                     help="execution tier: generated Python source "
                          "(default) or the tree-walking interpreter "
                          "(the differential-testing oracle)")
    run.add_argument("--dump-codegen", metavar="DIR", default=None,
                     help="write each unit's generated Python source "
                          "(per-line Fortran provenance comments) "
                          "into DIR (simulator, source tier only)")
    run.set_defaults(func=_cmd_run)

    bench = sub.add_parser(
        "bench",
        help="run the pinned performance suite and record the results")
    bench.add_argument("--quick", action="store_true",
                       help="smaller problem sizes and fewer repeats "
                            "(CI smoke mode)")
    bench.add_argument("--output", metavar="FILE", default=None,
                       help="results file to merge into (default: "
                            "BENCH_results.json in the current "
                            "directory)")
    bench.add_argument("--format", choices=["text", "json"],
                       default="text", help="report format")
    bench.set_defaults(func=_cmd_bench)

    trace = sub.add_parser(
        "trace", help="summarize a trace file written by run --trace")
    trace.add_argument("tracefile",
                       help="a chrome-JSON or JSONL trace file")
    trace.add_argument("--format", choices=["text", "json"],
                       default="text", help="summary output format")
    trace.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="performance forensics over a trace file: contention "
             "ranking, utilization timeline, critical path")
    profile.add_argument("tracefile",
                         help="a chrome-JSON or JSONL trace file "
                              "written by run --trace")
    profile.add_argument("--format", choices=["text", "json"],
                         default="text", help="report format")
    profile.add_argument("--folded", metavar="FILE", default=None,
                         help="also write folded stacks to FILE "
                              "(flamegraph.pl / speedscope input)")
    profile.add_argument("--rows", type=_positive_int, default=12,
                         metavar="N",
                         help="table rows per report section "
                              "(default 12)")
    profile.set_defaults(func=_cmd_profile)

    tune = sub.add_parser(
        "tune",
        help="recommend scheduling policy, spin budget and backend "
             "from an observed trace")
    tune.add_argument("tracefile",
                      help="a chrome-JSON or JSONL trace file written "
                           "by run --trace")
    tune.add_argument("--output", metavar="FILE", default=None,
                      help="write the recommendation document to FILE "
                           "(default: stdout)")
    tune.add_argument("--nproc", type=_positive_int, default=None,
                      help="force width of the traced run (default: "
                           "from the trace metadata or lane count)")
    tune.add_argument("--cpus", type=_positive_int, default=None,
                      help="host core count for the backend "
                           "recommendation (default: os.cpu_count)")
    tune.set_defaults(func=_cmd_tune)

    check = sub.add_parser(
        "check", help="statically analyze Force programs (no simulation)")
    check.add_argument("sources", nargs="+", help="Force source file(s)")
    check.add_argument("--format", choices=["text", "json"], default="text",
                       help="diagnostic output format")
    check.add_argument("--werror", action="store_true",
                       help="treat warnings as errors")
    check.add_argument("--explain", action="store_true",
                       help="attach witness evidence to race and "
                            "lock-order findings: both sites, their "
                            "barrier phase, and the locks each holds")
    check.add_argument("--facts", metavar="FILE", default=None,
                       help="write machine-readable analysis facts "
                            "(race-free DOALLs, privatizable variables, "
                            "Critical contention) to FILE as JSON")
    check.set_defaults(func=_cmd_check)

    chaos = sub.add_parser(
        "chaos",
        help="run the native chaos corpus under injected fault plans")
    chaos.add_argument("programs", nargs="*", metavar="PROGRAM",
                       help="corpus program(s) to target (default: the "
                            "whole corpus; see --list)")
    chaos.add_argument("--list", action="store_true",
                       help="list the corpus programs and exit")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; run i derives its fault plan "
                            "from seed+i, so sweeps replay exactly")
    chaos.add_argument("--runs", type=_positive_int, default=None,
                       help="number of seeded runs (default 20, or 1 "
                            "with an explicit --inject/--plan)")
    chaos.add_argument("--nproc", type=_positive_int, default=4,
                       help="force width for every run")
    chaos.add_argument("--deadline", type=_positive_float, default=10.0,
                       metavar="SECS",
                       help="join deadline per run (default 10)")
    chaos.add_argument("--construct-timeout", type=_positive_float,
                       default=2.0, metavar="SECS",
                       help="per-construct blocking deadline "
                            "(default 2)")
    chaos.add_argument("--barrier",
                       choices=["central-counter", "sense-reversing",
                                "dissemination", "tournament"],
                       default="central-counter",
                       help="barrier algorithm under test")
    chaos.add_argument("--backend", choices=["thread", "process"],
                       default="thread",
                       help="native backend for every run "
                            "(default thread)")
    chaos.add_argument("--max-faults", type=_positive_int, default=3,
                       metavar="N",
                       help="max faults per derived plan (default 3; "
                            "recorded so artifacts replay exactly)")
    chaos.add_argument("--fault-kinds", type=_fault_kinds,
                       default=None, metavar="KIND[,KIND...]",
                       help="restrict derived plans to these kinds "
                            "(e.g. 'die' for a recovery sweep)")
    chaos.add_argument("--supervise", action="store_true",
                       help="run under the recovery supervisor: "
                            "barrier-epoch checkpoints, retry with "
                            "backoff, elastic restart; fired faults "
                            "must classify 'recovered' with the final "
                            "state bit-identical to a fault-free run")
    chaos.add_argument("--min-nproc", type=_positive_int, default=None,
                       metavar="M",
                       help="supervised retries may degrade down to "
                            "M workers (default: no degradation)")
    chaos.add_argument("--retries", type=_nonnegative_int, default=3,
                       metavar="N",
                       help="supervised retry budget per run "
                            "(default 3)")
    chaos.add_argument("--checkpoints", metavar="DIR", default=None,
                       help="keep supervised runs' snapshot dirs under "
                            "DIR (default: per-run temp dirs, removed)")
    chaos.add_argument("--inject", action="append", default=[],
                       metavar="SPEC", type=_fault_spec,
                       help="explicit fault spec "
                            "KIND@SITE[/NAME][:key=value,...]; "
                            "repeatable, overrides seeded plans")
    chaos.add_argument("--plan", metavar="FILE", default=None,
                       help="JSON fault plan file (as written to the "
                            "artifacts dir), overrides seeded plans")
    chaos.add_argument("--artifacts", metavar="DIR", default=None,
                       help="write failing fault plans + traces here")
    chaos.add_argument("--format", choices=["text", "json"],
                       default="text", help="report format")
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def _cmd_machines(args: argparse.Namespace) -> int:
    for machine in MACHINES.values():
        print(f"{machine.key:18s} {machine.describe()}")
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_translate(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    source = _read(args.source)
    if args.check:
        from repro.analysis import check_source, count_errors, render_text
        diagnostics = check_source(source, filename=args.source)
        if diagnostics:
            print(render_text(diagnostics), file=sys.stderr)
        if count_errors(diagnostics):
            print("force: error: static checks failed; not translating "
                  "(rerun without --check to override)", file=sys.stderr)
            return 1
    result = force_translate(source, machine,
                             sched=args.sched, chunk=args.chunk)
    print(result.sed_output if args.stage == "sed" else result.fortran)
    if args.emit_python is not None:
        _emit_python(args.emit_python, result)
    return 0


def _emit_python(path: str, translation) -> int:
    """``force translate --emit-python``: write the codegen tier's
    generated source (with Fortran provenance comments) for every unit."""
    from repro.fortran.interp import Interpreter
    from repro.fortran.codegen import compile_all
    from repro.fortran.parser import parse_source

    program = parse_source(translation.fortran)
    interp = Interpreter(program)
    compile_all(interp)
    sources = interp.codegen_sources()
    chunks = []
    for name in sorted(sources):
        chunks.append(f"# ===== unit {name} =====\n" + sources[name])
    skipped = sorted(set(program.units) - set(sources))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# Generated by force translate --emit-python.\n"
                     "# Line comments map each statement back to the "
                     "expanded Fortran line.\n\n")
        handle.write("\n".join(chunks) or "# (no units compiled)\n")
        if skipped:
            handle.write("\n# units that fell back to slower tiers: "
                         + ", ".join(skipped) + "\n")
    print(f"codegen: {len(sources)} unit(s) written to {path}"
          + (f" ({len(skipped)} fell back)" if skipped else ""),
          file=sys.stderr)
    return 0


def _fresh_facts(facts: dict, path: str) -> dict | None:
    """Refuse a facts document proven against a different revision.

    Race verdicts gate numpy kernel lowering, so verdicts computed for
    other source must not be trusted.  Facts without a stamp (older
    generators) and checkouts without git are accepted as-is.
    """
    from repro._util.gitrev import git_revision
    stamped = facts.get("git_revision")
    current = git_revision(warn=False)
    if stamped is None or current is None or stamped == current:
        return facts
    print(f"force: warning: {path} was generated at revision {stamped} "
          f"but the checkout is at {current}; ignoring stale facts "
          "(rerun force check --facts to refresh)", file=sys.stderr)
    return None


def _dump_codegen(outdir: str, result, backend: str) -> None:
    """``force run --dump-codegen DIR``: one .py file per unit."""
    import os
    sources = getattr(result, "codegen_sources", {}) or {}
    if backend != "sim":
        print("force: note: --dump-codegen captures the simulator's "
              "generated source; nothing dumped for native backends",
              file=sys.stderr)
        return
    os.makedirs(outdir, exist_ok=True)
    for name, text in sorted(sources.items()):
        with open(os.path.join(outdir, f"{name}.py"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    if sources:
        print(f"codegen: {len(sources)} unit(s) dumped to {outdir}",
              file=sys.stderr)
    else:
        print("force: note: no generated source to dump (units fell "
              "back, or the run used --codegen interp)",
              file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.backend == "sim":
        machine = get_machine(args.machine or "sequent-balance")
    else:
        if args.machine not in (None, "python-host"):
            raise ForceError(
                f"--backend {args.backend} executes python-host code; "
                f"it cannot run a {args.machine} expansion (drop "
                "--machine or pass python-host)")
        machine = get_machine("python-host")
    translation = force_translate(_read(args.source), machine,
                                  sched=args.sched, chunk=args.chunk)
    supervised = (args.retries > 0 or args.checkpoint is not None
                  or args.resume)
    if supervised and args.backend == "sim":
        raise ForceError(
            "supervision (--checkpoint/--resume/--retries/--min-nproc) "
            "drives the native backends; rerun with --backend thread "
            "or process")
    if args.min_nproc is not None and not supervised:
        raise ForceError("--min-nproc needs --retries >= 1 (elastic "
                         "restart happens on supervised retries)")
    facts = None
    if args.facts is not None:
        from repro.analysis.facts import load_facts
        try:
            facts = load_facts(args.facts)
        except ValueError as exc:
            raise ForceError(str(exc)) from None
        facts = _fresh_facts(facts, args.facts)
    if args.backend == "sim":
        result = force_run(translation, args.nproc,
                           trace=args.trace is not None,
                           deadline=args.deadline,
                           facts=facts,
                           codegen=args.codegen)
    else:
        from repro.pipeline.native import native_run
        result = native_run(translation, args.nproc,
                            backend=args.backend,
                            stats=args.stats,
                            trace=args.trace is not None,
                            metrics=args.metrics is not None,
                            trace_capacity=args.trace_buffer,
                            deadline=args.deadline,
                            codegen=args.codegen,
                            retries=args.retries,
                            min_nproc=args.min_nproc,
                            checkpoint_dir=args.checkpoint,
                            checkpoint_every=args.checkpoint_every,
                            resume=args.resume,
                            facts=facts)
    if args.dump_codegen is not None:
        _dump_codegen(args.dump_codegen, result, args.backend)
    trace_file = None
    native = args.backend != "sim"
    dropped = result.trace_dropped if args.trace is not None else 0
    # built once: the trace file, the metrics and the text timeline
    # all read the same events (up to 100,000 of them); a native
    # `--trace -` writes no file and renders no timeline
    read = args.trace is not None and not (native and args.trace == "-")
    events = result.trace_events() if read else None
    if dropped:
        remedy = ("(ring buffer overflow); re-run with a larger "
                  "--trace-buffer" if native else
                  "(the simulator keeps a trace's first events); trace "
                  "a smaller run")
        print(f"force: warning: {dropped} trace event(s) dropped "
              f"{remedy}", file=sys.stderr)
    if args.trace is not None and args.trace != "-":
        from repro.trace.export import write_trace_file
        meta = {"source": args.source, "machine": machine.key,
                "nproc": args.nproc,
                "clock": "seconds" if native else "cycles"}
        if dropped:
            meta["dropped_events"] = dropped
        format_used = write_trace_file(
            args.trace, events, format=args.trace_format, meta=meta)
        trace_file = args.trace
        print(f"trace: {len(events)} events written to "
              f"{args.trace} ({format_used})", file=sys.stderr)
    metrics_file = None
    if args.metrics is not None:
        metrics_file = _write_metrics(args, result, machine, native, events)
    if args.format == "json":
        import json
        document = {
            "source": args.source,
            "machine": machine.key,
            "backend": args.backend,
            "nproc": args.nproc,
            "output": result.output,
        }
        if native:
            document["wall_s"] = round(result.wall_s, 6)
            if result.supervision is not None:
                document["supervision"] = result.supervision
        else:
            document["makespan"] = result.makespan
        document["kernel_eligible"] = result.kernel_eligible
        document["kernelized_doalls"] = result.kernelized_doalls
        document["kernel_refused"] = result.kernel_refused
        if args.stats:
            document["stats"] = result.stats_dict()
        if trace_file is not None:
            document["trace_file"] = trace_file
        if args.trace is not None:
            document["dropped_events"] = dropped
        if metrics_file is not None:
            document["metrics_file"] = metrics_file
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in result.output:
            print(line)
        if native and result.supervision is not None \
                and result.supervision["retries"]:
            sup = result.supervision
            print(f"force: recovered after {sup['retries']} retr"
                  f"{'y' if sup['retries'] == 1 else 'ies'} "
                  f"({sup['recoveries']} resume(s), "
                  f"{sup['degraded_restarts']} degraded restart(s), "
                  f"final nproc {sup['final_nproc']})",
                  file=sys.stderr)
        if args.stats:
            from repro.runtime.stats import render_stats
            print(render_stats(result.stats_dict()), file=sys.stderr)
        if facts is not None:
            count = sum(len(labels)
                        for labels in result.kernel_eligible.values())
            lowered = sum(len(labels)
                          for labels in result.kernelized_doalls.values())
            print(f"facts: {count} kernel-eligible DOALL loop(s) in "
                  f"{len(result.kernel_eligible)} unit(s); "
                  f"{lowered} lowered to numpy kernels",
                  file=sys.stderr)
    if args.trace == "-":
        if native:
            print("force: note: the text timeline renders simulator "
                  "traces; use --trace FILE with the native backends",
                  file=sys.stderr)
        else:
            from repro.sim.timeline import lock_contention_report
            from repro.trace.export import to_text
            print(to_text(events), file=sys.stderr)
            print("--- lock contention ---", file=sys.stderr)
            print(lock_contention_report(events), file=sys.stderr)
    if args.utilization:
        if native:
            print("force: note: --utilization is a simulator report; "
                  "ignored for the native backends", file=sys.stderr)
        else:
            from repro.sim.timeline import render_utilization
            print(render_utilization(result.stats), file=sys.stderr)
    return 0


def _write_metrics(args: argparse.Namespace, result, machine,
                   native: bool, events) -> str:
    """Export the run's metrics registry to ``args.metrics``; ``events``
    is the run's trace, or ``None`` when it was not traced."""
    import json

    from repro.obsv.metrics import MetricsRegistry, registry_from_sim

    if native:
        registry = MetricsRegistry()
        if result.metrics_doc:
            registry.load_dict(result.metrics_doc)
    else:
        registry = registry_from_sim(
            machine.key, args.nproc, result.stats_dict(), events=events)
    path = args.metrics
    if path.endswith(".json"):
        text = json.dumps(registry.as_dict(), indent=2, sort_keys=True)
    else:
        text = registry.to_prometheus()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"metrics: registry written to {path}", file=sys.stderr)
    return path


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.bench import render_bench_report, run_bench_suite

    output = Path(args.output) if args.output else None
    report = run_bench_suite(quick=args.quick, output=output)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_bench_report(report))
    if report["fallbacks"]:
        print("force: error: source codegen fell back to the "
              "tree-walker on corpus program(s): "
              f"{', '.join(sorted(report['fallbacks']))}",
              file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace.export import load_trace_document
    from repro.trace.summary import render_trace_summary, summarize_events
    events, meta = load_trace_document(args.tracefile)
    dropped = int(meta.get("dropped_events") or 0)
    summary = summarize_events(events)
    if args.format == "json":
        import json
        document = json.loads(
            render_trace_summary(summary, as_json=True))
        document["dropped_events"] = dropped
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        if dropped:
            cause = ("the simulator's trace bound; the summary is a "
                     "lower bound (trace a smaller run)"
                     if meta.get("clock") == "cycles" else
                     "ring-buffer overflow; the summary is a lower "
                     "bound (re-run with a larger --trace-buffer)")
            print(f"force: warning: this trace lost {dropped} "
                  f"event(s) to {cause}", file=sys.stderr)
        print(render_trace_summary(summary, as_json=False))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obsv.analyze import analyze_trace
    from repro.obsv.profile import folded_stacks, render_profile
    from repro.trace.export import load_trace_document
    events, meta = load_trace_document(args.tracefile)
    if not events:
        raise ForceError(f"{args.tracefile}: no trace events")
    analysis = analyze_trace(events)
    analysis.meta.update(meta)
    if args.folded is not None:
        with open(args.folded, "w", encoding="utf-8") as handle:
            handle.write(folded_stacks(analysis))
        print(f"profile: folded stacks written to {args.folded}",
              file=sys.stderr)
    if args.format == "json":
        import json
        print(json.dumps(analysis.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_profile(analysis, max_rows=args.rows))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import json

    from repro.obsv.tune import tune_from_events
    from repro.trace.export import load_trace_document
    events, meta = load_trace_document(args.tracefile)
    if not events:
        raise ForceError(f"{args.tracefile}: no trace events")
    nproc = args.nproc or meta.get("nproc")
    document = tune_from_events(events, nproc=nproc,
                                cpu_count=args.cpus,
                                source=meta.get("source")
                                or args.tracefile)
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"tune: recommendation written to {args.output}",
              file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analyze_source,
        count_errors,
        render_json,
        render_text,
    )
    per_file: list[tuple[str, list]] = []
    summaries: list[tuple[str, object]] = []
    for path in args.sources:
        diagnostics, summary = analyze_source(_read(path), filename=path)
        if args.werror:
            diagnostics = [d.promoted() for d in diagnostics]
        per_file.append((path, diagnostics))
        if summary is not None:
            summaries.append((path, summary))
    if args.format == "json":
        print(render_json(per_file))
    else:
        for path, diagnostics in per_file:
            if diagnostics:
                print(render_text(diagnostics, summary=False,
                                  explain=args.explain))
        total_errors = sum(count_errors(d) for _, d in per_file)
        total = sum(len(d) for _, d in per_file)
        print(f"{len(per_file)} file(s) checked: {total_errors} error(s), "
              f"{total - total_errors} warning(s)")
    if args.facts is not None:
        from repro.analysis.facts import write_facts
        write_facts(args.facts, summaries)
        print(f"facts: {len(summaries)} file(s) written to {args.facts}",
              file=sys.stderr)
    return 1 if any(count_errors(d) for _, d in per_file) else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.chaos import (
        ChaosReport,
        _run_config,
        chaos_sweep,
        render_report,
        run_one,
        run_supervised,
        write_failure_artifacts,
    )
    from repro.faults.corpus import CORPUS
    from repro.faults.plan import FaultPlan

    if args.list:
        for entry in CORPUS.values():
            print(f"{entry.name:14s} exercises: "
                  f"{', '.join(entry.exercises)}")
        return EXIT_OK
    names = args.programs or list(CORPUS)
    unknown = [name for name in names if name not in CORPUS]
    if unknown:
        raise ForceError(
            f"unknown chaos program(s) {', '.join(unknown)}; corpus: "
            f"{', '.join(CORPUS)} (see 'force chaos --list')")
    if args.inject and args.plan:
        raise ForceError("--inject and --plan are mutually exclusive")
    explicit = None
    if args.plan:
        explicit = FaultPlan.from_json(_read(args.plan))
    elif args.inject:
        explicit = FaultPlan(seed=args.seed, faults=list(args.inject))

    if explicit is not None:
        # One fixed plan, run against each selected program.
        runs = args.runs or 1
        outcomes = []
        config = _run_config(
            nproc=args.nproc, deadline=args.deadline,
            construct_timeout=args.construct_timeout,
            barrier_algorithm=args.barrier, backend=args.backend,
            supervised=args.supervise, min_nproc=args.min_nproc,
            retries=args.retries if args.supervise else None)
        for index in range(runs):
            for name in names:
                if args.supervise:
                    checkpoint_dir = None
                    if args.checkpoints:
                        import os as _os
                        checkpoint_dir = _os.path.join(
                            args.checkpoints,
                            f"{name}-seed{explicit.seed}")
                    outcome, force = run_supervised(
                        CORPUS[name], explicit, nproc=args.nproc,
                        min_nproc=args.min_nproc,
                        deadline=args.deadline,
                        construct_timeout=args.construct_timeout,
                        barrier_algorithm=args.barrier,
                        backend=args.backend,
                        checkpoint_dir=checkpoint_dir,
                        config=config)
                else:
                    outcome, force = run_one(
                        CORPUS[name], explicit, nproc=args.nproc,
                        deadline=args.deadline,
                        construct_timeout=args.construct_timeout,
                        barrier_algorithm=args.barrier,
                        backend=args.backend, config=config)
                outcomes.append(outcome)
                if outcome.violates_invariant and args.artifacts:
                    write_failure_artifacts(args.artifacts, outcome,
                                            force)
        report = ChaosReport(seed=explicit.seed, runs=len(outcomes),
                             nproc=args.nproc, outcomes=outcomes,
                             deadline=args.deadline,
                             construct_timeout=args.construct_timeout,
                             barrier_algorithm=args.barrier,
                             backend=args.backend,
                             supervised=args.supervise,
                             min_nproc=args.min_nproc)
    else:
        report = chaos_sweep(
            seed=args.seed, runs=args.runs or 20, programs=names,
            nproc=args.nproc, deadline=args.deadline,
            construct_timeout=args.construct_timeout,
            barrier_algorithm=args.barrier,
            artifacts_dir=args.artifacts,
            backend=args.backend, max_faults=args.max_faults,
            fault_kinds=args.fault_kinds, supervise=args.supervise,
            min_nproc=args.min_nproc, retries=args.retries,
            checkpoint_root=args.checkpoints)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return EXIT_ERROR if report.violations else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors (after printing the
        # `force: error: …` message) and 0 for --help; keep main()
        # returning an int so it stays callable in-process.
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (SimDeadlockError, ForceDeadlockError, ForceWorkerDied) as exc:
        # Structured no-progress verdicts get their own exit code so
        # scripts can tell "the program is wrong" from "it hung".
        print(f"force: deadlock: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    except ForceError as exc:
        print(f"force: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"force: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
