"""The pinned performance suite behind ``force bench``.

Three benchmarks establish the perf baseline the paper's claims hinge
on, and every future change is compared against:

* **codegen_throughput** — a micro-kernel: raw Fortran statement
  throughput of the tree-walking interpreter vs source codegen on a
  Jacobi relaxation kernel (the hot path E5/E6 measurements sit on),
  labelled ``"kind": "micro-kernel"`` so it is never quoted as the
  system's speed;
* **selfsched_dispatch** — native-runtime selfscheduled-DOALL lock
  traffic under the ``self``/``chunked``/``guided`` policies (one lock
  round per chunk, so ``chunks == ceil(iters/chunk)``);
* **sum_critical_sim** / **askfor_tree** — end-to-end pipeline and
  native workloads whose wall-clock anchors the suite.

Results merge into ``BENCH_results.json`` (same schema the experiment
benchmarks use via ``benchmarks/conftest.py``), each entry stamped
with the current git revision so the trajectory is attributable across
PRs.  The suite also acts as a gate: the codegen entry translates and
runs the whole example corpus and reports any program unit source
codegen had to fall back to the tree-walker on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

SCHEMA = 1

#: example programs that deliberately do not translate (analyzer demos)
NON_RUNNABLE_EXAMPLES = {"racy_stencil.frc"}

#: the Jacobi relaxation kernel — plain Fortran, interpreter-only
JACOBI_KERNEL = """\
      PROGRAM JACOBI
      REAL U(66), V(66)
      INTEGER I, IT, N
      N = 66
      DO 5 I = 1, N
      U(I) = 0.0
5     CONTINUE
      U(1) = 100.0
      U(N) = 100.0
      DO 50 IT = 1, {sweeps}
      DO 10 I = 2, N - 1
      V(I) = 0.25 * U(I-1) + 0.5 * U(I) + 0.25 * U(I+1)
10    CONTINUE
      DO 20 I = 2, N - 1
      U(I) = V(I)
20    CONTINUE
50    CONTINUE
      WRITE(*,*) NINT(1000.0 * U(3))
      END
"""


def git_revision(root: Path | None = None) -> str | None:
    """The current short git revision, or None (with a warning).

    ``root`` defaults to the checkout this package lives in — running
    ``force bench`` from an unrelated directory must not stamp that
    directory's revision into BENCH_results.json.  When ``git
    rev-parse`` is unavailable or fails (tarball install, missing git,
    corrupt checkout), the result degrades to ``git_revision: null``
    with a warning instead of crashing.
    """
    if root is None:
        root = Path(__file__).resolve().parents[2]
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"warning: cannot stamp git revision ({exc}); "
              "recording git_revision: null", file=sys.stderr)
        return None
    if proc.returncode != 0:
        detail = proc.stderr.strip() or f"git exited {proc.returncode}"
        print(f"warning: cannot stamp git revision ({detail}); "
              "recording git_revision: null", file=sys.stderr)
        return None
    return proc.stdout.strip() or None


def make_entry(name: str, *, params: dict[str, Any] | None = None,
               wall_s: float | None = None, data: Any = None,
               revision: str | None = None) -> dict[str, Any]:
    """One machine-readable benchmark result (the shared schema)."""
    return {
        "name": name,
        "params": params or {},
        "wall_s": wall_s,
        "data": data,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_revision": revision if revision is not None else git_revision(),
    }


def merge_results(path: Path, entries: list[dict[str, Any]]) -> None:
    """Merge entries into the results file by name, newest wins.

    A corrupt or missing history never blocks fresh results — the perf
    record accumulates best-effort.
    """
    merged: dict[str, dict[str, Any]] = {}
    if path.exists():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
            for entry in previous.get("results", []):
                if isinstance(entry, dict) and "name" in entry:
                    merged[entry["name"]] = entry
        except (json.JSONDecodeError, OSError):
            pass
    for entry in entries:
        merged[entry["name"]] = entry
    document = {
        "schema": SCHEMA,
        "results": [merged[name] for name in sorted(merged)],
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# -- the pinned suite --------------------------------------------------

def _count_events(gen) -> tuple[int, int]:
    """Drive an interpreter generator to completion; return the
    (statements, cycles) totals of its cost events.  Every tier must
    agree on both even though the codegen tier batches straight-line
    runs and vectorized kernels into aggregate events."""
    from repro.fortran.interp import Cost, StopSignal
    statements = 0
    cycles = 0
    try:
        for event in gen:
            if isinstance(event, Cost):
                statements += event.statements * event.repeat
                cycles += event.cycles * event.repeat
    except StopSignal:
        pass
    return statements, cycles


def _jacobi_facts() -> dict[str, Any]:
    """A minimal facts document proving both inner Jacobi sweeps
    race-free, so the codegen tier may vectorize them.  Hand-written
    (not ``force check`` output) because the benchmark kernel is the
    already-expanded Fortran, and correct by inspection: disjoint
    element writes, and the benchmark runs single-process anyway."""
    return {"version": 1, "generator": "force bench", "files": [{
        "doalls": [
            {"routine": "JACOBI", "label": 10, "race_free": True},
            {"routine": "JACOBI", "label": 20, "race_free": True},
        ],
    }]}


def _run_kernel(source: str, tier: str,
                facts: dict[str, Any] | None = None) -> dict[str, Any]:
    """Warm steady-state measurement of one execution tier.

    The first (untimed) run pays one-time costs — source generation
    and ``compile()`` — so the timed second run measures what a long
    simulation's hot loop actually sees.  The cold wall time is
    recorded separately for transparency.
    """
    from repro.fortran.interp import Interpreter
    from repro.fortran.parser import parse_source
    program = parse_source(source)
    lines: list[str] = []
    interp = Interpreter(program, codegen=tier, facts=facts,
                         on_output=lambda text, frame: lines.append(text))
    unit = program.unit("JACOBI")
    start = time.perf_counter()
    _count_events(interp.run_unit(unit, []))
    cold_s = time.perf_counter() - start
    lines.clear()
    start = time.perf_counter()
    statements, cycles = _count_events(interp.run_unit(unit, []))
    elapsed = time.perf_counter() - start
    return {
        "statements": statements,
        "cycles": cycles,
        "seconds": elapsed,
        "cold_seconds": cold_s,
        "output": "\n".join(lines),
        "kernelized": dict(interp.codegen_kernelized),
        "fallbacks": dict(interp.compile_fallbacks),
    }


def _assert_tiers_agree(runs: dict[str, dict[str, Any]]) -> None:
    """Every tier must be bit-identical on output and cost totals."""
    baseline = runs["interp"]
    for tier, run in runs.items():
        if (run["statements"], run["cycles"], run["output"]) != \
                (baseline["statements"], baseline["cycles"],
                 baseline["output"]):
            raise AssertionError(
                f"{tier} tier diverged from the tree-walker on the "
                f"Jacobi kernel: {run['statements']}/{run['cycles']}/"
                f"{run['output']!r} vs {baseline['statements']}/"
                f"{baseline['cycles']}/{baseline['output']!r}")


def bench_codegen_throughput(quick: bool) -> dict[str, Any]:
    """Micro-kernel: Jacobi statement throughput, interp vs source.

    A micro-kernel figure, not the system's speed (``bench/`` measures
    end to end).  The facts document proves the two inner sweeps
    race-free, so the generated code lowers them to numpy slice
    kernels.  Both tiers must agree on output and cost totals.  The
    entry also runs the example corpus on the default tier and records
    every unit that fell back to the tree walker in
    ``corpus_fallbacks``; ``force bench`` exits 1 on any, and the CI
    perf-smoke gate fails when the kernel fell back or vectorized no
    DOALLs, so a codegen regression cannot land silently.
    """
    sweeps = 80 if quick else 400
    source = JACOBI_KERNEL.format(sweeps=sweeps)
    runs = {"interp": _run_kernel(source, "interp"),
            "source": _run_kernel(source, "source",
                                  facts=_jacobi_facts())}
    _assert_tiers_agree(runs)
    base_s = runs["interp"]["seconds"]
    tiers = {}
    for tier, run in runs.items():
        tiers[tier] = {
            "stmt_per_s": round(run["statements"] / run["seconds"])
            if run["seconds"] else 0,
            "speedup_vs_interp": round(base_s / run["seconds"], 2)
            if run["seconds"] else float("inf"),
            "cold_s": round(run["cold_seconds"], 4),
        }
    kernelized = sum(len(labels)
                     for labels in runs["source"]["kernelized"].values())
    return {
        "params": {"sweeps": sweeps, "points": 66,
                   "corpus": "examples/*.frc"},
        "wall_s": runs["source"]["seconds"],
        "data": {
            "kind": "micro-kernel",
            "tiers": tiers,
            "statements": runs["source"]["statements"],
            "kernelized_doalls": kernelized,
            "codegen_fell_back": bool(runs["source"]["fallbacks"]),
            "fallbacks": runs["source"]["fallbacks"],
            "corpus_fallbacks": corpus_fallbacks(),
        },
    }


def bench_selfsched_dispatch(quick: bool) -> dict[str, Any]:
    """Native selfsched lock traffic per dispatch policy.

    ``chunks`` equals the number of index-lock acquisitions — the loop
    claims each chunk under exactly one lock round — so the chunked
    counts are deterministic: ``ceil(iters / chunk)``.
    """
    from repro.runtime import Force
    iters = 320 if quick else 1600
    nproc = 4
    results: dict[str, Any] = {}
    timings: dict[str, float] = {}
    for label, kwargs in (("self", {}),
                          ("chunked16", {"chunk": 16}),
                          ("guided", {"schedule": "guided"})):
        force = Force(nproc=nproc, timeout=60, stats=True)

        def program(force: Any, me: int, kwargs=kwargs) -> None:
            for _i in force.selfsched_range("bench", 1, iters, **kwargs):
                pass

        start = time.perf_counter()
        force.run(program)
        timings[label] = time.perf_counter() - start
        results[label] = force.stats["selfsched"]["bench"]
    expected16 = -(-iters // 16)
    if results["chunked16"]["chunks"] != expected16:
        raise AssertionError(
            f"chunked dispatch not deterministic: expected {expected16} "
            f"chunks for {iters} iters at chunk=16, got "
            f"{results['chunked16']['chunks']}")
    if results["self"]["chunks"] != iters:
        raise AssertionError(
            f"self dispatch expected {iters} chunks, got "
            f"{results['self']['chunks']}")
    lock_ratio = results["self"]["chunks"] / results["chunked16"]["chunks"]
    return {
        "params": {"iters": iters, "nproc": nproc, "chunk": 16},
        "wall_s": timings["chunked16"],
        "data": {
            "policies": results,
            "lock_acquisition_ratio_chunk16": round(lock_ratio, 2),
        },
    }


def bench_sum_critical_sim(quick: bool) -> dict[str, Any]:
    """Pipeline end-to-end: sum_critical.frc, self vs chunked."""
    from repro.machines import get_machine
    from repro.pipeline.compile import force_translate
    from repro.pipeline.run import force_run
    source = _example("sum_critical.frc")
    machine = get_machine("sequent-balance")
    nproc = 4
    data: dict[str, Any] = {}
    wall = 0.0
    for label, kwargs in (("self", {}), ("chunked16", {"chunk": 16})):
        translation = force_translate(source, machine, **kwargs)
        start = time.perf_counter()
        result = force_run(translation, nproc)
        wall = time.perf_counter() - start
        data[label] = {
            "makespan": result.makespan,
            "lock_acquisitions": result.stats.lock_acquisitions,
            "output": result.output,
        }
    if data["self"]["output"] != data["chunked16"]["output"]:
        raise AssertionError(
            "chunked sum_critical diverged: "
            f"{data['self']['output']} vs {data['chunked16']['output']}")
    return {
        "params": {"machine": machine.key, "nproc": nproc},
        "wall_s": wall,
        "data": data,
    }


def bench_askfor_tree(quick: bool) -> dict[str, Any]:
    """Native askfor workload: dynamic tree expansion wall-clock."""
    from repro.faults.corpus import CORPUS
    entry = CORPUS["askfor_tree"]
    repeats = 1 if quick else 3
    best = float("inf")
    stats: dict[str, Any] = {}
    from repro.runtime import Force
    for _ in range(repeats):
        force = Force(nproc=entry.nproc, timeout=60, stats=True)
        start = time.perf_counter()
        force.run(entry.program)
        best = min(best, time.perf_counter() - start)
        entry.check(force)
        stats = force.stats.get("askfor", {})
    return {
        "params": {"nproc": entry.nproc, "repeats": repeats},
        "wall_s": best,
        "data": {"askfor": stats},
    }


def _wall_jacobi(force: Any, me: int, n: int, sweeps: int) -> None:
    """Jacobi relaxation over shared arrays — the wall-clock kernel.

    Module-level (not a closure) so the process backend can pickle it.
    Row-sliced numpy updates keep the per-iteration Python overhead
    low enough for the split to be compute-bound.
    """
    u = force.shared_array("u", (n, n))
    new = force.shared_array("new", (n, n))
    if me == 1:
        u[0, :] = 100.0
        u[-1, :] = 100.0
    force.barrier()
    for _sweep in range(sweeps):
        for i in force.presched_range(me, 1, n - 2):
            new[i, 1:-1] = 0.25 * (u[i - 1, 1:-1] + u[i + 1, 1:-1]
                                   + u[i, :-2] + u[i, 2:])
        force.barrier()
        for i in force.presched_range(me, 1, n - 2):
            u[i, 1:-1] = new[i, 1:-1]
        force.barrier()


def bench_wall_speedup(quick: bool) -> dict[str, Any]:
    """True multi-core wall clock: Jacobi on the process backend.

    The one suite entry measured on real hardware rather than in the
    simulator — nproc=4 vs nproc=1 on ``backend="process"``.  The
    ratio is recorded honestly: on a single-CPU host it sits near (or
    below) 1.0 and the ``cpu_count`` field says why.
    """
    from repro.runtime import Force
    n = 96 if quick else 192
    sweeps = 20 if quick else 80
    walls: dict[int, float] = {}
    for nproc in (1, 4):
        force = Force(nproc, backend="process", timeout=300)
        start = time.perf_counter()
        force.run(_wall_jacobi, n, sweeps)
        walls[nproc] = time.perf_counter() - start
    # the ratio of the recorded (rounded) walls, so the entry is
    # self-consistent
    wall_1, wall_4 = round(walls[1], 4), round(walls[4], 4)
    speedup = (wall_1 / wall_4) if wall_4 else float("inf")
    return {
        "params": {"kernel": "jacobi", "n": n, "sweeps": sweeps,
                   "backend": "process", "cpu_count": os.cpu_count()},
        "wall_s": walls[4],
        "data": {
            "wall_1": wall_1,
            "wall_4": wall_4,
            "wall_speedup": round(speedup, 2),
        },
    }


def bench_analyzer_throughput(quick: bool) -> dict[str, Any]:
    """Static-analysis throughput and the facts-driven kernel gate.

    Runs the full engine (parse → barrier-phase partition →
    interprocedural summary → race/lock passes) over every example
    program, times repeated analyses of the largest one, and records
    how many corpus DOALLs the facts document proves race-free — the
    count source codegen's kernel-eligibility gate consumes.
    """
    from repro.analysis import analyze_source
    from repro.analysis.facts import build_facts, validate_facts

    corpus: list[tuple[str, Any, str]] = []
    for path in sorted(_examples_dir().rglob("*.frc")):
        source = path.read_text(encoding="utf-8")
        _, summary = analyze_source(source, path.name)
        if summary is not None:
            corpus.append((path.name, summary, source))
    largest_name, largest_summary, largest_source = max(
        corpus, key=lambda item: item[1].statement_count)
    repeats = 5 if quick else 25
    start = time.perf_counter()
    for _ in range(repeats):
        analyze_source(largest_source, largest_name)
    elapsed = time.perf_counter() - start
    statements = largest_summary.statement_count

    doc = build_facts([(name, summary) for name, summary, _ in corpus])
    problems = validate_facts(doc)
    if problems:
        raise AssertionError(
            f"facts document fails its own schema: {problems[0]}")
    doalls = [doall for entry in doc["files"]
              for doall in entry["doalls"]]
    eligible = sum(1 for doall in doalls if doall["race_free"])
    return {
        "params": {"corpus": "examples/**/*.frc",
                   "largest": largest_name, "repeats": repeats},
        "wall_s": elapsed,
        "data": {
            "files": len(corpus),
            "statements": statements,
            "statements_per_s":
                round(statements * repeats / elapsed) if elapsed else 0,
            "doalls": len(doalls),
            "kernel_eligible_doalls": eligible,
        },
    }


def _paired_overhead(bare: Callable[[], float],
                     instrumented: Callable[[], float],
                     rounds: int) -> dict[str, float]:
    """Overhead of ``instrumented`` vs ``bare`` from paired rounds.

    Each round times both back-to-back so host drift cancels; the
    minimum ratio is the robust estimate (noise only inflates a
    round's ratio, so the minimum converges onto the true overhead
    from above).
    """
    ratios = []
    for _ in range(rounds):
        base = bare()
        ratios.append(instrumented() / base if base else 1.0)
    ratios.sort()
    return {
        "min_ratio": round(ratios[0], 4),
        "median_ratio": round(ratios[len(ratios) // 2], 4),
    }


def bench_trace_overhead(quick: bool) -> dict[str, Any]:
    """Cost of observability: tracing and metrics vs bare runs.

    Two vantage points: statement-level (the simulated jacobi pipeline
    run, single-threaded and stable) and wall-clock (the native
    ``_wall_jacobi`` kernel on threads, noisier but end-to-end).  The
    recorded ratios are what the tier-1 overhead guard asserts on.
    """
    from repro.machines import get_machine
    from repro.pipeline.compile import force_translate
    from repro.pipeline.run import force_run
    from repro.runtime import Force
    machine = get_machine("sequent-balance")
    translation = force_translate(_example("jacobi.frc"), machine)
    rounds = 3 if quick else 6

    def sim_run(**kwargs: Any) -> Callable[[], float]:
        def timed() -> float:
            start = time.perf_counter()
            force_run(translation, 4, **kwargs)
            return time.perf_counter() - start
        return timed

    n, sweeps = (128, 8) if quick else (256, 16)

    def native_run(**kwargs: Any) -> Callable[[], float]:
        def timed() -> float:
            force = Force(2, timeout=120, **kwargs)
            start = time.perf_counter()
            force.run(_wall_jacobi, n, sweeps)
            return time.perf_counter() - start
        return timed

    sim_bare = sim_run()
    native_bare = native_run()
    sim_bare()          # warm caches before pairing
    native_bare()
    data = {
        "sim_trace": _paired_overhead(sim_bare, sim_run(trace=True),
                                      rounds),
        "native_metrics": _paired_overhead(
            native_bare, native_run(metrics=True), rounds),
        "native_trace": _paired_overhead(
            native_bare, native_run(trace=True), rounds),
    }
    wall = native_bare()
    return {
        "params": {"rounds": rounds, "n": n, "sweeps": sweeps,
                   "machine": machine.key},
        "wall_s": wall,
        "data": data,
    }


def bench_checkpoint_overhead(quick: bool) -> dict[str, Any]:
    """Cost of checkpointing: armed-but-idle vs every-barrier snapshots.

    Two paired ratios over the native jacobi kernel.  ``idle`` arms a
    policy at an interval the run never reaches — the cost of the hook
    plumbing alone, a strict upper bound on the checkpoint-off cost
    (a ``None`` policy skips even the episode count), and what the
    tier-1 guard bounds below 2%.  ``every_barrier`` snapshots at
    every consistent cut and is recorded honestly together with the
    footprint of one snapshot.
    """
    import shutil
    import tempfile
    from repro.runtime import Force
    from repro.runtime.checkpoint import (CheckpointPolicy,
                                          latest_checkpoint)
    n, sweeps = (96, 8) if quick else (192, 16)
    rounds = 3 if quick else 6
    ckdir = tempfile.mkdtemp(prefix="force-bench-ckpt-")
    snapshot = {"bytes": 0, "count": 0}

    def bare() -> float:
        force = Force(2, timeout=120)
        start = time.perf_counter()
        force.run(_wall_jacobi, n, sweeps)
        return time.perf_counter() - start

    def run_with(every_n: int) -> Callable[[], float]:
        def timed() -> float:
            shutil.rmtree(ckdir, ignore_errors=True)
            policy = CheckpointPolicy(every_n_barriers=every_n,
                                      dir=ckdir)
            force = Force(2, timeout=120, checkpoint=policy)
            start = time.perf_counter()
            force.run(_wall_jacobi, n, sweeps)
            elapsed = time.perf_counter() - start
            newest = latest_checkpoint(ckdir)
            if newest is not None:
                snapshot["bytes"] = os.path.getsize(newest)
                snapshot["count"] = len(os.listdir(ckdir))
            return elapsed
        return timed

    try:
        bare()          # warm caches before pairing
        data = {
            "idle": _paired_overhead(bare, run_with(10 ** 9), rounds),
            "every_barrier": _paired_overhead(bare, run_with(1),
                                              rounds),
            "snapshot_bytes": snapshot["bytes"],
            "snapshots_per_run": snapshot["count"],
        }
    finally:
        shutil.rmtree(ckdir, ignore_errors=True)
    wall = bare()
    return {
        "params": {"kernel": "jacobi", "n": n, "sweeps": sweeps,
                   "nproc": 2, "backend": "thread", "rounds": rounds},
        "wall_s": wall,
        "data": data,
    }


#: the stride-resonant load the tune-quality entry stresses: heavy
#: work on every NPROC-th index collapses cyclic prescheduling
_TUNE_TEMPLATE = """\
Force ABLA of NP ident ME
Private INTEGER I, J, W
Shared INTEGER SINK
End declarations
Barrier
      SINK = 0
End barrier
{open_loop}
      IF (MOD(I, 4) .EQ. 1) THEN
        W = 800
      ELSE
        W = 4
      END IF
      DO 5 J = 1, W
        SINK = SINK
5     CONTINUE
{close_loop}
Join
      END
"""


def bench_tune_quality(quick: bool) -> dict[str, Any]:
    """Does ``force tune`` pick the config the sweep ranks best?

    One traced selfscheduled observation run feeds the recommender;
    the candidate configs are then actually measured and the
    recommendation scored by *regret* — the measured makespan of the
    recommended config over the measured best (1.0 == perfect).
    """
    from repro.machines import get_machine
    from repro.obsv.tune import tune_from_events
    from repro.pipeline.run import force_compile_and_run
    machine = get_machine("sequent-balance")
    nproc = 4
    n_iter = 32 if quick else 64
    loops = {
        "cyclic": (f"Presched DO 100 I = 1, {n_iter}",
                   "100 End presched DO", {}),
        "blocked": (f"Blocksched DO 100 I = 1, {n_iter}",
                    "100 End blocksched DO", {}),
        "self": (f"Selfsched DO 100 I = 1, {n_iter}",
                 "100 End Selfsched DO", {}),
    }
    start = time.perf_counter()
    observed = force_compile_and_run(
        _TUNE_TEMPLATE.format(open_loop=loops["self"][0],
                              close_loop=loops["self"][1]),
        machine, nproc, trace=True)
    doc = tune_from_events(
        observed.trace_events(), nproc=nproc,
        candidates=(("cyclic", None), ("blocked", None),
                    ("self", None)))
    sched = doc["recommendations"]["sched"] or {}
    recommended = sched.get("policy")
    measured = {}
    for label, (open_loop, close_loop, policy) in loops.items():
        result = force_compile_and_run(
            _TUNE_TEMPLATE.format(open_loop=open_loop,
                                  close_loop=close_loop),
            machine, nproc, **policy)
        measured[label] = result.makespan
    elapsed = time.perf_counter() - start
    best = min(measured, key=measured.get)
    regret = (measured.get(recommended, float("inf"))
              / measured[best]) if measured[best] else float("inf")
    return {
        "params": {"machine": machine.key, "nproc": nproc,
                   "n_iter": n_iter, "load": "resonant"},
        "wall_s": elapsed,
        "data": {
            "recommended": recommended,
            "measured_best": best,
            "measured_makespans": measured,
            "agreement": recommended == best,
            "regret": round(regret, 4),
        },
    }


def corpus_fallbacks() -> dict[str, dict[str, str]]:
    """Translate + run every runnable example; report any program unit
    source codegen refused (empty dict == full coverage)."""
    from repro.machines import get_machine
    from repro.pipeline.compile import force_translate
    from repro.pipeline.run import force_run
    machine = get_machine("sequent-balance")
    fallbacks: dict[str, dict[str, str]] = {}
    for path in sorted(_examples_dir().glob("*.frc")):
        if path.name in NON_RUNNABLE_EXAMPLES:
            continue
        translation = force_translate(path.read_text(encoding="utf-8"),
                                      machine)
        result = force_run(translation, 4)
        if result.compile_fallbacks:
            fallbacks[path.name] = dict(result.compile_fallbacks)
    return fallbacks


def _examples_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "examples"


def _example(name: str) -> str:
    return (_examples_dir() / name).read_text(encoding="utf-8")


SUITE: tuple[tuple[str, Callable[[bool], dict[str, Any]]], ...] = (
    ("bench_codegen_throughput", bench_codegen_throughput),
    ("bench_selfsched_dispatch", bench_selfsched_dispatch),
    ("bench_sum_critical_sim", bench_sum_critical_sim),
    ("bench_askfor_tree", bench_askfor_tree),
    ("bench_wall_speedup", bench_wall_speedup),
    ("bench_analyzer_throughput", bench_analyzer_throughput),
    ("bench_trace_overhead", bench_trace_overhead),
    ("bench_checkpoint_overhead", bench_checkpoint_overhead),
    ("bench_tune_quality", bench_tune_quality),
)


def run_bench_suite(*, quick: bool = False,
                    output: Path | None = None) -> dict[str, Any]:
    """Run the pinned suite, merge results, return the report."""
    revision = git_revision()
    entries: list[dict[str, Any]] = []
    for name, fn in SUITE:
        outcome = fn(quick)
        entries.append(make_entry(name, params=outcome["params"],
                                  wall_s=outcome["wall_s"],
                                  data=outcome["data"],
                                  revision=revision))
    fallbacks = next(entry["data"]["corpus_fallbacks"]
                     for entry in entries
                     if entry["name"] == "bench_codegen_throughput")
    if output is None:
        output = Path.cwd() / "BENCH_results.json"
    merge_results(output, entries)
    return {
        "quick": quick,
        "git_revision": revision,
        "output": str(output),
        "results": entries,
        "fallbacks": fallbacks,
    }


def render_bench_report(report: dict[str, Any]) -> str:
    """Human-readable summary of one suite run."""
    lines = [f"force bench ({'quick' if report['quick'] else 'full'}, "
             f"rev {report['git_revision'] or 'unknown'}) "
             f"-> {report['output']}"]
    by_name = {entry["name"]: entry for entry in report["results"]}
    cg = by_name["bench_codegen_throughput"]["data"]
    tiers = cg["tiers"]
    corpus = cg["corpus_fallbacks"]
    lines.append(
        "codegen micro-kernel: jacobi "
        f"interp {tiers['interp']['stmt_per_s']} stmt/s, "
        f"source {tiers['source']['stmt_per_s']} "
        f"({tiers['source']['speedup_vs_interp']:.1f}x), "
        f"{cg['kernelized_doalls']} DOALL(s) vectorized"
        + (" [FELL BACK]" if cg["codegen_fell_back"] else "")
        + "; corpus "
        + ("FALLBACKS " + json.dumps(corpus) if corpus
           else "ran with no tree-walker fallbacks"))
    sched = by_name["bench_selfsched_dispatch"]["data"]
    pol = sched["policies"]
    lines.append(
        f"selfsched dispatch:  self {pol['self']['chunks']} lock rounds, "
        f"chunk=16 {pol['chunked16']['chunks']}, "
        f"guided {pol['guided']['chunks']} "
        f"({sched['lock_acquisition_ratio_chunk16']:.1f}x fewer at "
        f"chunk=16)")
    sim = by_name["bench_sum_critical_sim"]["data"]
    lines.append(
        f"sum_critical (sim):  {sim['self']['lock_acquisitions']} lock "
        f"acq self, {sim['chunked16']['lock_acquisitions']} chunked, "
        f"makespan {sim['self']['makespan']} vs "
        f"{sim['chunked16']['makespan']} cycles")
    ask = by_name["bench_askfor_tree"]
    lines.append(
        f"askfor tree:         {ask['wall_s'] * 1e3:.1f} ms "
        f"(nproc {ask['params']['nproc']})")
    wall = by_name["bench_wall_speedup"]
    lines.append(
        f"wall_speedup:        {wall['data']['wall_speedup']:.2f}x "
        f"(process backend, nproc 4 vs 1, jacobi "
        f"n={wall['params']['n']}, {wall['params']['cpu_count']} "
        "CPU(s))")
    ana = by_name["bench_analyzer_throughput"]["data"]
    lines.append(
        f"analyzer:            {ana['statements_per_s']} stmt/s on the "
        f"largest program; {ana['kernel_eligible_doalls']}/"
        f"{ana['doalls']} corpus DOALLs proven race-free")
    over = by_name["bench_trace_overhead"]["data"]
    lines.append(
        "trace overhead:      sim trace "
        f"{over['sim_trace']['min_ratio']:.2f}x, native metrics "
        f"{over['native_metrics']['min_ratio']:.2f}x, native trace "
        f"{over['native_trace']['min_ratio']:.2f}x (min paired ratio)")
    ckpt = by_name["bench_checkpoint_overhead"]["data"]
    lines.append(
        "checkpoint overhead: idle "
        f"{ckpt['idle']['min_ratio']:.2f}x, every-barrier "
        f"{ckpt['every_barrier']['min_ratio']:.2f}x "
        f"({ckpt['snapshot_bytes']} B/snapshot, "
        f"{ckpt['snapshots_per_run']} per run)")
    tune = by_name["bench_tune_quality"]["data"]
    lines.append(
        f"tune quality:        recommended {tune['recommended']}, "
        f"measured best {tune['measured_best']} "
        f"({'agree' if tune['agreement'] else 'DISAGREE'}, regret "
        f"{tune['regret']:.2f}x)")
    return "\n".join(lines)
