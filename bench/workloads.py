"""Workload case spaces, seeded op plans, op execution and the golden file.

An op is what ``force run`` does for one program: one
``force_translate`` plus one ``force_run`` (simulated machines) or one
``native_run`` (thread/process backend on the python-host port), with
default flags.  A case fixes everything an op depends on; a workload is
a finite set of cases grouped into classes (:func:`case_classes`), and
a seed orders them into an op plan (:func:`iter_plan`).

The entry points are looked up on their modules at call time
(``pipeline_compile.force_translate`` rather than a bound import), so
the layer wrappers in :mod:`layers` see every call.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import repro.pipeline.compile as pipeline_compile
import repro.pipeline.native as pipeline_native
import repro.pipeline.run as pipeline_run
from repro.core.programs import render
from repro.machines.catalog import MACHINES

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: the paper's six machines; python-host is the native port
SIM_MACHINES = tuple(key for key in MACHINES if key != "python-host")
#: sample programs whose Selfsched DOALLs take a dispatch policy
SELFSCHED_SAMPLES = frozenset(
    {"sum_critical", "dot_product", "matrix_scale", "subroutine_call"})
#: (sched, chunk) pairs for ``force_translate``; (None, None) = default
POLICIES = ((None, None), ("chunked", 4), ("guided", None))
NATIVE_NPROC = 2
NATIVE_DEADLINE_S = 60.0

#: workload -> sample program -> parameter sets (one class each).  The
#: simulator workloads have an odd number of classes, each run once per
#: round, so the median op falls inside the middle class rather than in
#: the gap between two classes' latencies.
_SIZES: dict[str, dict[str, list[dict]]] = {
    "sim-small": {
        "sum_critical": [{"n": 25}, {"n": 50}, {"n": 100}],
        "jacobi": [{"n": 16}, {"n": 24}, {"n": 32}],
        "dot_product": [{"n": 20}, {"n": 40}, {"n": 80}],
        "pipeline": [{"items": 4}, {"items": 8}, {"items": 16}],
        "sections": [{}],
        "askfor_tree": [{"depth": 3}, {"depth": 4}, {"depth": 5}],
        "matrix_scale": [{"rows": 4, "cols": 5}, {"rows": 6, "cols": 8},
                         {"rows": 8, "cols": 10}],
        "lu_decomposition": [{"n": 6}, {"n": 8}, {"n": 10}],
        "subroutine_call": [{}],
    },
    "sim-compute": {
        "jacobi": [{"n": 256, "iters": 60}, {"n": 384, "iters": 60}],
        "lu_decomposition": [{"n": 24}, {"n": 28}, {"n": 32}],
        "matrix_scale": [{"rows": 32, "cols": 32},
                         {"rows": 40, "cols": 40}],
    },
    "sim-sync": {
        "sum_critical": [{"n": 3000}, {"n": 6000}],
        "askfor_tree": [{"depth": 10, "qsize": 4096},
                        {"depth": 11, "qsize": 4096}],
        "pipeline": [{"items": 1000}, {"items": 2000}],
        "dot_product": [{"n": 3000}, {"n": 4500}, {"n": 6000}],
    },
    "native": {
        "jacobi": [{"n": 384, "iters": 60}],
        "lu_decomposition": [{"n": 32}],
        "sum_critical": [{"n": 3000}],
        "askfor_tree": [{"depth": 10, "qsize": 4096}],
        "pipeline": [{"items": 1000}],
        "dot_product": [{"n": 3000}],
    },
}

WORKLOADS = tuple(_SIZES)


@dataclass(frozen=True)
class Case:
    """Everything one op depends on."""

    sample: str
    params: tuple[tuple[str, int], ...]
    machine: str
    nproc: int
    sched: str | None = None
    chunk: int | None = None
    backend: str | None = None      #: None = simulator, else native

    @property
    def key(self) -> str:
        """Unique name of the case, used as the golden-file key."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        policy = self.sched or "default"
        if self.chunk is not None:
            policy += f":{self.chunk}"
        target = self.backend or "sim"
        return (f"{target}:{self.sample}({params})"
                f"@{self.machine}/np{self.nproc}/{policy}")

    @property
    def golden_key(self) -> str:
        """Native results do not depend on the backend: thread and
        process ops of one program share the oracle entry."""
        if self.backend is None:
            return self.key
        return self.key.replace(f"{self.backend}:", "native:", 1)


def case_classes(workload: str) -> list[list[Case]]:
    """The workload's case space, one list per class.

    A simulator class is one (sample, size); a native class is one
    (sample, backend), because the two backends cost very different
    amounts and every round should hold the same mix of them."""
    classes: list[list[Case]] = []
    for sample, sizes in _SIZES[workload].items():
        for size in sizes:
            params = tuple(sorted(size.items()))
            if workload == "native":
                classes.extend(
                    [Case(sample, params, "python-host", NATIVE_NPROC,
                          backend=backend)]
                    for backend in pipeline_native.NATIVE_BACKENDS)
                continue
            # pipeline deadlocks at nproc 1 by design: its producer and
            # consumer are processes 1 and 2.
            low = 2 if sample == "pipeline" else 1
            nprocs = range(low, 5) if workload == "sim-small" else (2, 4)
            policies = POLICIES if workload == "sim-small" \
                and sample in SELFSCHED_SAMPLES else POLICIES[:1]
            classes.append([Case(sample, params, machine, nproc, sched, chunk)
                            for machine in SIM_MACHINES
                            for nproc in nprocs
                            for sched, chunk in policies])
    return classes


def all_cases(workload: str) -> list[Case]:
    return [case for cases in case_classes(workload) for case in cases]


def warmup_case(workload: str) -> Case:
    """The untimed op every workload process runs before timing.

    Fixed rather than seeded, so set-up time does not depend on which
    case a seed happens to draw first."""
    return case_classes(workload)[0][0]


def iter_plan(workload: str, seed: int) -> Iterator[list[Case]]:
    """The seeded op plan, one round at a time, without end.

    Each round runs every class once, in a seeded order; each class
    walks its own seeded permutation of its cases.  So every round has
    the same class mix (round times are comparable within a run), and a
    run covers each class's cases evenly (per-op averages are steady
    from seed to seed).
    """
    rng = random.Random(f"{workload}:{seed}")
    classes = [rng.sample(cases, len(cases))
               for cases in case_classes(workload)]
    for index in itertools.count():
        order = rng.sample(range(len(classes)), len(classes))
        yield [classes[c][index % len(classes[c])] for c in order]


def plan(workload: str, seed: int, ops: int) -> list[Case]:
    """The first ``ops`` cases of the seeded plan."""
    flat = itertools.chain.from_iterable(iter_plan(workload, seed))
    return list(itertools.islice(flat, ops))


def execute(case: Case, *, codegen: str | None = None,
            stats: bool = False):
    """Run one op; returns the ``RunResult`` or ``NativeRunResult``."""
    machine = MACHINES[case.machine]
    source = render(case.sample, **dict(case.params))
    translation = pipeline_compile.force_translate(
        source, machine, sched=case.sched, chunk=case.chunk)
    if case.backend is None:
        return pipeline_run.force_run(translation, case.nproc,
                                      codegen=codegen)
    return pipeline_native.native_run(
        translation, case.nproc, backend=case.backend,
        deadline=NATIVE_DEADLINE_S, codegen=codegen, stats=stats)


def observe(case: Case, result) -> dict:
    """The part of a result the golden file pins."""
    if case.backend is None:
        return {"output": list(result.output),
                "makespan": result.makespan,
                "locks": result.stats.lock_acquisitions}
    return {"output": sorted(result.output)}


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def oracle_cases() -> dict[str, Case]:
    """Every case of every workload, by golden key (native entries run
    on the thread backend)."""
    cases: dict[str, Case] = {}
    for workload in WORKLOADS:
        for case in all_cases(workload):
            if case.backend is not None:
                case = replace(case, backend="thread")
            cases.setdefault(case.golden_key, case)
    return cases


def write_golden() -> int:
    """Run every case on the tree-walking interpreter and store the
    results; returns the number of entries."""
    entries = {key: observe(case, execute(case, codegen="interp"))
               for key, case in sorted(oracle_cases().items())}
    document = {"oracle": "codegen=interp (tree walker); native entries "
                          "from the thread backend, output sorted",
                "cases": entries}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return len(entries)
