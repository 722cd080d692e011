"""Execute translated Force programs on the simulated machines."""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

from repro._util.errors import ForceError
from repro.fortran.interp import (
    ArgRef,
    ExternalCallHandler,
    Frame,
    Interpreter,
    StopSignal,
    drain,
    execution_tier,
)
from repro.fortran.parser import parse_source
from repro.machines.memory import MemoryLayout, SharedRegionPlan, VariableSpec
from repro.machines.model import MachineModel, SharingBinding
from repro.pipeline.compile import TranslationResult, force_translate
from repro.sim.events import HaltSim
from repro.sim.force_runtime import ForceRuntime, SharingRegistry
from repro.sim.scheduler import Scheduler, SimStats, trace_texts
from repro.sim.scheduler import trace_events as sim_trace_events


@dataclass
class RunResult:
    """Outcome of one simulated Force execution."""

    machine: MachineModel
    nproc: int
    stats: SimStats
    #: program output lines ordered by (simulated time, process id)
    output: list[str]
    #: raw (time, process-name, line) triples
    output_records: list[tuple[int, str, str]]
    translation: TranslationResult
    registry: SharingRegistry
    #: linker commands produced by the Sequent two-run protocol
    linker_commands: list[str] = field(default_factory=list)
    memory_plan: SharedRegionPlan | None = None
    #: the scheduler's flat trace of typed records (:attr:`trace` and
    #: :meth:`trace_events` group it)
    trace_fields: list = field(default_factory=list, repr=False)
    #: traced events past the scheduler's bound (it keeps the first)
    trace_dropped: int = 0
    #: program units source codegen refused and the tree walker ran
    #: (unit name → reason); empty when everything ran generated code
    compile_fallbacks: dict[str, str] = field(default_factory=dict)
    #: unit name → labels of DO loops the analysis facts proved
    #: race-free (kernel-lowering candidates)
    kernel_eligible: dict[str, list[int]] = field(default_factory=dict)
    #: unit name → labels of DOALLs the source-codegen tier actually
    #: lowered to numpy slice kernels (subset of ``kernel_eligible``)
    kernelized_doalls: dict[str, list[int]] = field(default_factory=dict)
    #: unit name → {label: reason} for the eligible loops left on the
    #: generic path: the kernel recognizer's verdict (e.g. "body not a
    #: run of assignments"), or for a lowered loop the runtime guard's
    #: first failed check ("runtime guard: ...")
    kernel_refused: dict[str, dict[int, str]] = \
        field(default_factory=dict)
    #: unit name → generated Python source (source tier only), for
    #: ``force run --dump-codegen``; read-only, inflated when read
    codegen_sources: Mapping[str, str] = field(default_factory=dict)

    @cached_property
    def trace(self) -> list[tuple[int, str, str]]:
        """(time, process, text) triples when run with ``trace=True``:
        the text view of the trace records.

        Built on first read: a traced run whose trace nobody reads
        allocates no per-event tuple.
        """
        return trace_texts(self.trace_fields)

    @property
    def makespan(self) -> int:
        return self.stats.makespan

    def stats_dict(self) -> dict:
        """The run's statistics in the shared report format.

        Same shape as :meth:`repro.runtime.force.Force.stats` so
        compiled (simulated) and native programs render through one
        :func:`repro.runtime.stats.render_stats` path.
        """
        return {"sim": sim_stats_dict(self.machine, self.nproc,
                                      self.stats)}

    def trace_events(self):
        """The run's trace in the unified event model.

        Each :class:`repro.trace.events.TraceEvent` comes straight from
        the scheduler's typed record (kind, name and operation fixed
        where the event happened, the timeline text as ``detail``), so
        simulated runs share the native runtime's exporters (Chrome
        trace JSON, JSONL, text) and the ``force trace`` summaries.
        """
        return sim_trace_events(self.trace_fields)


def sim_stats_dict(machine: MachineModel, nproc: int,
                   stats: SimStats) -> dict:
    """Flatten simulator statistics for the shared stats renderer."""
    return {
        "machine": machine.name,
        "processes": nproc,
        "makespan": stats.makespan,
        "utilization": stats.utilization,
        "lock_acquisitions": stats.lock_acquisitions,
        "contended_acquisitions": stats.contended_acquisitions,
        "spin_cycles": stats.spin_cycles,
        "context_switches": stats.context_switches,
    }


class _StartupCollector(ExternalCallHandler):
    """Run 1 of the Sequent protocol: execute only the startup routine,
    collecting FRCSHB registrations as linker commands."""

    def __init__(self) -> None:
        self.blocks: list[str] = []

    def is_external(self, name: str) -> bool:
        return name in ("FRCSHB", "FRCPAG")

    def call(self, name: str, args: list[ArgRef], frame: Frame):
        if name == "FRCSHB":
            self.blocks.append(str(args[0].get()).upper())
        yield from ()


#: sha256 of a Force source -> its in-process facts document.  The
#: analysis reads only the source, so one entry serves every machine
#: and dispatch policy.  Filled without a lock: a racing fill analyses
#: the same source twice.
_FACTS: dict[bytes, dict] = {}
#: Past this many entries new documents are built but not kept.
_MAX_FACTS = 512


def program_facts(force_source: str) -> dict:
    """Race verdicts for ``force_source``, computed once per process.

    A source the analysis rejects gets ``{}`` (prove nothing): kernels
    are an optimisation, so a run that works without them must not fail
    because of them.  Rejection is a :class:`ForceError` from the front
    end or a ``RuntimeError`` such as the ``RecursionError`` of a too
    deeply nested expression; any other exception is a bug in the
    analysis and propagates.
    """
    key = hashlib.sha256(force_source.encode()).digest()
    doc = _FACTS.get(key)
    if doc is None:
        try:
            from repro.analysis.facts import source_facts
            doc = source_facts(force_source)
        except (ForceError, RuntimeError):
            doc = {}
        if len(_FACTS) < _MAX_FACTS:
            _FACTS[key] = doc
    return doc


def force_run(translation: TranslationResult, nproc: int, *,
              max_events: int = 20_000_000,
              trace: bool = False,
              processors: int | None = None,
              unlimited_processors: bool = False,
              deadline: float | None = None,
              facts: dict | None = None,
              codegen: str | None = None) -> RunResult:
    """Simulate a translated Force program with ``nproc`` processes.

    By default the simulation honours the machine's processor count
    (run-to-block time-sharing beyond it).  ``processors`` overrides
    the capacity; ``unlimited_processors=True`` gives every process an
    ideal CPU (algorithm-measurement mode).  ``deadline`` bounds the
    run in wall-clock seconds — exceeding it raises
    :class:`~repro._util.errors.SimDeadlockError` instead of churning
    forever on a livelocked program.

    ``codegen`` picks the execution tier: ``"source"`` (generated
    Python, the default) or ``"interp"`` (the tree-walking
    interpreter, the differential oracle).  ``facts`` is an analysis
    facts document; the source tier uses it to mark statically
    race-free DOALLs as kernel candidates (reported in
    :attr:`RunResult.kernel_eligible`) and to lower them to numpy
    slice kernels (reported in :attr:`RunResult.kernelized_doalls`,
    refusals in :attr:`RunResult.kernel_refused`).  There
    ``facts=None`` means the facts of ``translation.force_source``,
    computed in-process (:func:`program_facts`); ``facts={}`` proves
    nothing.  Kernels replay the generic loop's cost events, so
    output, makespan and lock statistics equal the tree walker's.
    """
    machine = translation.machine
    if nproc <= 0:
        raise ForceError("nproc must be positive")
    if processors is None and not unlimited_processors:
        processors = machine.processors
    if facts is None and execution_tier(codegen) == "source":
        facts = program_facts(translation.force_source)
    program = parse_source(translation.fortran)
    registry = SharingRegistry()

    # Compile-time binding: directives carry the shared blocks.
    for block in translation.shared_directives:
        registry.register(block)

    # Link-time binding (Sequent): run the startup routine first, pipe
    # the "linker commands" into the registry, then run for real.
    linker_commands: list[str] = []
    if machine.sharing_binding is SharingBinding.LINK_TIME:
        collector = _StartupCollector()
        startup_interp = Interpreter(program, external=collector,
                                     codegen=codegen)
        if "ZZSTRT" in program.units:
            drain(startup_interp.run_unit(program.unit("ZZSTRT"), []))
        for block in collector.blocks:
            linker_commands.append(f"-Z SHARED={block}")
            registry.register(block)

    scheduler = Scheduler(machine, max_events=max_events, trace=trace,
                          processors=processors, deadline=deadline)
    runtime = ForceRuntime(scheduler, machine, nproc, program,
                           registry=registry)
    records: list[tuple[int, str, str]] = []

    def on_output(line: str, frame: Frame) -> None:
        process = frame.process
        when = process.clock if process is not None else 0
        who = process.name if process is not None else "driver"
        records.append((when, who, line))

    interp = Interpreter(program, external=runtime,
                         commons=runtime.provider, on_output=on_output,
                         facts=facts, codegen=codegen)
    runtime.interpreter = interp

    driver_holder: list = []

    def driver_body():
        try:
            yield from interp.run_unit(program.unit("FORCED"), [],
                                       process=driver_holder[0])
        except StopSignal as stop:
            yield HaltSim(stop.message)

    driver = scheduler.spawn(driver_body(), name="driver")
    driver_holder.append(driver)
    stats = scheduler.run()

    ordered = sorted(range(len(records)),
                     key=lambda i: (records[i][0], records[i][1], i))
    output = [records[i][2] for i in ordered]
    memory_plan = _build_memory_plan(runtime) \
        if runtime.page_plan_requested else None
    return RunResult(
        machine=machine,
        nproc=nproc,
        stats=stats,
        output=output,
        output_records=[records[i] for i in ordered],
        translation=translation,
        registry=registry,
        linker_commands=linker_commands,
        memory_plan=memory_plan,
        trace_fields=scheduler.trace_fields,
        trace_dropped=scheduler.trace_dropped,
        compile_fallbacks=interp.compile_fallbacks,
        kernel_eligible=interp.kernel_eligible,
        kernelized_doalls=interp.codegen_kernelized,
        kernel_refused=interp.codegen_kernel_refused,
        codegen_sources=interp.codegen_sources(),
    )


def force_compile_and_run(source: str, machine: MachineModel, nproc: int,
                          *, sched: str | None = None,
                          chunk: int | None = None, **kwargs) -> RunResult:
    """Convenience: translate then simulate in one call."""
    translation = force_translate(source, machine, sched=sched, chunk=chunk)
    return force_run(translation, nproc, **kwargs)


def _build_memory_plan(runtime: ForceRuntime) -> SharedRegionPlan | None:
    """Model the shared-page address arithmetic from observed layouts.

    The real Encore/Alliant implementations compute these addresses in
    the startup routine; we reconstruct the same layout from the COMMON
    blocks the run actually touched, then check the machine invariants.
    """
    provider = runtime.provider
    shared_specs: list[VariableSpec] = []
    private_specs: list[VariableSpec] = []
    for block, layout in sorted(provider.layouts.items()):
        target = shared_specs if runtime.registry.is_shared(block) \
            else private_specs
        for name, ftype, bounds in layout:
            elements = 1
            if bounds:
                for lo, hi in bounds:
                    elements *= hi - lo + 1
            target.append(VariableSpec(f"{block}.{name}",
                                       ftype.value, elements))
    if not shared_specs:
        return None
    plan = MemoryLayout(runtime.machine).plan(shared_specs, private_specs)
    plan.check()
    return plan
