"""Layering the two macro levels onto an m4 engine.

``build_processor(machine)`` loads the machine-dependent definitions
for one machine, then the machine-independent library on top — exactly
the two-step replacement of §4.3 — and validates that the machdep set
provides the complete ``mi_*`` interface.

Both layers are the same on every translation for a given machine, so
the loaded and validated engine is built once per process and each
caller gets a clone of it (a read-mostly snapshot: shared, never
written after it is filled).
"""

from __future__ import annotations

import threading

from repro._util.errors import MacroError
from repro.m4 import M4Processor
from repro.machines.model import MachineModel
from repro.macros.machdep import MACHDEP_MODULES
from repro.macros.machindep import MACHINE_INDEPENDENT_DEFS

#: The complete machine-dependent macro interface.  A port of the Force
#: to a new machine must define exactly these (plus whatever helpers it
#: wants); ``build_processor`` enforces it.
MACHDEP_INTERFACE = (
    "mi_lock",
    "mi_unlock",
    "mi_init_lock",
    "mi_produce",
    "mi_consume",
    "mi_copy",
    "mi_void",
    "mi_async_extra",
    "mi_register_shared",
    "mi_driver_startup",
    "mi_emit_startup_unit",
    "mi_spawn_processes",
    "force_environment",
)


def machdep_definitions(machine: MachineModel) -> str:
    """The machine-dependent m4 definition file for ``machine``."""
    try:
        module = MACHDEP_MODULES[machine.key]
    except KeyError as exc:
        raise MacroError(
            f"no machine-dependent macro set for {machine.name}") from exc
    return module.DEFINITIONS


def machindep_definitions() -> str:
    """The machine-independent m4 definition file (same for all)."""
    return MACHINE_INDEPENDENT_DEFS


def build_processor(machine: MachineModel,
                    extra_definitions: str | None = None) -> M4Processor:
    """An m4 engine ready to expand a sed-translated Force program.

    ``extra_definitions`` is loaded *after* the machine-independent
    library, so it can override tunable defaults (``ZZSCHED`` /
    ``ZZCHUNK`` for the selfscheduled-DOALL dispatch policy) the same
    way a site-local m4 file would in the original toolchain.

    The returned engine is a private clone of a per-process snapshot,
    so expanding a program on it never affects the next caller.
    """
    return _library_state(machine, extra_definitions or None).clone()


#: (machine-dependent, machine-independent, extra) definition text ->
#: engine with every layer loaded.  Keyed by the text rather than
#: ``machine.key`` so a port whose definitions change (or a test that
#: swaps them) never hits a stale entry.  Entries are only ever cloned,
#: never handed out.
_LIBRARY_STATES: dict[tuple[str, str, str | None], M4Processor] = {}
_LIBRARY_LOCK = threading.Lock()
#: Bound on the table: extra definitions are open-ended (any chunk
#: size), so past this many entries new states are built but not kept.
_MAX_LIBRARY_STATES = 64


def _library_state(machine: MachineModel,
                   extra: str | None) -> M4Processor:
    key = (machdep_definitions(machine), machindep_definitions(), extra)
    state = _LIBRARY_STATES.get(key)
    if state is None:
        # A variant with extra defines layers them on the plain state.
        base = _library_state(machine, None) if extra else None
        # Double-checked fill: concurrent translations on a cold table
        # build each entry once and never see a half-loaded engine.
        with _LIBRARY_LOCK:
            state = _LIBRARY_STATES.get(key)
            if state is None:
                if base is None:
                    state = _load_library(machine, key[0], key[1])
                else:
                    state = base.clone()
                    state.load_definitions(extra)
                if len(_LIBRARY_STATES) < _MAX_LIBRARY_STATES:
                    _LIBRARY_STATES[key] = state
    return state


def _load_library(machine: MachineModel, machdep: str,
                  machindep: str) -> M4Processor:
    m4 = M4Processor()
    m4.load_definitions(machdep)
    missing = [name for name in MACHDEP_INTERFACE if not m4.is_defined(name)]
    if missing:
        raise MacroError(
            f"{machine.name} machine-dependent macros incomplete: "
            f"missing {', '.join(missing)}")
    m4.load_definitions(machindep)
    return m4
