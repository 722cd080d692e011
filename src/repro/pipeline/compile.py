"""Force → Fortran translation (sed stage + two-level m4 expansion)."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from repro._util.errors import ForceError
from repro.machines.model import MachineModel
from repro.macros import (
    build_processor,
    machdep_definitions,
    machindep_definitions,
)
from repro.sedstage import translate_force_source

_DRIVER_BEGIN = "C$FORCE BEGIN DRIVER"
_DRIVER_END = "C$FORCE END DRIVER"
_DIRECTIVE = re.compile(r"^C\$FORCE\s+SHARED\s+(\w+)\s*$", re.MULTILINE)


@dataclass
class TranslationResult:
    """Everything the compile step produces for one (program, machine)."""

    machine: MachineModel
    force_source: str          #: the original Force program
    sed_output: str            #: after the stream-editor stage
    fortran: str               #: final Fortran (driver relocated to top)
    shared_directives: list[str] = field(default_factory=list)

    @property
    def has_startup_unit(self) -> bool:
        return "SUBROUTINE ZZSTRT" in self.fortran


SCHEDULES = ("self", "chunked", "guided")


def scheduling_definitions(sched: str | None,
                           chunk: int | None) -> str | None:
    """Extra m4 defines selecting the selfsched dispatch policy.

    Mirrors the native runtime's normalisation: a bare ``chunk > 1``
    implies ``chunked``; ``self`` with ``chunk > 1`` is contradictory.
    Returns ``None`` when both are at their defaults, so the expansion
    stays byte-identical to the paper's §4.2 listing.
    """
    if chunk is not None and chunk < 1:
        raise ForceError("selfsched chunk must be >= 1")
    if sched is None and chunk is not None and chunk > 1:
        sched = "chunked"
    if sched is not None and sched not in SCHEDULES:
        raise ForceError(
            f"unknown selfsched schedule {sched!r}: "
            f"expected one of {', '.join(SCHEDULES)}")
    if sched == "self" and chunk is not None and chunk > 1:
        raise ForceError(
            "schedule 'self' hands out one iteration at a time; "
            "use --sched chunked with --chunk > 1")
    lines = []
    if sched is not None and sched != "self":
        lines.append(f"define(`ZZSCHED', `{sched}')dnl")
    if chunk is not None and chunk != 1:
        lines.append(f"define(`ZZCHUNK', `{chunk}')dnl")
    return "\n".join(lines) + "\n" if lines else None


def force_translate(source: str, machine: MachineModel,
                    sched: str | None = None,
                    chunk: int | None = None) -> TranslationResult:
    """Run the full preprocessing pipeline for one machine.

    Returns the translated Fortran with the machine-dependent driver
    module moved to the beginning of the code (§4.3), plus the list of
    compile-time shared-memory directives found (empty on link-/run-
    time binding machines).  ``sched``/``chunk`` select the
    selfscheduled-DOALL dispatch policy (see ``ZZSCHED`` in the
    machine-independent library); the defaults reproduce the paper's
    one-index-per-lock expansion exactly.

    The expansion is computed once per process for each distinct
    program text and definition set; every call still returns a fresh
    result carrying the caller's ``machine``.
    """
    extra = scheduling_definitions(sched, chunk)
    key = _expansion_key(source, machdep_definitions(machine),
                         machindep_definitions(), extra)
    expansion = _EXPANSIONS.get(key)
    if expansion is None:
        sed_output = translate_force_source(source)
        m4 = build_processor(machine, extra)
        expanded = m4.process(sed_output + "\nforce_finalize()\n")
        fortran = _relocate_driver(expanded)
        expansion = (sed_output, fortran,
                     tuple(_DIRECTIVE.findall(fortran)))
        if len(_EXPANSIONS) < _MAX_EXPANSIONS:
            _EXPANSIONS[key] = expansion
    sed_output, fortran, directives = expansion
    return TranslationResult(
        machine=machine,
        force_source=source,
        sed_output=sed_output,
        fortran=fortran,
        shared_directives=list(directives),
    )


#: digest of every expansion input -> (sed output, Fortran, shared
#: directives).  The expansion is a pure function of the program text
#: and the three definition texts, so an entry never goes stale, and
#: keying on a digest rather than the text keeps the sources unpinned.
#: Filled without a lock: a racing fill computes the same value twice.
#: A translation that raises stores nothing.
_EXPANSIONS: dict[bytes, tuple[str, str, tuple[str, ...]]] = {}
#: Past this many entries new expansions are computed but not kept.
_MAX_EXPANSIONS = 512


def _expansion_key(*texts: str | None) -> bytes:
    """sha256 of the texts, each length-prefixed so that no two
    different tuples of texts feed the hash the same bytes."""
    digest = hashlib.sha256()
    for text in texts:
        data = (text or "").encode()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.digest()


def _relocate_driver(expanded: str) -> str:
    """Move the generated driver block to the top of the file."""
    begin = expanded.find(_DRIVER_BEGIN)
    end = expanded.find(_DRIVER_END)
    if begin < 0 or end < 0:
        raise ForceError("macro expansion produced no driver block "
                         "(is this a Force program?)")
    end += len(_DRIVER_END)
    driver = expanded[begin:end]
    rest = expanded[:begin] + expanded[end:]
    return driver + "\n" + rest
