"""Machine-readable analysis facts (``force check --facts FILE``, and
computed in-process by ``force run`` through :func:`source_facts`).

The race engine's verdicts are useful beyond diagnostics: the
compiled layer can only lower a DOALL body to an array kernel when
something has *proven* it race-free (ROADMAP item 2), and the planned
differential fuzzer needs analysis verdicts as its oracle (item 4).
This module distils a :class:`~repro.analysis.summaries.ProgramSummary`
into a JSON document the rest of the system can trust:

* per-DOALL ``race_free`` — no detected race touches an access inside
  that loop's body (matched by construct uid), and the front end
  parsed every statement of the file (a rejected statement's accesses
  are unknown, so it leaves nothing proven);
* per-variable ``privatizable`` — a shared scalar whose every phase of
  use *starts* with an unconditional replicated write, so the value
  never crosses a synchronization point or a process boundary and each
  process could keep a private copy (the standard fix for a racy
  temporary);
* per-critical-name contention — every acquisition site and every
  shared variable accessed under the lock, the input for lock-split
  or adaptive-lock decisions;
* the confirmed races themselves, as two-sided witness records.

:func:`validate_facts` is the schema check CI runs; keep it in sync
with :data:`FACTS_VERSION` and the builders below.
"""

from __future__ import annotations

import json

from repro.analysis.construct_parser import iter_constructs, parse_program
from repro.analysis.races import RaceReport, detect
from repro.analysis.summaries import ProgramSummary, summarize

FACTS_VERSION = 1


def build_file_facts(filename: str, summary: ProgramSummary,
                     reports: list[RaceReport] | None = None) -> dict:
    """Facts for one checked file."""
    if reports is None:
        reports = detect(summary)
    racy_uids = {uid for report in reports for uid in report.frame_uids}
    racy_keys = {report.key for report in reports}
    proven = not summary.program.rejected

    routines = []
    doalls = []
    for routine in summary.program.routines:
        name = routine.name.upper()
        rp = summary.phases.get(name)
        routines.append({
            "name": name,
            "kind": routine.kind,
            "phases": rp.phase_count if rp else 1,
            "statements": rp.statement_count if rp else 0,
        })
        for construct in iter_constructs(routine):
            if construct.kind != "doall":
                continue
            doalls.append({
                "uid": construct.uid,
                "routine": name,
                "label": construct.label,
                "line": construct.line,
                "macro": construct.macro,
                "indices": [v.upper() for v in construct.index_vars],
                "race_free": proven and construct.uid not in racy_uids,
            })

    return {
        "file": filename,
        "statements": summary.statement_count,
        "routines": routines,
        "doalls": doalls,
        "privatizable": _privatizable(summary),
        "criticals": _criticals(summary),
        "races": [_race_record(report) for report in reports],
        "notes": list(summary.notes),
        "racy_variables": sorted(racy_keys),
    }


def build_facts(per_file: list[tuple[str, ProgramSummary]]) -> dict:
    """The whole ``--facts`` document for one ``force check`` run.

    The document is stamped with the checkout's git revision so
    consumers (``force run --facts``) can refuse stale verdicts —
    race-freedom proven against different source must not gate kernel
    lowering.  ``git_revision`` is ``None`` outside a git checkout.
    """
    from repro._util.gitrev import git_revision
    return {
        "version": FACTS_VERSION,
        "generator": "force check",
        "git_revision": git_revision(warn=False),
        "files": [build_file_facts(filename, summary)
                  for filename, summary in per_file],
    }


def source_facts(source: str, filename: str = "<source>") -> dict:
    """The facts document for one Force source, built in-process.

    This is what ``force run`` gates kernels with when no ``--facts``
    file is given: race verdicts only, without the diagnostic checkers
    and without a git stamp (the verdicts are computed from the very
    source being run, so they cannot be stale).  A source with no
    Force routine yields ``{}``, which proves nothing.
    """
    program = parse_program(source, filename)
    if not program.routines:
        return {}
    return {
        "version": FACTS_VERSION,
        "generator": "force run",
        "files": [build_file_facts(filename, summarize(program))],
    }


def write_facts(path: str,
                per_file: list[tuple[str, ProgramSummary]]) -> dict:
    doc = build_facts(per_file)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return doc


def load_facts(path: str) -> dict:
    """Load and validate a facts document; raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    problems = validate_facts(doc)
    if problems:
        raise ValueError(
            f"{path} is not a valid facts document: {problems[0]}")
    return doc


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _privatizable(summary: ProgramSummary) -> list[str]:
    by_key: dict[str, list] = {}
    subscripted: set[str] = set()
    for access in summary.accesses:
        by_key.setdefault(access.key, []).append(access)
        if access.subscript is not None:
            subscripted.add(access.key)
    out = []
    for key, accesses in by_key.items():
        if key in subscripted:
            continue
        if not any(a.is_write for a in accesses):
            continue
        phases: dict[tuple[str, int], list] = {}
        for access in accesses:      # expansion (document) order
            phases.setdefault((access.root, access.phase), []).append(access)
        if all(_phase_starts_with_private_write(group)
               for group in phases.values()):
            out.append(key)
    return sorted(out)


def _phase_starts_with_private_write(group: list) -> bool:
    first = group[0]
    return (first.is_write and not first.conditional
            and first.guard is None and not first.single_process)


def _criticals(summary: ProgramSummary) -> list[dict]:
    sites: dict[str, list[dict]] = {}
    protects: dict[str, set[str]] = {}
    for acq in summary.locks:
        sites.setdefault(acq.lock, []).append({
            "routine": acq.routine,
            "line": acq.line,
            "phase": acq.phase,
            "root": acq.root,
        })
    for access in summary.accesses:
        for lock in access.locks:
            protects.setdefault(lock, set()).add(access.key)
    out = []
    for lock in sorted(set(sites) | set(protects)):
        unique = []
        seen = set()
        for site in sites.get(lock, []):
            fingerprint = (site["routine"], site["line"])
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            unique.append(site)
        out.append({
            "name": lock,
            "sites": unique,
            "protects": sorted(protects.get(lock, ())),
        })
    return out


def _race_record(report: RaceReport) -> dict:
    return {
        "variable": report.key,
        "kind": report.kind,
        "first": _side(report.first),
        "second": _side(report.second),
    }


def _side(access) -> dict:
    return {
        "routine": access.routine,
        "line": access.line,
        "access": "write" if access.is_write else "read",
        "phase": access.phase,
        "locks": list(access.locks),
        "region": access.region,
        "chain": list(access.chain),
    }


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def validate_facts(doc) -> list[str]:
    """Structural schema check; returns a list of problems (empty=ok)."""
    problems: list[str] = []

    def expect(cond: bool, what: str) -> bool:
        if not cond:
            problems.append(what)
        return cond

    if not expect(isinstance(doc, dict), "document is not an object"):
        return problems
    expect(doc.get("version") == FACTS_VERSION,
           f"version != {FACTS_VERSION}")
    if not expect(isinstance(doc.get("files"), list), "files is not a list"):
        return problems
    for i, entry in enumerate(doc["files"]):
        where = f"files[{i}]"
        if not expect(isinstance(entry, dict), f"{where} not an object"):
            continue
        expect(isinstance(entry.get("file"), str), f"{where}.file")
        expect(isinstance(entry.get("statements"), int),
               f"{where}.statements")
        for field, item_fields in (
                ("routines", ("name", "kind", "phases", "statements")),
                ("doalls", ("uid", "routine", "label", "line", "macro",
                            "indices", "race_free")),
                ("criticals", ("name", "sites", "protects")),
                ("races", ("variable", "kind", "first", "second"))):
            items = entry.get(field)
            if not expect(isinstance(items, list), f"{where}.{field}"):
                continue
            for j, item in enumerate(items):
                if not expect(isinstance(item, dict),
                              f"{where}.{field}[{j}]"):
                    continue
                for name in item_fields:
                    expect(name in item, f"{where}.{field}[{j}].{name}")
        for field in ("privatizable", "notes", "racy_variables"):
            expect(isinstance(entry.get(field), list), f"{where}.{field}")
        for doall in entry.get("doalls", []):
            if isinstance(doall, dict):
                expect(isinstance(doall.get("race_free"), bool),
                       "doalls[].race_free not a bool")
        for race in entry.get("races", []):
            if not isinstance(race, dict):
                continue
            for side in ("first", "second"):
                witness = race.get(side)
                if not expect(isinstance(witness, dict),
                              f"races[].{side}"):
                    continue
                for name in ("routine", "line", "access", "phase",
                             "locks", "region", "chain"):
                    expect(name in witness, f"races[].{side}.{name}")
    return problems


def race_free_doalls(doc: dict) -> dict[str, list[dict]]:
    """Map routine name -> its proven race-free DOALL records."""
    out: dict[str, list[dict]] = {}
    for entry in doc.get("files", []):
        for doall in entry.get("doalls", []):
            if doall.get("race_free"):
                out.setdefault(doall["routine"], []).append(doall)
    return out
