"""Byte-identity golden for Force -> Fortran translation.

Pins the sha256 of ``force_translate(...).fortran`` for every sample
program on every machine under every selfsched dispatch policy, plus the
shipped ``examples/*.frc`` on the Sequent Balance.  A front-end change
(sed stage, m4 engine, macro library, snapshot cache) that alters a
single byte of generated Fortran fails here with the case named.  Each
case is translated twice, on an empty expansion table and then from the
entry the first translation left, so a stale or mis-keyed entry fails
here too.

Regenerate only when a translation change is intended::

    PYTHONPATH=src python tests/pipeline/test_translation_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.pipeline.compile as pipeline_compile
from repro.core import MACHINES, SEQUENT_BALANCE, programs
from repro.m4 import MacroError
from repro.pipeline import force_translate

GOLDEN = Path(__file__).with_name("translation_hashes.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: (label, sched, chunk) — the dispatch policies the benchmark exercises.
POLICIES = (("self", None, None), ("chunked4", "chunked", 4),
            ("guided", "guided", None))


def _cases() -> dict[str, tuple]:
    """case name -> (Force source, machine, sched, chunk)."""
    cases: dict[str, tuple] = {}
    for sample in programs.sample_names():
        source = programs.render(sample)
        for key, machine in MACHINES.items():
            for label, sched, chunk in POLICIES:
                cases[f"{sample}/{key}/{label}"] = (
                    source, machine, sched, chunk)
    for path in sorted(EXAMPLES.glob("*.frc")):
        cases[f"examples/{path.name}/{SEQUENT_BALANCE.key}/self"] = (
            path.read_text(), SEQUENT_BALANCE, None, None)
    return cases


def _digest(source, machine, sched, chunk) -> str:
    """sha256 of the Fortran, or the error a rejected program raises.

    ``racy_stencil.frc`` has an unbalanced m4 open quote in a comment
    line and does not translate; its error message is pinned instead.
    """
    try:
        fortran = force_translate(source, machine, sched=sched,
                                  chunk=chunk).fortran
    except MacroError as exc:
        return f"MacroError: {exc}"
    return hashlib.sha256(fortran.encode()).hexdigest()


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_translation_is_byte_identical(golden, case, monkeypatch):
    monkeypatch.setattr(pipeline_compile, "_EXPANSIONS", {})
    assert _digest(*CASES[case]) == golden[case]   # cold
    assert _digest(*CASES[case]) == golden[case]   # warm


if __name__ == "__main__":
    hashes = {case: _digest(*args) for case, args in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
