"""Pinned analysis facts for the whole program corpus.

``goldens/corpus_facts.json`` holds the per-file facts record that
:func:`repro.analysis.facts.source_facts` builds for every
``examples/**/*.frc`` and every :mod:`repro.core.programs` sample at its
default sizes: DOALL race verdicts, privatizable scalars, Critical
contention, race witnesses and statement counts.  A front-end or
analysis change that moves any verdict fails here with the file named.

The document has the shape ``force check --facts`` writes, with the
git stamp set to ``null``; the examples' entries are exactly what
``force check --facts`` emits for the same relative paths, which the
CI ``static-check`` job diffs.  Regenerate only for an intended
verdict change::

    PYTHONPATH=src python tests/analysis/test_corpus_facts.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.facts import FACTS_VERSION, source_facts, validate_facts
from repro.core import programs

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "goldens" / "corpus_facts.json"


def _corpus() -> dict[str, str]:
    """file label -> Force source, examples first, then samples."""
    corpus = {}
    for path in sorted((REPO / "examples").rglob("*.frc")):
        corpus[path.relative_to(REPO).as_posix()] = path.read_text(
            encoding="utf-8")
    for name in programs.sample_names():
        corpus[f"sample:{name}"] = programs.render(name)
    return corpus


CORPUS = _corpus()


def corpus_facts() -> dict:
    files = []
    for label, source in CORPUS.items():
        files.extend(source_facts(source, label)["files"])
    return {"version": FACTS_VERSION, "generator": "force check",
            "git_revision": None, "files": files}


def _golden_files() -> dict[str, dict]:
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {entry["file"]: entry for entry in doc["files"]}


def test_golden_is_a_valid_facts_document():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert validate_facts(doc) == []
    assert [entry["file"] for entry in doc["files"]] == list(CORPUS)


@pytest.mark.parametrize("label", list(CORPUS))
def test_facts_match_golden(label):
    (entry,) = source_facts(CORPUS[label], label)["files"]
    assert entry == _golden_files()[label]


if __name__ == "__main__":
    doc = corpus_facts()
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote facts for {len(doc['files'])} files to {GOLDEN}")
