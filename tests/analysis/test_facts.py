"""The ``--facts`` surface: schema, round-trip, the compiled layer's
kernel-eligibility gate, and the CLI flags that carry the document
from ``force check`` to ``force run``."""

import json
import pathlib

import pytest

from repro.analysis import analyze_source
from repro.analysis.facts import (
    FACTS_VERSION,
    build_facts,
    load_facts,
    race_free_doalls,
    validate_facts,
    write_facts,
)
from repro.pipeline.cli import main

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"


def _summaries(*names):
    out = []
    for name in names:
        path = EXAMPLES / name
        _, summary = analyze_source(path.read_text(encoding="utf-8"),
                                    str(path))
        out.append((str(path), summary))
    return out


class TestSchema:
    def test_corpus_document_validates(self):
        names = [p.relative_to(EXAMPLES).as_posix()
                 for p in sorted(EXAMPLES.rglob("*.frc"))]
        doc = build_facts(_summaries(*names))
        assert doc["version"] == FACTS_VERSION
        assert validate_facts(doc) == []
        assert len(doc["files"]) == len(names)

    def test_validator_rejects_broken_documents(self):
        assert validate_facts([]) != []
        assert validate_facts({"version": 99, "files": []}) != []
        assert validate_facts({"version": FACTS_VERSION,
                               "files": [{"file": 3}]}) != []

    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "facts.json"
        written = write_facts(str(path), _summaries("jacobi.frc"))
        loaded = load_facts(str(path))
        assert loaded == written

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 0}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_facts(str(path))


class TestVerdicts:
    def test_jacobi_doalls_are_race_free(self):
        doc = build_facts(_summaries("jacobi.frc"))
        doalls = doc["files"][0]["doalls"]
        assert len(doalls) == 2
        assert all(d["race_free"] for d in doalls)
        eligible = race_free_doalls(doc)
        assert sorted(d["label"] for d in eligible["JACOBI"]) \
            == ["10", "20"]

    def test_racy_stencil_doall_is_not(self):
        doc = build_facts(_summaries("racy_stencil.frc"))
        entry = doc["files"][0]
        (doall,) = entry["doalls"]
        assert doall["race_free"] is False
        assert race_free_doalls(doc) == {}
        assert entry["privatizable"] == ["SWEEPS"]
        assert any(r["kind"] == "read/write" for r in entry["races"])

    def test_critical_contention_sites(self):
        doc = build_facts(_summaries("sum_critical.frc"))
        (critical,) = doc["files"][0]["criticals"]
        assert critical["name"] == "LCK"
        assert critical["protects"] == ["TOTAL"]
        assert len(critical["sites"]) == 1


class TestKernelEligibilityGate:
    def test_force_run_marks_proven_loops(self):
        from repro.machines import get_machine
        from repro.pipeline.compile import force_translate
        from repro.pipeline.run import force_run
        source = (EXAMPLES / "jacobi.frc").read_text(encoding="utf-8")
        facts = build_facts(_summaries("jacobi.frc"))
        translation = force_translate(source,
                                      get_machine("sequent-balance"))
        gated = force_run(translation, 4, facts=facts)
        assert gated.kernel_eligible == {"JACOBI": [10, 20]}
        plain = force_run(translation, 4, facts={})
        assert plain.kernel_eligible == {}
        # the gate must not perturb execution
        assert gated.output == plain.output
        assert gated.makespan == plain.makespan
        # without a document the run computes the same facts itself
        default = force_run(translation, 4)
        assert default.kernel_eligible == gated.kernel_eligible
        assert default.kernelized_doalls == gated.kernelized_doalls
        assert default.output == gated.output
        assert default.makespan == gated.makespan


class TestCliFlags:
    def test_check_facts_writes_a_valid_document(self, tmp_path, capsys):
        out = tmp_path / "facts.json"
        assert main(["check", str(EXAMPLES / "jacobi.frc"),
                     "--facts", str(out)]) == 0
        assert "facts: 1 file(s)" in capsys.readouterr().err
        doc = load_facts(str(out))
        assert doc["files"][0]["doalls"]

    def test_check_explain_renders_witnesses(self, capsys):
        assert main(["check", "--explain",
                     str(EXAMPLES / "racy_stencil.frc")]) == 1
        out = capsys.readouterr().out
        assert "witness (read/write):" in out
        assert "phase 2" in out
        assert "holding {}" in out
        assert "the same statement on every other process" in out

    def test_run_facts_reports_eligible_loops(self, tmp_path, capsys):
        facts = tmp_path / "facts.json"
        assert main(["check", str(EXAMPLES / "jacobi.frc"),
                     "--facts", str(facts)]) == 0
        capsys.readouterr()
        assert main(["run", str(EXAMPLES / "jacobi.frc"),
                     "--facts", str(facts), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel_eligible"] == {"JACOBI": [10, 20]}

    def test_run_rejects_invalid_facts_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["run", str(EXAMPLES / "jacobi.frc"),
                     "--facts", str(bad)]) == 1
        assert "facts" in capsys.readouterr().err
