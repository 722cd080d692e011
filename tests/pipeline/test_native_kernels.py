"""Native runs with analyzer-proven kernels on, against the oracle.

``native_run`` gives every member the facts of its source, so the
DOALLs the analyzer proves race-free run as numpy kernels on the thread
backend and, over the shared-memory arena's views of COMMON, on the
process backend.  Their output must equal the tree walker's on the
simulator for every runnable example and every sample program.
"""

import glob
import json
from pathlib import Path

import pytest

import repro.pipeline.native as pipeline_native
from repro.bench import NON_RUNNABLE_EXAMPLES
from repro.core import programs
from repro.machines import get_machine
from repro.pipeline.cli import main
from repro.pipeline.compile import force_translate
from repro.pipeline.native import NATIVE_BACKENDS, native_run
from repro.pipeline.run import force_run, program_facts

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: name -> Force source: the runnable examples, then every sample at
#: its (small) default size
SOURCES = {
    **{path.name: path.read_text(encoding="utf-8")
       for path in sorted(EXAMPLES.glob("*.frc"))
       if path.name not in NON_RUNNABLE_EXAMPLES},
    **{name: programs.render(name) for name in programs.sample_names()},
}

#: loops that must run as kernels on both backends
KERNELIZED = {
    "jacobi.frc": {"JACOBI": [10, 20]},
    "jacobi": {"JACOBI": [10, 20]},
    "lu_decomposition": {"LUDEC": [10]},
}


def _shm() -> set:
    return set(glob.glob("/dev/shm/*"))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_native_kernels_match_the_oracle(name):
    source = SOURCES[name]
    native = force_translate(source, get_machine("python-host"))
    simulated = force_translate(source, get_machine("sequent-balance"))
    before = _shm()
    for nproc in (2, 3):
        oracle = force_run(simulated, nproc, codegen="interp")
        # the simulator orders lines by virtual time, the native
        # backends by member: with several printing members only the
        # multiset of lines is fixed
        printers = {who for _when, who, _line in oracle.output_records}
        for backend in NATIVE_BACKENDS:
            where = f"{name} on {backend} with nproc {nproc}"
            result = native_run(native, nproc, backend=backend,
                                deadline=60)
            if len(printers) > 1:
                assert sorted(result.output) == sorted(oracle.output), \
                    where
            else:
                assert result.output == oracle.output, where
            assert result.kernel_refused.keys() <= \
                result.kernel_eligible.keys(), where
            if name in KERNELIZED:
                assert result.kernelized_doalls == KERNELIZED[name], where
                assert result.kernel_refused == {}, where
    assert _shm() == before


#: DOALL 10 reads A(L) inside the rows it writes: facts that call it
#: race-free get it past the recognizer, and only the runtime guard
#: sends it down the generic path
OVERLAP = """\
Force OV of NP ident ME
Shared REAL A(6)
Shared INTEGER L
Private INTEGER I
End declarations
Barrier
      L = 3
      DO 1 I = 1, 6
      A(I) = FLOAT(I * I)
1     CONTINUE
End barrier
Presched DO 10 I = 1, 6
      A(I) = A(I) - A(L)
10 End presched DO
Barrier
      WRITE(*,*) "A", A(1), A(3), A(4), A(6)
End barrier
Join
      END
"""


@pytest.mark.parametrize("backend", NATIVE_BACKENDS)
def test_a_failed_runtime_guard_is_reported(backend):
    facts = {"version": 1, "files": [{"doalls": [
        {"routine": "OV", "label": 10, "race_free": True}]}]}
    oracle = force_run(force_translate(OVERLAP,
                                       get_machine("sequent-balance")),
                       1, codegen="interp")
    result = native_run(force_translate(OVERLAP,
                                        get_machine("python-host")),
                        1, backend=backend, deadline=60, facts=facts)
    assert result.output == oracle.output
    assert result.kernelized_doalls == {"OV": [10]}
    assert result.kernel_refused == \
        {"OV": {10: "runtime guard: write overlaps another access"}}


class TestCli:
    JACOBI = str(EXAMPLES / "jacobi.frc")

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_json_document_carries_the_kernels(self, backend, capsys):
        assert main(["run", self.JACOBI, "--backend", backend,
                     "--nproc", "2", "--format", "json", "--stats"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kernel_eligible"] == \
            document["kernelized_doalls"] == {"JACOBI": [10, 20]}
        assert document["kernel_refused"] == {}
        assert document["stats"]["native"]["kernelized_doalls"] == \
            {"JACOBI": [10, 20]}

    def test_stats_show_the_kernels(self, capsys):
        assert main(["run", self.JACOBI, "--backend", "thread",
                     "--nproc", "2", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "kernel-eligible:     JACOBI 10,20" in err
        assert "kernelized:          JACOBI 10,20" in err

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_facts_file_gates_native_kernels(self, backend, tmp_path,
                                             capsys):
        # the checker's document for jacobi.frc, with DOALL 10 unproven
        path = tmp_path / "facts.json"
        assert main(["check", self.JACOBI, "--facts", str(path)]) == 0
        document = json.loads(path.read_text())
        for doall in document["files"][0]["doalls"]:
            doall["race_free"] = doall["label"] == "20"
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["run", self.JACOBI, "--backend", backend,
                     "--nproc", "2", "--facts", str(path)]) == 0
        captured = capsys.readouterr()
        assert "ignored" not in captured.err
        assert "facts: 1 kernel-eligible DOALL loop(s) in 1 unit(s); " \
            "1 lowered to numpy kernels" in captured.err
        assert main(["run", self.JACOBI, "--backend", backend,
                     "--nproc", "2", "--facts", str(path),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kernelized_doalls"] == {"JACOBI": [20]}


def test_supervisor_gets_the_runs_facts(monkeypatch):
    made = []
    real = pipeline_native.SupervisedRun

    def keep(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(pipeline_native, "SupervisedRun", keep)
    racy = force_translate(
        (EXAMPLES / "adversarial" / "priv_temp.frc").read_text(),
        get_machine("python-host"))
    native_run(racy, 2, backend="thread", deadline=60, retries=1,
               min_nproc=1)
    clean = force_translate(SOURCES["jacobi.frc"],
                            get_machine("python-host"))
    native_run(clean, 2, backend="thread", deadline=60, retries=1,
               min_nproc=1)
    native_run(clean, 2, backend="thread", deadline=60, retries=1,
               min_nproc=1, codegen="interp")
    assert made[0].facts is program_facts(racy.force_source)
    assert not made[0].portable
    assert made[0].refusal_reason == "DOALL PRIVT:10 is not race-free"
    assert made[1].facts is program_facts(clean.force_source)
    assert made[1].portable
    # the interp tier analyses nothing: the language contract holds
    assert made[2].facts is None and made[2].portable
