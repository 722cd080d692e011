"""Native execution differential: sim vs thread vs process backends.

``force run --backend thread|process`` executes the python-host
macro expansion for real — Fortran barriers, criticals, selfsched
loops and askfor pools spinning on LOGICAL lock words in shared
COMMON.  For the example corpus all three vehicles must print the
same lines, and the process backend must leave ``/dev/shm`` clean.
"""

import glob
import json

import pytest

from repro._util.errors import ForceError
from repro.machines import get_machine
from repro.pipeline.cli import main
from repro.pipeline.compile import force_translate
from repro.pipeline.native import (
    NATIVE_BACKENDS,
    native_run,
    shared_block_names,
)
from repro.pipeline.run import force_run

# Fixed-form discipline: Force statements are indented, never column
# one — a flush-left ``Critical`` reads as a ``C`` comment line.
SUM_CRITICAL = """\
      Force SUMUP of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER I, MINE
      End declarations
      Barrier
      TOTAL = 0
      End barrier
      MINE = 0
      DO 10 I = ME, 50, NP
      MINE = MINE + I
10    CONTINUE
      Critical LCK
      TOTAL = TOTAL + MINE
      End critical
      Barrier
      WRITE(*,*) "TOTAL", TOTAL
      End barrier
      Join
      END
"""

ASKFOR_TREE = """\
      Force TREE of NP ident ME
      Taskq WORK(64)
      Shared INTEGER COUNT
      Private INTEGER NODE, C
      End declarations
      Barrier
      COUNT = 0
      Putwork WORK = 1
      End barrier
      Askfor 30 NODE from WORK
      Critical KC
      COUNT = COUNT + 1
      End critical
      C = 2 * NODE
      IF (C .LE. 15) THEN
      Putwork WORK = C
      Putwork WORK = C + 1
      END IF
30    End askfor
      Barrier
      WRITE(*,*) "NODES", COUNT
      End barrier
      Join
      END
"""

SELFSCHED = """\
      Force LOOP of NP ident ME
      Shared INTEGER SUM
      Private INTEGER I
      End declarations
      Barrier
      SUM = 0
      End barrier
      Selfsched DO 20 I = 1, 40
      Critical SC
      SUM = SUM + I
      End critical
20    End selfsched DO
      Barrier
      WRITE(*,*) "SUM", SUM
      End barrier
      Join
      END
"""

CORPUS = [("sum_critical", SUM_CRITICAL, ["TOTAL 1275"]),
          ("askfor_tree", ASKFOR_TREE, ["NODES 15"]),
          ("selfsched", SELFSCHED, ["SUM 820"])]


def _shm() -> set:
    return set(glob.glob("/dev/shm/*"))


def _host_translation(source):
    return force_translate(source, get_machine("python-host"))


class TestDifferentialAgainstSim:
    @pytest.mark.parametrize("name,source,expected",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_all_three_vehicles_agree(self, name, source, expected):
        sim = force_run(
            force_translate(source, get_machine("sequent-balance")), 3)
        assert sim.output == expected
        translation = _host_translation(source)
        before = _shm()
        for backend in NATIVE_BACKENDS:
            result = native_run(translation, 3, backend=backend,
                                deadline=60)
            assert result.output == expected, backend
        assert _shm() == before

    def test_example_corpus_agrees(self):
        # every runnable .frc example: sim, thread and process must
        # print the same lines
        from pathlib import Path

        from repro.bench import NON_RUNNABLE_EXAMPLES

        examples = Path(__file__).resolve().parents[2] / "examples"
        seen = 0
        for path in sorted(examples.glob("*.frc")):
            if path.name in NON_RUNNABLE_EXAMPLES:
                continue
            source = path.read_text(encoding="utf-8")
            sim = force_run(
                force_translate(source, get_machine("sequent-balance")),
                3)
            translation = _host_translation(source)
            for backend in NATIVE_BACKENDS:
                result = native_run(translation, 3, backend=backend,
                                    deadline=120)
                assert result.output == sim.output, \
                    (path.name, backend)
            seen += 1
        assert seen >= 2       # jacobi + sum_critical at minimum

    def test_nproc_one_works(self):
        result = native_run(_host_translation(SUM_CRITICAL), 1,
                            backend="thread", deadline=60)
        assert result.output == ["TOTAL 1275"]

    def test_stats_carry_native_section(self):
        result = native_run(_host_translation(SUM_CRITICAL), 2,
                            backend="thread", stats=True, deadline=60)
        document = result.stats_dict()
        assert document["native"]["backend"] == "thread"
        assert document["native"]["nproc"] == 2
        assert document["native"]["wall_s"] >= 0
        assert "criticals" in document

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_critical_rounds_reach_stats_metrics_and_trace(self,
                                                           backend):
        # SPINLK/SPINUN lock rounds on a critical's lock word feed all
        # three sinks from one probe call, so they count the same.
        from pathlib import Path

        source = (Path(__file__).resolve().parents[2] / "examples"
                  / "sum_critical.frc").read_text(encoding="utf-8")
        result = native_run(_host_translation(source), 3,
                            backend=backend, stats=True, metrics=True,
                            trace=True, deadline=60)
        metric = [m["value"] for m in result.metrics_doc["metrics"]
                  if m["name"] == "force_critical_acquisitions_total"
                  and m["labels"] == {"name": "LCK"}]
        holds = [e for e in result.trace
                 if e.kind == "critical" and e.name == "LCK"
                 and e.op == "hold"]
        acquisitions = result.force_stats["criticals"]["LCK"][
            "acquisitions"]
        assert metric == [acquisitions] == [len(holds)]
        assert acquisitions > 0

    def test_wall_clock_recorded(self):
        result = native_run(_host_translation(SUM_CRITICAL), 2,
                            backend="thread", deadline=60)
        assert result.wall_s > 0
        assert result.backend == "thread"


class TestGuards:
    def test_only_python_host_expansions(self):
        translation = force_translate(SUM_CRITICAL,
                                      get_machine("sequent-balance"))
        with pytest.raises(ForceError, match="python-host"):
            native_run(translation, 2, backend="thread")

    def test_unknown_backend(self):
        with pytest.raises(ForceError, match="backend"):
            native_run(_host_translation(SUM_CRITICAL), 2,
                       backend="simd")

    def test_shared_block_names_from_expansion(self):
        translation = _host_translation(SUM_CRITICAL)
        names = shared_block_names(translation.fortran)
        assert "FRCENV" in names        # barrier state block
        assert any(name.startswith("ZZS") for name in names)


class TestCliBackendFlag:
    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "prog.frc"
        path.write_text(SUM_CRITICAL, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_run_backend(self, backend, source_file, capsys):
        before = _shm()
        assert main(["run", source_file, "--backend", backend,
                     "--nproc", "3"]) == 0
        assert "TOTAL 1275" in capsys.readouterr().out
        assert _shm() == before

    def test_json_document_has_backend_and_wall(self, source_file,
                                                capsys):
        assert main(["run", source_file, "--backend", "thread",
                     "--nproc", "2", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backend"] == "thread"
        assert document["wall_s"] > 0
        assert "makespan" not in document

    def test_sim_stays_default(self, source_file, capsys):
        assert main(["run", source_file, "--nproc", "2",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["backend"] == "sim"
        assert "makespan" in document

    def test_machine_conflict_rejected(self, source_file, capsys):
        assert main(["run", source_file, "--backend", "process",
                     "--machine", "cray-2"]) == 1
        err = capsys.readouterr().err
        assert "python-host" in err

    def test_machine_python_host_accepted(self, source_file, capsys):
        assert main(["run", source_file, "--backend", "thread",
                     "--machine", "python-host", "--nproc", "2"]) == 0
        assert "TOTAL 1275" in capsys.readouterr().out

    def test_deadline_fires_as_exit_3(self, tmp_path, capsys):
        # Only member 1 ever arrives at the barrier: with nproc=2 the
        # run can never complete, and --deadline must turn that into
        # the structured exit code 3 instead of hanging.
        source = (
            "      Force HANG of NP ident ME\n"
            "      Shared INTEGER X\n"
            "      End declarations\n"
            "      IF (ME .EQ. 1) THEN\n"
            "      Barrier\n"
            "      X = 1\n"
            "      End barrier\n"
            "      END IF\n"
            "      Join\n"
            "      END\n")
        path = tmp_path / "hang.frc"
        path.write_text(source, encoding="utf-8")
        before = _shm()
        code = main(["run", str(path), "--backend", "process",
                     "--nproc", "2", "--deadline", "2"])
        assert code == 3
        assert _shm() == before
