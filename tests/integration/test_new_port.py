"""Porting the Force to a *seventh* machine (§5).

"Given the fairly strong differences between the machines already
hosting the Force, we expect no major difficulties in porting the
system to any shared memory multiprocessor."

This test performs that port: a fictional late-80s machine ("Cedar-ish"
cluster multiprocessor) with spin locks and run-time sharing gets a
machine-dependent macro set of ~30 lines — nothing else changes — and
the whole sample-program suite runs on it with outputs identical to
the six original machines.
"""

import pytest

from repro.core import SEQUENT_BALANCE, force_run, programs
from repro.machines.model import (
    CostTable,
    LockType,
    MachineModel,
    ProcessModel,
    SharingBinding,
)
from repro.macros import MACHDEP_INTERFACE
from repro.macros.machdep import MACHDEP_MODULES
from repro.macros.machdep.common import (
    environment_macro,
    fork_driver,
    startup_registration,
    two_lock_async_macros,
)
from repro.pipeline import force_translate
from repro.sim.force_runtime import LOCK_CALL_NAMES

NEW_MACHINE = MachineModel(
    name="Cedarish C-32",
    vendor="Fictional Systems",
    processors=32,
    process_model=ProcessModel.UNIX_FORK,
    lock_type=LockType.SPIN,
    sharing_binding=SharingBinding.RUN_TIME,
    page_size=2048,
    shared_padded_both_ends=True,
    costs=CostTable(
        lock_acquire=9,
        lock_release=7,
        spin_retry=5,
        syscall_overhead=550,
        context_switch=300,
        process_create=9_000,
        shared_access_penalty=2,
    ),
)

# The entire port: one machine-dependent macro definition set.
NEW_MACHDEP_DEFINITIONS = (
    "dnl --- Cedarish C-32 machine-dependent Force macros --------------\n"
    + two_lock_async_macros("SPINLK", "SPINUN")
    + startup_registration(driver_calls_startup=True)
    + fork_driver()
    + environment_macro()
)


class _PortModule:
    DEFINITIONS = NEW_MACHDEP_DEFINITIONS


@pytest.fixture()
def ported(monkeypatch):
    monkeypatch.setitem(MACHDEP_MODULES, NEW_MACHINE.key, _PortModule)
    return NEW_MACHINE


class TestSeventhPort:
    def test_port_provides_complete_interface(self, ported):
        from repro.macros import build_processor
        m4 = build_processor(ported)
        for name in MACHDEP_INTERFACE:
            assert m4.is_defined(name)

    def test_changed_port_definitions_are_used(self, ported, monkeypatch):
        # The library snapshot is keyed by definition text, so editing a
        # port (same machine key) takes effect on the next translation.
        source = programs.render("sum_critical")
        assert "CALL SPINLK(" in force_translate(source, ported).fortran

        class _RevisedPort:
            DEFINITIONS = NEW_MACHDEP_DEFINITIONS.replace(
                "SPINLK", "CEDLCK").replace("SPINUN", "CEDUNL")

        monkeypatch.setitem(MACHDEP_MODULES, ported.key, _RevisedPort)
        fortran = force_translate(source, ported).fortran
        assert "CALL CEDLCK(" in fortran and "CALL CEDUNL(" in fortran
        assert "SPINLK" not in fortran

    def test_lock_names_consistent_with_model(self, ported):
        lock_name, unlock_name = LOCK_CALL_NAMES[ported.lock_type]
        fortran = force_translate(
            programs.render("sum_critical"), ported).fortran
        assert f"CALL {lock_name}(" in fortran
        assert f"CALL {unlock_name}(" in fortran

    @pytest.mark.parametrize("name", ["sum_critical", "dot_product",
                                      "pipeline", "sections",
                                      "askfor_tree", "matrix_scale",
                                      "subroutine_call"])
    def test_whole_suite_runs_on_the_new_machine(self, ported, name):
        source = programs.render(name)
        new = force_run(force_translate(source, ported), nproc=4)
        reference = force_run(
            force_translate(source, SEQUENT_BALANCE), nproc=4)
        assert new.output == reference.output

    def test_page_invariants_hold(self, ported):
        result = force_run(
            force_translate(programs.render("jacobi"), ported), nproc=4)
        plan = result.memory_plan
        assert plan is not None
        assert plan.shared_start % ported.page_size == 0
        assert plan.shared_end % ported.page_size == 0

    def test_port_is_small(self):
        # The paper's economics: the port fits in a few dozen lines.
        lines = [l for l in NEW_MACHDEP_DEFINITIONS.split("\n")
                 if l.strip() and not l.strip().startswith("dnl")]
        assert len(lines) < 40
