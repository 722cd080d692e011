"""Shared helpers for Fortran interpreter tests."""

import pytest

from repro._util.text import strip_margin
from repro.fortran import Interpreter, parse_source, parser
from repro.fortran.interp import drain


@pytest.fixture()
def run_fortran():
    """Run a serial Fortran program, returning its output lines."""

    def _run(source: str) -> list[str]:
        program = parse_source(strip_margin(source))
        interp = Interpreter(program)
        drain(interp.run_program())
        return interp.output

    return _run


@pytest.fixture()
def unit_tables(monkeypatch):
    """Empty parser unit and template tables, restored after the test;
    returns the unit table."""
    monkeypatch.setattr(parser, "_UNITS", {})
    monkeypatch.setattr(parser, "_TEMPLATES", {})
    return parser._UNITS
