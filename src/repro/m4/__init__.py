"""An m4-style macro processor.

The Force is implemented as a two-level macro library expanded by ``m4``
(§4.3 of the paper).  This package provides a faithful-enough m4 dialect
for that library: user macros with ``define``/``pushdef``, argument
substitution (``$0``–``$9``, ``$#``, ``$*``, ``$@``), quoting with
``changequote``, conditionals (``ifelse``/``ifdef``), integer ``eval``,
string builtins, diversions, and full rescanning of expansion output.

Dialect notes (differences from POSIX m4, all documented in README):

* macro names are ``[A-Za-z_][A-Za-z0-9_]*`` (same as m4);
* as in m4, macros met while collecting arguments are expanded at once
  and their output rescanned, so an expansion that produces a comma
  does create a new argument (the ``shift($@)`` idiom relies on it);
* ``#`` comments are not special (the Force library does not use them;
  Fortran ``C`` comment lines pass through untouched);
* ``divert`` supports buffers 0–9 and -1 (discard).
"""

from repro.m4.engine import M4Processor, M4Options
from repro._util.errors import MacroError

__all__ = ["M4Processor", "M4Options", "MacroError"]
