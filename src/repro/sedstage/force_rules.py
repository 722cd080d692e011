r"""The Force syntax translation rules (the "sed script").

Rewrites each Force statement into a parameterized macro call that the
m4 stage expands.  Statement forms follow §3 of the paper and the Force
User's Manual [JBAR87]; where the paper is silent on concrete syntax
(Askfor queues, doubly-nested DOALLs) this module documents the dialect
we implement.

Accepted statements (keywords case-insensitive, one per line; ``lbl``
is a numeric statement label):

====================================  =====================================
Force statement                       emitted macro call
====================================  =====================================
``Force NAME of NP ident ME``         ``force_main(NAME, NP, ME)``
``Forcesub NAME(A, B) of NP ident ME``  ``force_sub(NAME, `A, B', NP, ME)``
``Externf NAME``                      ``externf(NAME)``
``Forcecall NAME(A, B)``              ``forcecall(NAME, `A, B')``
``End declarations``                  ``end_declarations``
``Join``                              ``join_force``
``Barrier`` / ``End barrier``         ``barrier_begin`` / ``barrier_end``
``Critical VAR`` / ``End critical``   ``critical(VAR)`` / ``end_critical``
``Presched DO lbl V = l, u[, s]``     ``presched_do(lbl, V, `l, u[, s]')``
``lbl End presched DO``               ``end_presched_do(lbl)``
``Selfsched DO lbl V = l, u[, s]``    ``selfsched_do(lbl, V, `l, u[, s]')``
``lbl End selfsched DO``              ``end_selfsched_do(lbl)``
``Presched DO2 lbl V1 = b1; V2 = b2`` ``presched_do2(lbl, V1, `b1', V2, `b2')``
``lbl End presched DO2``              ``end_presched_do2(lbl)``
``Selfsched DO2 lbl V1 = b1; V2 = b2``  ``selfsched_do2(…)`` likewise
``Pcase [on VAR]``                    ``pcase(VAR-or-empty)``
``Usect``                             ``usect``
``Csect (COND)``                      ``csect(`COND')``
``End pcase``                         ``end_pcase``
``Produce VAR = EXPR``                ``produce(`VAR', `EXPR')``
``Consume VAR into DEST``             ``consume(`VAR', `DEST')``
``Copy VAR into DEST``                ``copyasync(`VAR', `DEST')``
``Void VAR``                          ``voidasync(`VAR')``
``Isfull(VAR)``  (in expressions)     ``FRCISF(VAR)`` runtime call
``Shared TYPE LIST``                  ``shared_decl(TYPE, `LIST')``
``Private TYPE LIST``                 ``private_decl(TYPE, `LIST')``
``Async TYPE LIST``                   ``async_decl(TYPE, `LIST')``
``Shared common /BLK/ LIST``          ``shared_common_decl(BLK, `LIST')``
``Private common /BLK/ LIST``         ``private_common_decl(BLK, `LIST')``
``Async common /BLK/ LIST``           ``async_common_decl(BLK, `LIST')``
``Taskq NAME(SIZE)``                  ``taskq_decl(NAME, SIZE)``
``Askfor lbl VAR from QUEUE``         ``askfor(lbl, VAR, QUEUE)``
``Putwork QUEUE = EXPR``              ``putwork(QUEUE, `EXPR')``
``lbl End askfor``                    ``end_askfor(lbl)``
====================================  =====================================

Fortran comment lines (``C``/``*``/``!`` in column one) and every
non-Force line pass through unchanged.  As in fixed-form Fortran,
statements must not start in column one — a ``Critical`` or ``Consume``
statement written flush-left would be read as a ``C`` comment line.
"""

from __future__ import annotations

import threading

from repro.sedstage.engine import SedProgram

_TYPES = (r"(?:DOUBLE\s+PRECISION|INTEGER|REAL|LOGICAL|COMPLEX|"
          r"CHARACTER(?:\*\d+)?)")

# A Forcecall actual list: text whose parentheses balance, nested up to
# three deep (``A(2)``, ``B(1, IDX(K))``); one level at a time, since
# Python regexes cannot recurse.
_ACTUALS = r"[^()]*"
for _ in range(3):
    _ACTUALS = rf"(?:[^()]|\({_ACTUALS}\))*"

# The translation script, in our sed dialect (Python regexes, one rule
# per line).  Order matters: more specific statements come first.
FORCE_SED_SCRIPT = r"""
# --- program structure -------------------------------------------------
s/^\s*Force\s+(\w+)\s+of\s+(\w+)\s+ident\s+(\w+)\s*$/force_main(`\1',`\2',`\3')/I
s/^\s*Forcesub\s+(\w+)\s*\(([^)]*)\)\s+of\s+(\w+)\s+ident\s+(\w+)\s*$/force_sub(`\1',`\2',`\3',`\4')/I
s/^\s*Forcesub\s+(\w+)\s+of\s+(\w+)\s+ident\s+(\w+)\s*$/force_sub(`\1',`',`\2',`\3')/I
s/^\s*Externf\s+(\w+)\s*$/externf(`\1')/I
s/^\s*Forcecall\s+(\w+)\s*\((@ACTUALS@)\)\s*$/forcecall(`\1',`\2')/I
s/^\s*Forcecall\s+(\w+)\s*$/forcecall(`\1',`')/I
s/^\s*End\s+declarations\s*$/end_declarations()/I
s/^\s*Join\s*$/join_force()/I
# --- declarations ------------------------------------------------------
s/^\s*Shared\s+common\s*\/(\w+)\/\s*(.*)$/shared_common_decl(`\1',`\2')/I
s/^\s*Private\s+common\s*\/(\w+)\/\s*(.*)$/private_common_decl(`\1',`\2')/I
s/^\s*Async\s+common\s*\/(\w+)\/\s*(.*)$/async_common_decl(`\1',`\2')/I
s/^\s*Shared\s+(@TYPES@)\s+(.*)$/shared_decl(`\1',`\2')/I
s/^\s*Private\s+(@TYPES@)\s+(.*)$/private_decl(`\1',`\2')/I
s/^\s*Async\s+(@TYPES@)\s+(.*)$/async_decl(`\1',`\2')/I
s/^\s*Taskq\s+(\w+)\s*\(\s*(\w+)\s*\)\s*$/taskq_decl(`\1',`\2')/I
# --- synchronization ---------------------------------------------------
s/^\s*Barrier\s*$/barrier_begin()/I
s/^\s*End\s+barrier\s*$/barrier_end()/I
s/^\s*Critical\s+(\w+)\s*$/critical(`\1')/I
s/^\s*End\s+critical\s*$/end_critical()/I
s/^\s*Produce\s+([A-Za-z]\w*(?:\s*\([^=]*\))?)\s*=\s*(.*)$/produce(`\1',`\2')/I
s/^\s*Consume\s+([A-Za-z]\w*(?:\s*\([^=]*\))?)\s+into\s+(\S.*)$/consume(`\1',`\2')/I
s/^\s*Copy\s+([A-Za-z]\w*(?:\s*\([^=]*\))?)\s+into\s+(\S.*)$/copyasync(`\1',`\2')/I
s/^\s*Void\s+(\S.*)$/voidasync(`\1')/I
s/\bIsfull\s*\(/FRCISF(/gI
# --- work distribution -------------------------------------------------
s/^\s*Presched\s+DO2\s+(\d+)\s+(\w+)\s*=\s*([^;]+?)\s*;\s*(\w+)\s*=\s*(.+?)\s*$/presched_do2(`\1',`\2',`\3',`\4',`\5')/I
s/^\s*(\d+)\s+End\s+presched\s+DO2\s*$/end_presched_do2(`\1')/I
s/^\s*Selfsched\s+DO2\s+(\d+)\s+(\w+)\s*=\s*([^;]+?)\s*;\s*(\w+)\s*=\s*(.+?)\s*$/selfsched_do2(`\1',`\2',`\3',`\4',`\5')/I
s/^\s*(\d+)\s+End\s+selfsched\s+DO2\s*$/end_selfsched_do2(`\1')/I
s/^\s*Presched\s+DO\s+(\d+)\s+(\w+)\s*=\s*(.+?)\s*$/presched_do(`\1',`\2',`\3')/I
s/^\s*(\d+)\s+End\s+presched\s+DO\s*$/end_presched_do(`\1')/I
s/^\s*End\s+presched\s+DO\s*$/end_presched_do(`')/I
s/^\s*Blocksched\s+DO\s+(\d+)\s+(\w+)\s*=\s*(.+?)\s*$/blocksched_do(`\1',`\2',`\3')/I
s/^\s*(\d+)\s+End\s+blocksched\s+DO\s*$/end_blocksched_do(`\1')/I
s/^\s*End\s+blocksched\s+DO\s*$/end_blocksched_do(`')/I
s/^\s*Selfsched\s+DO\s+(\d+)\s+(\w+)\s*=\s*(.+?)\s*$/selfsched_do(`\1',`\2',`\3')/I
s/^\s*(\d+)\s+End\s+selfsched\s+DO\s*$/end_selfsched_do(`\1')/I
s/^\s*End\s+selfsched\s+DO\s*$/end_selfsched_do(`')/I
s/^\s*Pcase\s+on\s+(\w+)\s*$/pcase(`\1')/I
s/^\s*Pcase\s*$/pcase(`')/I
s/^\s*Usect\s*$/usect()/I
s/^\s*Csect\s*\((.*)\)\s*$/csect(`\1')/I
s/^\s*End\s+pcase\s*$/end_pcase()/I
s/^\s*Askfor\s+(\d+)\s+(\w+)\s+from\s+(\w+)\s*$/askfor(`\1',`\2',`\3')/I
s/^\s*Putwork\s+(\w+)\s*=\s*(.*)$/putwork(`\1',`\2')/I
s/^\s*(\d+)\s+End\s+askfor\s*$/end_askfor(`\1')/I
""".replace("@TYPES@", _TYPES).replace("@ACTUALS@", _ACTUALS)

_COMPILED: SedProgram | None = None
_COMPILE_LOCK = threading.Lock()


def _program() -> SedProgram:
    # Double-checked lazy init: concurrent force_translate calls must
    # not observe (or both overwrite) a half-published program.  The
    # compiled program itself is safe to share — SedProgram.run keeps
    # all per-run state local.
    global _COMPILED
    program = _COMPILED
    if program is None:
        with _COMPILE_LOCK:
            program = _COMPILED
            if program is None:
                program = SedProgram(FORCE_SED_SCRIPT)
                _COMPILED = program
    return program


def compiled_force_program() -> SedProgram:
    """The compiled Force translation script (shared, reentrant).

    Public for tools that need rule-level access — the static
    analyzer's silent-keyword lint replays single lines through it.
    """
    return _program()


def translate_force_source(source: str) -> str:
    """Run the Force sed script over ``source``.

    Comment lines (``C``, ``*`` or ``!`` in column one) are protected
    from rewriting by a pre-pass rather than script addresses, keeping
    the rule script readable.
    """
    program = _program()
    out_lines: list[str] = []
    for line in source.split("\n"):
        if line[:1] in ("C", "c", "*", "!"):
            out_lines.append(line)
            continue
        edited = program.run(line + "\n")
        # Single-line runs always produce exactly one line back.
        out_lines.append(edited[:-1] if edited.endswith("\n") else edited)
    return "\n".join(out_lines)
