"""The m4-style macro expansion engine.

This is the second stage of the Force compilation pipeline (§4.3): the
sed stage turns Force statements into parameterized function-macro calls
and this engine expands them — twice over, conceptually, since the
machine-independent macros themselves expand into machine-dependent
macro calls which are expanded in the same rescanning pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from repro._util.errors import MacroError
from repro.m4.evalexpr import eval_expression
from repro.m4.reader import PushbackReader

_WORD_START = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_CHARS = _WORD_START | set("0123456789")

# Character runs the scanner consumes in one step (see PushbackReader.
# read_run).  A word's first character is checked before _WORD_RUN
# takes the rest of it.
_WORD_RUN = re.compile(r"[A-Za-z0-9_]*")
_BLANK_RUN = re.compile(r"[ \t\n]*")
_LINE_RUN = re.compile(r"[^\n]*")
_DOLLAR_REF = re.compile(r"\$([0-9#*@])")


@lru_cache(maxsize=32)
def _quote_runs(open_quote: str, close_quote: str) -> tuple[re.Pattern, ...]:
    """Run patterns for one quote pair: (literal, quoted body, argument).

    Each run stops at the first character of a quote string, so a
    multi-character quote is still recognised by ``PushbackReader.match``
    one character at a time; every other character is consumed in runs.
    """
    o = re.escape(open_quote[0])
    c = re.escape(close_quote[0])
    return (re.compile(f"[^A-Za-z_{o}]*"),
            re.compile(f"[^{o}{c}]*"),
            re.compile(f"[^A-Za-z_(),{o}]*"))


@dataclass
class M4Options:
    """Tunable limits and quote characters for an :class:`M4Processor`."""

    open_quote: str = "`"
    close_quote: str = "'"
    #: Hard cap on pending (unscanned) input, to catch runaway recursion.
    max_pending: int = 1_000_000
    #: Hard cap on total output size.
    max_output: int = 16_000_000
    #: Hard cap on scan-loop iterations, catching livelocks where a
    #: macro's expansion re-invokes it without growing pending input
    #: (e.g. a macro whose output contains its own unquoted name).
    max_iterations: int = 20_000_000


#: One entry on a macro's definition stack: a user macro's body, or the
#: Python function implementing a builtin.
_Definition = str | Callable


class M4Processor:
    """A reusable macro processor instance.

    Typical use::

        m4 = M4Processor()
        m4.define("greet", "hello $1")
        m4.process("greet(world)")   # -> "hello world"

    Definitions persist across :meth:`process` calls, which is how the
    Force pipeline layers machine-dependent definitions under the
    machine-independent library before expanding the user program.
    """

    def __init__(self, options: M4Options | None = None) -> None:
        self.options = options or M4Options()
        self._set_quotes(self.options.open_quote, self.options.close_quote)
        # name -> stack of definitions (top = last).  Stacks are tuples,
        # replaced rather than mutated, so clones can share them.
        self._macros: dict[str, tuple[_Definition, ...]] = {}
        self._diversions: dict[int, list[str]] = {}
        self._current_diversion = 0
        self._includes: dict[str, str] = {}
        self._install_builtins()

    def clone(self) -> M4Processor:
        """An independent copy of this processor's whole state.

        The macro table, diversions and includes are copied, so nothing
        the copy expands can reach this processor.  The definition
        stacks themselves are shared: they are immutable tuples.
        """
        twin = M4Processor.__new__(M4Processor)
        twin.options = replace(self.options)
        twin._open = self._open
        twin._close = self._close
        twin._runs = self._runs
        twin._macros = dict(self._macros)
        twin._diversions = {n: parts[:]
                            for n, parts in self._diversions.items()}
        twin._current_diversion = self._current_diversion
        twin._includes = dict(self._includes)
        return twin

    def _set_quotes(self, open_quote: str, close_quote: str) -> None:
        self._open = open_quote
        self._close = close_quote
        self._runs = _quote_runs(open_quote, close_quote)

    # ------------------------------------------------------------------
    # public definition API
    # ------------------------------------------------------------------
    def define(self, name: str, body: str) -> None:
        """Define ``name`` to expand to ``body`` (replacing the top def)."""
        self._check_name(name)
        stack = self._macros.get(name, ())
        self._macros[name] = stack[:-1] + (body,)

    def pushdef(self, name: str, body: str) -> None:
        """Push a new definition, shadowing any previous one."""
        self._push(name, body)

    def popdef(self, name: str) -> None:
        """Remove the top definition of ``name`` (no-op if undefined)."""
        stack = self._macros.get(name)
        if stack and len(stack) > 1:
            self._macros[name] = stack[:-1]
        else:
            self._macros.pop(name, None)

    def undefine(self, name: str) -> None:
        """Remove every definition of ``name``."""
        self._macros.pop(name, None)

    def is_defined(self, name: str) -> bool:
        return name in self._macros

    def definition_of(self, name: str) -> str | None:
        """Return the body of the top definition, or None."""
        stack = self._macros.get(name)
        if not stack or not isinstance(stack[-1], str):
            return None
        return stack[-1]

    def define_builtin(self, name: str, func: Callable) -> None:
        """Register a Python-implemented macro.

        ``func(processor, args)`` receives the expanded argument list
        (``args[0]`` is the macro name) and returns replacement text,
        which is rescanned like any other expansion.
        """
        self._push(name, func)

    def _push(self, name: str, definition: _Definition) -> None:
        self._check_name(name)
        self._macros[name] = self._macros.get(name, ()) + (definition,)

    def add_include(self, name: str, text: str) -> None:
        """Make ``include(name)`` available (no filesystem access)."""
        self._includes[name] = text

    def load_definitions(self, text: str) -> None:
        """Process a definitions-only file, discarding its output.

        Raises :class:`MacroError` if the definitions produce non-blank
        output, which almost always indicates a quoting mistake in a
        macro library file.
        """
        residue = self.process(text)
        if residue.strip():
            snippet = residue.strip()[:200]
            raise MacroError(
                f"definition file produced unexpected output: {snippet!r}")

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def process(self, text: str) -> str:
        """Expand ``text`` and return the result (diversion 0 + output)."""
        reader = PushbackReader(text)
        out: list[str] = []
        out_len = 0
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.options.max_iterations:
                raise MacroError("scan iteration limit exceeded (livelock: "
                                 "does a macro's output contain its own "
                                 "unquoted name?)")
            piece = self._scan_piece(reader)
            if piece is None:
                break
            if piece:
                if self._current_diversion == 0:
                    out.append(piece)
                    out_len += len(piece)
                    if out_len > self.options.max_output:
                        raise MacroError("output size limit exceeded "
                                         "(runaway macro expansion?)")
                elif self._current_diversion > 0:
                    self._diversions.setdefault(
                        self._current_diversion, []).append(piece)
                # diversion -1 discards
            if reader.pending_length() > self.options.max_pending:
                raise MacroError("pending input limit exceeded "
                                 "(runaway macro recursion?)")
        return "".join(out)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def _scan_piece(self, reader: PushbackReader) -> str | None:
        """Scan one lexical item; return output text or None at EOF.

        An item is a quoted string, a word, or a run of literal text up
        to the next word start or open quote.
        """
        ch = reader.peek()
        if not ch:
            return None
        # Quoted string: strip one quote level, emit contents verbatim.
        if ch == self._open[0] and reader.match(self._open):
            return self._read_quoted(reader)
        if ch in _WORD_START:
            word = reader.read_run(_WORD_RUN)
            if word in self._macros:
                self._invoke(word, reader)
                return ""
            return word
        # A lone quote-start character that did not open a quote
        # (multi-character quotes) is literal on its own.
        return reader.read_run(self._runs[0]) or reader.next()

    def _read_quoted(self, reader: PushbackReader) -> str:
        """Read to the matching close quote; nested quotes are kept."""
        depth = 1
        out: list[str] = []
        body = self._runs[1]
        while True:
            out.append(reader.read_run(body))
            if reader.at_eof():
                raise MacroError("unbalanced quotes (EOF inside quoted "
                                 "string)")
            if reader.match(self._open):
                depth += 1
                out.append(self._open)
                continue
            if reader.match(self._close):
                depth -= 1
                if depth == 0:
                    return "".join(out)
                out.append(self._close)
                continue
            out.append(reader.next())

    def _invoke(self, name: str, reader: PushbackReader) -> None:
        """Expand macro ``name``; result is pushed back for rescanning."""
        args = [name]
        if reader.peek() == "(":
            reader.next()
            args += self._collect_args(reader)
        definition = self._macros[name][-1]
        if not isinstance(definition, str):
            replacement = definition(self, args)
            if replacement is _DNL:
                # dnl: discard input through the next newline.
                reader.read_run(_LINE_RUN)
                reader.next()
                return
        else:
            replacement = self._substitute(definition, args)
        if replacement:
            reader.push(replacement)

    def _collect_args(self, reader: PushbackReader) -> list[str]:
        """Collect arguments up to the balancing ')', expanding as we go.

        This is m4's real semantics: macros encountered while collecting
        are expanded immediately (their output pushed back onto the
        input), so an expansion may contribute commas and parentheses to
        the argument structure — the ``shift($@)`` recursion idiom
        depends on it.  Quoted text contributes its contents verbatim
        (one quote level stripped, inner macros protected).  Leading
        unquoted whitespace of each argument is skipped.
        """
        args: list[str] = []
        current: list[str] = []
        depth = 0
        at_arg_start = True
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.options.max_iterations:
                raise MacroError("iteration limit exceeded while "
                                 "collecting macro arguments")
            if reader.pending_length() > self.options.max_pending:
                raise MacroError("pending input limit exceeded while "
                                 "collecting macro arguments")
            if reader.at_eof():
                raise MacroError("EOF while collecting macro arguments")
            if at_arg_start:
                reader.read_run(_BLANK_RUN)
                at_arg_start = False
                continue
            ch = reader.peek()
            if ch == self._open[0] and reader.match(self._open):
                current.append(self._read_quoted(reader))
                continue
            if ch in _WORD_START:
                word = reader.read_run(_WORD_RUN)
                if word in self._macros:
                    self._invoke(word, reader)
                else:
                    current.append(word)
                continue
            # Text up to the next parenthesis, comma, quote or word.
            text = reader.read_run(self._runs[2])
            if text:
                current.append(text)
                continue
            ch = reader.next()
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    args.append("".join(current))
                    return args
                depth -= 1
            elif ch == "," and depth == 0:
                args.append("".join(current))
                current = []
                at_arg_start = True
                continue
            current.append(ch)

    # ------------------------------------------------------------------
    # body substitution
    # ------------------------------------------------------------------
    def _substitute(self, body: str, args: list[str]) -> str:
        if "$" not in body:
            return body

        def expand(ref: re.Match) -> str:
            what = ref.group(1)
            if what == "#":
                return str(len(args) - 1)
            if what == "*":
                return ",".join(args[1:])
            if what == "@":
                return ",".join(self.quote(a) for a in args[1:])
            idx = int(what)
            return args[idx] if idx < len(args) else ""

        return _DOLLAR_REF.sub(expand, body)

    # ------------------------------------------------------------------
    # builtins
    # ------------------------------------------------------------------
    def _install_builtins(self) -> None:
        builtins: dict[str, Callable] = {
            "define": _bi_define,
            "undefine": _bi_undefine,
            "pushdef": _bi_pushdef,
            "popdef": _bi_popdef,
            "defn": _bi_defn,
            "ifdef": _bi_ifdef,
            "ifelse": _bi_ifelse,
            "incr": _bi_incr,
            "decr": _bi_decr,
            "eval": _bi_eval,
            "len": _bi_len,
            "index": _bi_index,
            "substr": _bi_substr,
            "translit": _bi_translit,
            "dnl": _bi_dnl,
            "changequote": _bi_changequote,
            "divert": _bi_divert,
            "undivert": _bi_undivert,
            "divnum": _bi_divnum,
            "include": _bi_include,
            "shift": _bi_shift,
            "errprint": _bi_errprint,
            "m4exit": _bi_m4exit,
        }
        for name, func in builtins.items():
            self.define_builtin(name, func)

    # helpers used by builtins ------------------------------------------
    def _check_name(self, name: str) -> None:
        if not name or name[0] not in _WORD_START or \
                any(c not in _WORD_CHARS for c in name):
            raise MacroError(f"invalid macro name: {name!r}")

    def quote(self, text: str) -> str:
        """Wrap ``text`` in one level of the current quote characters."""
        return f"{self._open}{text}{self._close}"


# ----------------------------------------------------------------------
# builtin implementations (module-level so the engine stays readable)
# ----------------------------------------------------------------------
def _arg(args: list[str], i: int, default: str = "") -> str:
    return args[i] if i < len(args) else default


def _bi_define(m4: M4Processor, args: list[str]) -> str:
    if len(args) < 2:
        raise MacroError("define: missing macro name")
    m4.define(_arg(args, 1), _arg(args, 2))
    return ""


def _bi_undefine(m4: M4Processor, args: list[str]) -> str:
    for name in args[1:]:
        m4.undefine(name)
    return ""


def _bi_pushdef(m4: M4Processor, args: list[str]) -> str:
    if len(args) < 2:
        raise MacroError("pushdef: missing macro name")
    m4.pushdef(_arg(args, 1), _arg(args, 2))
    return ""


def _bi_popdef(m4: M4Processor, args: list[str]) -> str:
    for name in args[1:]:
        m4.popdef(name)
    return ""


def _bi_defn(m4: M4Processor, args: list[str]) -> str:
    body = m4.definition_of(_arg(args, 1))
    if body is None:
        return ""
    return m4.quote(body)


def _bi_ifdef(m4: M4Processor, args: list[str]) -> str:
    if m4.is_defined(_arg(args, 1)):
        return _arg(args, 2)
    return _arg(args, 3)


def _bi_ifelse(m4: M4Processor, args: list[str]) -> str:
    # ifelse(a, b, if-equal [, a2, b2, if-equal2]... [, default])
    rest = args[1:]
    while True:
        if len(rest) <= 2:
            return ""
        if rest[0] == rest[1]:
            return rest[2]
        if len(rest) <= 4:
            return _arg(rest, 3)
        rest = rest[3:]


def _bi_incr(m4: M4Processor, args: list[str]) -> str:
    return str(int(_arg(args, 1, "0") or "0") + 1)


def _bi_decr(m4: M4Processor, args: list[str]) -> str:
    return str(int(_arg(args, 1, "0") or "0") - 1)


def _bi_eval(m4: M4Processor, args: list[str]) -> str:
    return str(eval_expression(_arg(args, 1, "0")))


def _bi_len(m4: M4Processor, args: list[str]) -> str:
    return str(len(_arg(args, 1)))


def _bi_index(m4: M4Processor, args: list[str]) -> str:
    return str(_arg(args, 1).find(_arg(args, 2)))


def _bi_substr(m4: M4Processor, args: list[str]) -> str:
    text = _arg(args, 1)
    try:
        start = int(_arg(args, 2, "0") or "0")
    except ValueError as exc:
        raise MacroError(f"substr: bad start {_arg(args, 2)!r}") from exc
    if len(args) > 3 and args[3].strip():
        try:
            length = int(args[3])
        except ValueError as exc:
            raise MacroError(f"substr: bad length {args[3]!r}") from exc
        return text[start:start + length]
    return text[start:]


def _bi_translit(m4: M4Processor, args: list[str]) -> str:
    text, src, dst = _arg(args, 1), _arg(args, 2), _arg(args, 3)
    src = _expand_ranges(src)
    dst = _expand_ranges(dst)
    table: dict[int, int | None] = {}
    for i, ch in enumerate(src):
        if ch in table:
            continue
        table[ord(ch)] = ord(dst[i]) if i < len(dst) else None
    return text.translate(table)


def _expand_ranges(spec: str) -> str:
    """Expand ``a-z`` style ranges in a translit character set."""
    out: list[str] = []
    i = 0
    while i < len(spec):
        if i + 2 < len(spec) and spec[i + 1] == "-":
            lo, hi = ord(spec[i]), ord(spec[i + 2])
            step = 1 if hi >= lo else -1
            out.extend(chr(c) for c in range(lo, hi + step, step))
            i += 3
        else:
            out.append(spec[i])
            i += 1
    return "".join(out)


class _DnlMarker:
    """Unique sentinel returned by the dnl builtin (see _invoke)."""


_DNL = _DnlMarker()


def _bi_dnl(m4: M4Processor, args: list[str]) -> _DnlMarker:
    # The engine's _invoke recognises this sentinel and discards input
    # through the next newline (builtins have no reader access).
    return _DNL


def _bi_changequote(m4: M4Processor, args: list[str]) -> str:
    m4._set_quotes(_arg(args, 1, "`") or "`", _arg(args, 2, "'") or "'")
    return ""


def _bi_divert(m4: M4Processor, args: list[str]) -> str:
    text = _arg(args, 1, "0").strip() or "0"
    try:
        n = int(text)
    except ValueError as exc:
        raise MacroError(f"divert: bad diversion {text!r}") from exc
    if n < -1 or n > 9:
        raise MacroError(f"divert: diversion {n} out of range [-1, 9]")
    m4._current_diversion = n
    return ""


def _bi_undivert(m4: M4Processor, args: list[str]) -> str:
    if len(args) > 1 and any(a.strip() for a in args[1:]):
        numbers = [int(a) for a in args[1:] if a.strip()]
    else:
        numbers = sorted(m4._diversions)
    out: list[str] = []
    for n in numbers:
        out.extend(m4._diversions.pop(n, []))
    # Undiverted text is NOT rescanned in m4; emit it via a quote so the
    # rescan treats it as literal text.
    return m4.quote("".join(out)) if out else ""


def _bi_divnum(m4: M4Processor, args: list[str]) -> str:
    return str(m4._current_diversion)


def _bi_include(m4: M4Processor, args: list[str]) -> str:
    name = _arg(args, 1)
    if name not in m4._includes:
        raise MacroError(f"include: unknown file {name!r}")
    return m4._includes[name]


def _bi_shift(m4: M4Processor, args: list[str]) -> str:
    rest = args[2:]
    return ",".join(m4.quote(a) for a in rest)


def _bi_errprint(m4: M4Processor, args: list[str]) -> str:
    import sys
    print(",".join(args[1:]), file=sys.stderr)
    return ""


def _bi_m4exit(m4: M4Processor, args: list[str]) -> str:
    raise MacroError(f"m4exit called with status {_arg(args, 1, '0')}")
