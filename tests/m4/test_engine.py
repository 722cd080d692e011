"""Unit tests for the m4-style macro engine."""

import pytest

from repro.m4 import M4Options, M4Processor, MacroError


@pytest.fixture()
def m4():
    return M4Processor()


class TestPlainText:
    def test_passthrough(self, m4):
        assert m4.process("hello world\n") == "hello world\n"

    def test_empty(self, m4):
        assert m4.process("") == ""

    def test_non_macro_words(self, m4):
        assert m4.process("DO 10 I = 1, N") == "DO 10 I = 1, N"

    def test_undefined_word_with_parens(self, m4):
        assert m4.process("f(x)") == "f(x)"


class TestDefine:
    def test_simple_define(self, m4):
        assert m4.process("define(`a', `b')a") == "b"

    def test_define_via_api(self, m4):
        m4.define("pi", "3.14159")
        assert m4.process("x = pi") == "x = 3.14159"

    def test_no_expansion_inside_word(self, m4):
        m4.define("a", "b")
        assert m4.process("banana") == "banana"

    def test_redefine_replaces(self, m4):
        m4.define("a", "1")
        m4.define("a", "2")
        assert m4.process("a") == "2"

    def test_undefine(self, m4):
        m4.define("a", "1")
        m4.undefine("a")
        assert m4.process("a") == "a"

    def test_define_empty_body(self, m4):
        m4.define("nothing", "")
        # 'xnothing' is a single token: not expanded. Bare 'nothing' is.
        assert m4.process("xnothing nothing x") == "xnothing  x"

    def test_rescan_of_expansion(self, m4):
        m4.define("a", "b")
        m4.define("b", "c")
        assert m4.process("a") == "c"

    def test_invalid_name_rejected(self, m4):
        with pytest.raises(MacroError):
            m4.define("9bad", "x")
        with pytest.raises(MacroError):
            m4.define("has space", "x")

    def test_define_from_source_text(self, m4):
        out = m4.process("define(`greet', `hello $1')greet(world)")
        assert out == "hello world"


class TestPushdefPopdef:
    def test_pushdef_shadows(self, m4):
        m4.define("a", "1")
        m4.pushdef("a", "2")
        assert m4.process("a") == "2"
        m4.popdef("a")
        assert m4.process("a") == "1"

    def test_popdef_removes_last(self, m4):
        m4.pushdef("a", "1")
        m4.popdef("a")
        assert m4.process("a") == "a"

    def test_popdef_undefined_is_noop(self, m4):
        m4.popdef("never_defined")
        assert m4.process("ok") == "ok"

    def test_pushdef_from_source(self, m4):
        out = m4.process(
            "define(`x', `one')pushdef(`x', `two')x popdef(`x')x")
        assert out == "two one"


class TestArguments:
    def test_positional(self, m4):
        m4.define("pair", "($1, $2)")
        assert m4.process("pair(a, b)") == "(a, b)"

    def test_missing_args_empty(self, m4):
        m4.define("three", "[$1|$2|$3]")
        assert m4.process("three(x)") == "[x||]"

    def test_dollar_zero_is_name(self, m4):
        # $0 must be quoted in the body or the rescan recurses (as in m4).
        m4.define("whoami", "I am `$0'")
        assert m4.process("whoami") == "I am whoami"

    def test_arg_count(self, m4):
        m4.define("count", "$#")
        assert m4.process("count(a, b, c)") == "3"
        assert m4.process("count(a)") == "1"
        assert m4.process("count") == "0"

    def test_star_joins(self, m4):
        m4.define("all", "$*")
        assert m4.process("all(a, b, c)") == "a,b,c"

    def test_at_quotes(self, m4):
        m4.define("q", "$@")
        m4.define("id", "[$1][$2]")
        # $@ re-quotes each argument, protecting commas on rescan.
        assert m4.process("q(a, b)") == "a,b"

    def test_leading_whitespace_stripped(self, m4):
        m4.define("one", "<$1>")
        assert m4.process("one(   spaced )") == "<spaced >"

    def test_nested_parens_in_args(self, m4):
        m4.define("one", "<$1>")
        assert m4.process("one(f(a, b))") == "<f(a, b)>"

    def test_args_are_expanded(self, m4):
        m4.define("inner", "INNER")
        m4.define("outer", "[$1]")
        assert m4.process("outer(inner)") == "[INNER]"

    def test_single_quoted_arg_expands_on_rescan(self, m4):
        # As in m4: one quote level protects collection, but the
        # substituted body is rescanned, expanding the bare name.
        m4.define("inner", "INNER")
        m4.define("outer", "[$1]")
        assert m4.process("outer(`inner')") == "[INNER]"

    def test_double_quoted_arg_stays_literal(self, m4):
        m4.define("inner", "INNER")
        m4.define("outer", "[$1]")
        assert m4.process("outer(``inner'')") == "[inner]"

    def test_macro_without_parens_gets_no_args(self, m4):
        m4.define("m", "<$#>")
        assert m4.process("m (x)") == "<0> (x)"


class TestQuoting:
    def test_quotes_stripped(self, m4):
        assert m4.process("`hello'") == "hello"

    def test_quote_protects_macro(self, m4):
        m4.define("a", "b")
        assert m4.process("`a'") == "a"

    def test_nested_quotes_keep_one_level(self, m4):
        assert m4.process("``a''") == "`a'"

    def test_unbalanced_quote_raises(self, m4):
        with pytest.raises(MacroError, match="EOF inside quoted string"):
            m4.process("`abc")

    def test_changequote(self, m4):
        m4.define("a", "b")
        out = m4.process("changequote([, ])[a] a")
        assert out == "a b"

    def test_changequote_back(self, m4):
        out = m4.process("changequote([, ])changequote(`, ')`x'")
        assert out == "x"


class TestIfelse:
    def test_equal(self, m4):
        assert m4.process("ifelse(a, a, yes, no)") == "yes"

    def test_unequal(self, m4):
        assert m4.process("ifelse(a, b, yes, no)") == "no"

    def test_no_default(self, m4):
        assert m4.process("ifelse(a, b, yes)") == ""

    def test_chained(self, m4):
        src = "ifelse(x, a, one, x, b, two, x, x, three, other)"
        assert m4.process(src) == "three"

    def test_chained_default(self, m4):
        src = "ifelse(x, a, one, x, b, two, fallback)"
        assert m4.process(src) == "fallback"

    def test_result_rescanned(self, m4):
        m4.define("hit", "HIT")
        assert m4.process("ifelse(1, 1, hit)") == "HIT"


class TestIfdef:
    def test_defined(self, m4):
        m4.define("flag", "")
        assert m4.process("ifdef(`flag', yes, no)") == "yes"

    def test_undefined(self, m4):
        assert m4.process("ifdef(`flag', yes, no)") == "no"

    def test_undefined_no_else(self, m4):
        assert m4.process("ifdef(`flag', yes)") == ""


class TestArithmetic:
    def test_incr_decr(self, m4):
        assert m4.process("incr(41)") == "42"
        assert m4.process("decr(43)") == "42"

    def test_eval_basic(self, m4):
        assert m4.process("eval(2 + 3 * 4)") == "14"

    def test_eval_parens(self, m4):
        assert m4.process("eval((2 + 3) * 4)") == "20"

    def test_eval_comparison(self, m4):
        assert m4.process("eval(3 > 2)") == "1"
        assert m4.process("eval(3 < 2)") == "0"

    def test_eval_logical(self, m4):
        assert m4.process("eval(1 && 0)") == "0"
        assert m4.process("eval(1 || 0)") == "1"
        assert m4.process("eval(!0)") == "1"

    def test_eval_division_truncates_toward_zero(self, m4):
        assert m4.process("eval(-7 / 2)") == "-3"
        assert m4.process("eval(7 / 2)") == "3"

    def test_eval_division_by_zero(self, m4):
        with pytest.raises(MacroError):
            m4.process("eval(1 / 0)")

    def test_eval_power(self, m4):
        assert m4.process("eval(2 ** 10)") == "1024"

    def test_eval_shifts_and_bits(self, m4):
        assert m4.process("eval(1 << 4)") == "16"
        assert m4.process("eval(6 & 3)") == "2"
        assert m4.process("eval(6 | 3)") == "7"
        assert m4.process("eval(6 ^ 3)") == "5"

    def test_eval_hex_and_octal(self, m4):
        assert m4.process("eval(0x10)") == "16"
        assert m4.process("eval(010)") == "8"

    def test_counter_idiom(self, m4):
        # The label-generation idiom used by the Force macro library.
        src = ("define(`cnt', 0)"
               "define(`bump', `define(`cnt', incr(cnt))cnt')"
               "bump bump bump")
        assert m4.process(src) == "1 2 3"


class TestStringBuiltins:
    def test_len(self, m4):
        assert m4.process("len(abcdef)") == "6"
        assert m4.process("len()") == "0"

    def test_index_found(self, m4):
        assert m4.process("index(`hello', `ll')") == "2"

    def test_index_missing(self, m4):
        assert m4.process("index(`hello', `z')") == "-1"

    def test_substr(self, m4):
        assert m4.process("substr(`hello', 1, 3)") == "ell"
        assert m4.process("substr(`hello', 2)") == "llo"

    def test_translit_upcase(self, m4):
        assert m4.process("translit(`force', a-z, A-Z)") == "FORCE"

    def test_translit_delete(self, m4):
        assert m4.process("translit(`a b c', ` ')") == "abc"


class TestDnl:
    def test_dnl_eats_line_tail(self, m4):
        assert m4.process("keep dnl gone\nnext") == "keep next"

    def test_dnl_at_eof(self, m4):
        assert m4.process("x dnl trailing") == "x "

    def test_define_dnl_idiom(self, m4):
        out = m4.process("define(`a', `b')dnl\na")
        assert out == "b"


class TestDiversions:
    def test_divert_discard(self, m4):
        out = m4.process("visible divert(-1) hidden divert(0) back")
        assert "hidden" not in out
        assert "visible" in out and "back" in out

    def test_divert_and_undivert(self, m4):
        out = m4.process("divert(1)stored divert(0)main undivert(1)")
        assert out.replace(" ", "") == "mainstored"

    def test_divnum(self, m4):
        assert m4.process("divnum") == "0"

    def test_bad_diversion(self, m4):
        with pytest.raises(MacroError):
            m4.process("divert(99)")

    def test_undiverted_text_not_rescanned(self, m4):
        m4.define("boom", "EXPANDED")
        out = m4.process("divert(1)boom divert(0)undivert(1)")
        # 'boom' was expanded when diverted, stored text comes back raw.
        assert "EXPANDED" in out


class TestDefn:
    def test_defn_returns_quoted_body(self, m4):
        m4.define("a", "body")
        assert m4.process("defn(`a')") == "body"

    def test_defn_rename_idiom(self, m4):
        out = m4.process(
            "define(`old', `VALUE')"
            "define(`new', defn(`old'))"
            "undefine(`old')new old")
        assert out == "VALUE old"

    def test_defn_undefined(self, m4):
        assert m4.process("defn(`missing')") == ""


class TestShiftInclude:
    def test_shift(self, m4):
        m4.define("rest", "shift($@)")
        assert m4.process("rest(a, b, c)") == "b,c"

    def test_include(self, m4):
        m4.add_include("defs", "define(`z', `26')")
        assert m4.process("include(`defs')z") == "26"

    def test_include_unknown(self, m4):
        with pytest.raises(MacroError):
            m4.process("include(`nope')")


class TestRobustness:
    def test_runaway_recursion_caught(self, m4):
        m4.define("loop", "loop loop")
        with pytest.raises(MacroError):
            m4.process("loop")

    def test_eof_in_args(self, m4):
        m4.define("f", "$1")
        with pytest.raises(MacroError,
                           match="EOF while collecting macro arguments"):
            m4.process("f(unclosed")

    def test_load_definitions_ok(self, m4):
        m4.load_definitions("define(`a', `1')dnl\ndefine(`b', `2')dnl\n")
        assert m4.process("a b") == "1 2"

    def test_load_definitions_residue_raises(self, m4):
        with pytest.raises(MacroError):
            m4.load_definitions("define(`a', `1') stray text")

    def test_multiline_bodies(self, m4):
        m4.define("block", "line one\n      line two")
        out = m4.process("block")
        assert out == "line one\n      line two"

    def test_definitions_persist_across_process_calls(self, m4):
        m4.process("define(`a', `1')")
        assert m4.process("a") == "1"


def _limited(**limits):
    return M4Processor(M4Options(**limits))


class TestLimits:
    def test_self_reinvoking_macro_hits_iteration_limit(self):
        m4 = _limited(max_iterations=1000)
        m4.define("again", "again")
        with pytest.raises(MacroError, match="scan iteration limit exceeded"):
            m4.process("again")

    def test_growing_recursion_hits_pending_limit(self):
        m4 = _limited(max_pending=500)
        m4.define("loop", "loop loop")
        with pytest.raises(MacroError,
                           match=r"pending input limit exceeded \(runaway"):
            m4.process("loop")

    def test_plain_text_hits_output_limit(self):
        m4 = _limited(max_output=50)
        with pytest.raises(MacroError, match="output size limit exceeded"):
            m4.process("1234567890 " * 10)

    def test_expansion_hits_output_limit(self):
        m4 = _limited(max_output=50)
        m4.define("ten", "0123456789")
        with pytest.raises(MacroError, match="output size limit exceeded"):
            m4.process("ten " * 10)

    def test_output_at_the_limit_passes(self):
        m4 = _limited(max_output=50)
        assert m4.process("x" * 50) == "x" * 50

    def test_livelock_inside_arguments_hits_iteration_limit(self):
        m4 = _limited(max_iterations=1000)
        m4.define("again", "again")
        m4.define("f", "$1")
        with pytest.raises(MacroError, match="iteration limit exceeded "
                                             "while collecting"):
            m4.process("f(again)")

    def test_recursion_inside_arguments_hits_pending_limit(self):
        m4 = _limited(max_pending=500)
        m4.define("loop", "loop loop")
        m4.define("f", "$1")
        with pytest.raises(MacroError, match="pending input limit exceeded "
                                             "while collecting"):
            m4.process("f(loop)")


class TestEndOfInput:
    def test_eof_inside_nested_quote(self, m4):
        with pytest.raises(MacroError, match="EOF inside quoted string"):
            m4.process("``inner' only one level closed")

    def test_eof_inside_quoted_argument(self, m4):
        m4.define("f", "$1")
        with pytest.raises(MacroError, match="EOF inside quoted string"):
            m4.process("f(`open)")

    def test_eof_inside_nested_parentheses(self, m4):
        m4.define("f", "$1")
        with pytest.raises(MacroError,
                           match="EOF while collecting macro arguments"):
            m4.process("f(a, (b)")

    def test_eof_after_comma_while_collecting(self, m4):
        m4.define("f", "$1")
        with pytest.raises(MacroError,
                           match="EOF while collecting macro arguments"):
            m4.process("f(a,   \n")


class TestPushbackFrames:
    """Items that begin in an expansion and end in the text after it."""

    def test_quote_opened_by_expansion(self, m4):
        m4.define("lq", "`")
        m4.define("b", "B")
        assert m4.process("lq b' b") == " b B"

    def test_quote_closed_by_expansion(self, m4):
        m4.define("f", "[$1]")
        m4.define("rq", "'")
        # The argument's quote opens in the input and the close quote
        # comes from nowhere else: EOF inside the quoted string.
        with pytest.raises(MacroError, match="EOF inside quoted string"):
            m4.process("f(`a rq)")

    def test_word_continues_past_expansion(self, m4):
        m4.define("pre", "na")
        m4.define("name", "NAME")
        assert m4.process("pre()me") == "NAME"

    def test_arguments_opened_by_expansion(self, m4):
        m4.define("call", "one(")
        m4.define("one", "<$1|$2>")
        assert m4.process("call  x, y) tail") == "<x|y> tail"

    def test_argument_separator_from_expansion(self, m4):
        m4.define("comma", ",")
        m4.define("two", "<$1|$2>")
        assert m4.process("two(a comma b)") == "<a |b>"

    def test_quoted_argument_spans_frames(self, m4):
        m4.define("lq", "`")
        m4.define("one", "<$1>")
        m4.define("b", "B")
        # One quote level is stripped; the body is rescanned (as in m4).
        assert m4.process("one(lq b, c')") == "< B, c>"

    def test_dnl_line_spans_frames(self, m4):
        m4.define("eat", "dnl x")
        assert m4.process("a eat rest\nb") == "a b"


class TestLiteralRuns:
    def test_digit_then_word_expands_word(self, m4):
        m4.define("x", "X")
        assert m4.process("1x") == "1X"

    def test_word_with_trailing_digit_is_one_word(self, m4):
        m4.define("x", "X")
        assert m4.process("x1 x") == "x1 X"

    def test_quote_splits_words(self, m4):
        for name in "abc":
            m4.define(name, name.upper())
        assert m4.process("a`b'c") == "AbC"

    def test_close_quote_outside_quotes_is_literal(self, m4):
        assert m4.process("it's 12+3=15;") == "it's 12+3=15;"

    def test_punctuation_runs_around_macros(self, m4):
        m4.define("v", "7")
        assert m4.process("(v, v)*[v]-{v}") == "(7, 7)*[7]-{7}"

    def test_dollar_references_in_body(self, m4):
        m4.define("f", "$$1 $# $* $@ $9 $")
        m4.define("g", "<$1>")
        assert m4.process("f(a, b)") == "$a 2 a,b a,b  $"


class TestMultiCharacterQuotes:
    def test_quotes_strip_one_level(self, m4):
        m4.define("a", "A")
        assert m4.process("changequote(<<, >>)<<a>> a") == "a A"

    def test_lone_first_character_is_literal(self, m4):
        m4.define("b", "B")
        assert m4.process("changequote(<<, >>)<b < >b>") == "<B < >B>"

    def test_nested_quotes(self, m4):
        assert m4.process("changequote(<<, >>)<<<<x>> y>>") == "<<x>> y"

    def test_quoted_argument(self, m4):
        m4.define("a", "A")
        m4.define("one", "[$1]")
        out = m4.process("changequote(<<, >>)one(<<<<a>>, <b>>)")
        assert out == "[a, <b]"

    def test_open_quote_spans_frames(self, m4):
        m4.define("a", "A")
        m4.define("half", "<")
        assert m4.process("changequote(<<, >>)half()<a>> a") == "a A"

    def test_eof_inside_multi_character_quote(self, m4):
        with pytest.raises(MacroError, match="EOF inside quoted string"):
            m4.process("changequote(<<, >>)<<never >")

    def test_single_character_quotes_other_than_default(self, m4):
        m4.define("a", "A")
        assert m4.process("changequote([, ])[a, [a]] a'`") == "a, [a] A'`"


class TestClone:
    def test_clone_matches_original(self, m4):
        m4.process("define(`a', `1')pushdef(`a', `2')divert(2)kept`'"
                   "divert(0)changequote([, ])")
        twin = m4.clone()
        assert twin.process("a [a] undivert(2)") == "2 a kept"

    def test_clone_writes_do_not_reach_original(self, m4):
        m4.define("a", "1")
        twin = m4.clone()
        twin.process("define(`a', `X')pushdef(`a', `Y')define(`new', `N')"
                     "divert(3)hidden divert(1)changequote([, ])")
        assert m4.process("a new `q' divnum undivert(3)") == "1 new q 0 "

    def test_original_writes_do_not_reach_clone(self, m4):
        m4.define("a", "1")
        twin = m4.clone()
        m4.process("popdef(`a')undefine(`define')")
        assert twin.process("define(`b', `2')a b") == "1 2"

    def test_clone_keeps_includes_and_options(self):
        m4 = _limited(max_output=5)
        m4.add_include("defs", "define(`z', `26')")
        twin = m4.clone()
        assert twin.process("include(`defs')z") == "26"
        with pytest.raises(MacroError, match="output size"):
            twin.process("123456")
