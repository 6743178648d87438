"""Frontend tests: reader, parser shapes, evaluator, errors, and the CLI.

The error tests pin the contract the issue asks for: malformed .egg input
raises :class:`repro.errors.ReproError` subclasses carrying 1-based
line/column positions.
"""

import pytest

from repro.core.values import boolean, f64, i64, rational, string
from repro.errors import ReproError
from repro.frontend import (
    ArityError,
    EvalError,
    Evaluator,
    FrontendError,
    Literal,
    ParseError,
    SList,
    SortError,
    Symbol,
    UnboundSymbolError,
    UnknownCommandError,
    format_term,
    format_value,
    parse_sexps,
    run_program,
)
from repro.frontend.cli import main as cli_main


def fail_with(text, error_type):
    with pytest.raises(error_type) as info:
        run_program(text, "test.egg")
    error = info.value
    assert isinstance(error, ReproError)
    assert isinstance(error, FrontendError)
    assert error.line is not None and error.col is not None
    assert f"{error.line}:{error.col}" in str(error)
    return error


# -- reader -------------------------------------------------------------------


def test_reader_literals_and_symbols():
    nodes = parse_sexps('(f 1 -2 3.5 "hi" true false x)')
    (call,) = nodes
    assert isinstance(call, SList)
    head, *args = call.items
    assert isinstance(head, Symbol) and head.name == "f"
    assert [a.value for a in args[:6] if isinstance(a, Literal)] == [
        i64(1), i64(-2), f64(3.5), string("hi"), boolean(True), boolean(False),
    ]
    assert isinstance(args[6], Symbol) and args[6].name == "x"


def test_reader_tracks_positions():
    first, second = parse_sexps("(a)\n  (b c)")
    assert (first.loc.line, first.loc.col) == (1, 1)
    assert (second.loc.line, second.loc.col) == (2, 3)
    inner = second.items[0]
    assert (inner.loc.line, inner.loc.col) == (2, 4)


def test_reader_comments_and_brackets():
    nodes = parse_sexps("; leading comment\n(a [b c] ; trailing\n d)")
    (call,) = nodes
    assert len(call.items) == 3
    assert isinstance(call.items[1], SList)


def test_reader_string_escapes():
    (lit,) = parse_sexps(r'"a\"b\\c\nd"')
    assert lit.value == string('a"b\\c\nd')
    assert format_value(lit.value) == r'"a\"b\\c\nd"'


def test_unbalanced_open_paren():
    error = fail_with("(relation r (i64))\n(foo (bar", ParseError)
    assert error.line == 2 and error.col == 6
    assert "unclosed" in str(error)


def test_stray_close_paren():
    error = fail_with("(sort S))", ParseError)
    assert "unmatched" in str(error)
    assert error.line == 1 and error.col == 9


def test_mismatched_delimiters():
    fail_with("(sort S]", ParseError)


def test_unterminated_string():
    error = fail_with('(check (= "abc', ParseError)
    assert "unterminated" in str(error)


def test_bad_string_escape():
    fail_with(r'(check (= "a\qb" "x"))', ParseError)


# -- parser shapes ------------------------------------------------------------


def test_unknown_command():
    error = fail_with("(sort S)\n  (frobnicate 1 2)", UnknownCommandError)
    assert error.line == 2 and error.col == 4
    assert "frobnicate" in str(error)


def test_unknown_option_rejected():
    fail_with("(function f (i64) i64 :frobnicate 3)", ParseError)


def test_option_without_value_rejected():
    fail_with("(function f (i64) i64 :merge)", ParseError)


def test_wrong_positional_count():
    fail_with("(sort)", ParseError)
    fail_with("(sort A B)", ParseError)
    fail_with("(extract)", ParseError)
    fail_with("(run)", ParseError)


def test_run_limit_must_be_positive_integer():
    fail_with("(run 0)", ParseError)
    fail_with('(run "lots")', ParseError)


def test_check_needs_a_fact():
    fail_with("(check)", ParseError)


def test_top_level_non_list_rejected():
    fail_with("42", ParseError)


# -- evaluator errors ---------------------------------------------------------


def test_arity_mismatch():
    error = fail_with("(relation edge (i64 i64))\n(edge 1)", ArityError)
    assert error.line == 2
    assert "expects 2 argument(s), got 1" in str(error)


def test_arity_mismatch_inside_rule():
    fail_with(
        "(relation edge (i64 i64))\n(rule ((edge x)) ((edge x x)))", ArityError
    )


def test_undeclared_sort():
    error = fail_with("(function f (NoSuch) i64)", SortError)
    assert "NoSuch" in str(error)
    fail_with("(relation r (Missing))", SortError)
    fail_with("(datatype D (Mk Missing))", SortError)


def test_literal_sort_mismatch():
    error = fail_with('(relation r (i64))\n(r "oops")', SortError)
    assert "expected a i64" in str(error)


def test_literal_coercion_int_to_f64_and_rational():
    lines = run_program(
        "(function f (f64) f64)\n(set (f 1) 2.5)\n(check (= (f 1.0) 2.5))\n"
        "(function g (Rational) Rational)\n(set (g 1) (rational 3 2))\n"
        "(check (= (g (rational 1 1)) (rational 3 2)))"
    )
    assert lines == ["check: ok (1 match(es))", "check: ok (1 match(es))"]


def test_unbound_symbol_in_ground_context():
    error = fail_with("(let a b)", UnboundSymbolError)
    assert "'b'" in str(error)
    fail_with("(extract nope)", UnboundSymbolError)


def test_unknown_function_in_expression():
    fail_with("(check (nosuchfn 1))", UnboundSymbolError)


def test_duplicate_global_rejected():
    fail_with("(let a 1)\n(let a 2)", EvalError)


def test_check_failure_has_location():
    error = fail_with("(relation r (i64))\n(check (r 1))", EvalError)
    assert error.line == 2
    assert "check failed" in str(error)


def test_rewrite_unbound_rhs_variable():
    fail_with("(sort S)\n(function f (S) S)\n(rewrite (f x) (f y))", EvalError)


def test_birewrite_checks_both_directions():
    # x appears only on the lhs, so the reversed direction is unbound.
    fail_with(
        "(sort S)\n(function f (S S) S)\n(function g (S) S)\n"
        "(birewrite (f x y) (g y))",
        EvalError,
    )


def test_merge_expression_must_be_primitive():
    fail_with(
        "(function f (i64) i64)\n(function g (i64) i64 :merge (f old))", EvalError
    )
    fail_with("(function f (i64) i64 :merge (min old wrong))", EvalError)


def test_default_expression_must_be_ground():
    fail_with("(function f (i64) i64 :default (+ x 1))", EvalError)


def test_pop_without_push():
    fail_with("(pop)", EvalError)
    fail_with("(push)\n(pop 2)", EvalError)


def test_set_on_primitive_rejected():
    fail_with("(set (+ 1 2) 3)", EvalError)


def test_unknown_ruleset_reported_with_location():
    error = fail_with("(run 1 :ruleset nope)", EvalError)
    assert "nope" in str(error)


# -- evaluator behavior -------------------------------------------------------


def test_function_default_used_on_lookup():
    lines = run_program(
        "(function count (String) i64 :default 0)\n"
        "(let c (count \"k\"))\n(check (= (count \"k\") 0))"
    )
    assert lines == ["check: ok (1 match(es))"]


def test_merge_expression_max():
    lines = run_program(
        "(function best (String) i64 :merge (max old new))\n"
        '(set (best "a") 1)\n(set (best "a") 5)\n(set (best "a") 3)\n'
        '(check (= (best "a") 5))'
    )
    assert lines == ["check: ok (1 match(es))"]


def test_delete_removes_row():
    evaluator = Evaluator()
    evaluator.run_program(
        "(relation r (i64))\n(r 1)\n(check (r 1))\n(delete (r 1))"
    )
    with pytest.raises(EvalError):
        evaluator.run_program("(check (r 1))")


def test_push_pop_restores_globals_and_rules():
    evaluator = Evaluator()
    evaluator.run_program(
        "(datatype N (Z) (S N))\n(push)\n(let one (S (Z)))\n(pop)"
    )
    assert "one" not in evaluator.globals
    assert not evaluator.egraph.rules or True
    # Rules added inside the scope are gone too:
    evaluator.run_program("(push)\n(rewrite (S x) x)\n(pop)")
    assert evaluator.egraph.rules == {}


def test_rulesets_run_independently():
    lines = run_program(
        "(relation r (i64))\n(relation s (i64))\n(r 1)\n"
        "(rule ((r x)) ((s x)) :ruleset aux)\n"
        "(run 5)\n(run 5 :ruleset aux)\n(check (s 1))"
    )
    assert lines[-1] == "check: ok (1 match(es))"


def test_datatype_costs_drive_extraction():
    lines = run_program(
        "(datatype E (Cheap) (Costly :cost 10))\n"
        "(union (Cheap) (Costly))\n(extract (Costly))"
    )
    assert lines == ["extract: (Cheap) (cost 1)"]


def test_panic_action():
    from repro.engine.errors import EGraphPanic

    # The panic surfaces as a located frontend error, chained to the engine's.
    error = fail_with(
        '(relation r (i64))\n(r 1)\n(rule ((r x)) ((panic "boom")))\n(run 1)',
        EvalError,
    )
    assert "boom" in str(error)
    assert isinstance(error.__cause__, EGraphPanic)


def test_format_term_round_trips_through_reader():
    lines = run_program(
        '(datatype M (Num i64) (Str String) (Pair M M))\n'
        '(let p (Pair (Num -3) (Str "a\\"b")))\n(extract p)'
    )
    assert lines == ['extract: (Pair (Num -3) (Str "a\\"b")) (cost 3)']
    # And the printed term parses back cleanly.
    (reparsed,) = parse_sexps('(Pair (Num -3) (Str "a\\"b"))')
    assert isinstance(reparsed, SList)


def test_format_value_rational_and_unit():
    assert format_value(rational(7, 2)) == "(rational 7 2)"
    from repro.core.values import UNIT_VALUE

    assert format_value(UNIT_VALUE) == "()"
    from repro.core.terms import App, L

    assert format_term(App("f", L(1), L("s"))) == '(f 1 "s")'


# -- CLI ----------------------------------------------------------------------


def test_cli_runs_file(tmp_path, capsys):
    program = tmp_path / "ok.egg"
    program.write_text("(relation r (i64))\n(r 7)\n(check (r 7))\n")
    assert cli_main([str(program)]) == 0
    captured = capsys.readouterr()
    assert "check: ok (1 match(es))" in captured.out


def test_cli_reports_error_with_position(tmp_path, capsys):
    program = tmp_path / "bad.egg"
    program.write_text("(sort S)\n(frobnicate)\n")
    assert cli_main([str(program)]) == 1
    captured = capsys.readouterr()
    assert f"{program}:2:2" in captured.err
    assert "frobnicate" in captured.err


def test_cli_missing_file(capsys):
    assert cli_main(["/no/such/file.egg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_stats_flag(tmp_path, capsys):
    program = tmp_path / "ok.egg"
    program.write_text("(relation r (i64))\n(r 1)\n(r 2)\n")
    assert cli_main(["--stats", str(program)]) == 0
    assert "r=2" in capsys.readouterr().out


def test_cli_stats_reports_rule_matches_and_phase_timings(tmp_path, capsys):
    program = tmp_path / "ok.egg"
    program.write_text(
        "(relation e (i64 i64))\n(e 1 2)\n(e 2 3)\n(relation p (i64 i64))\n"
        "(rule ((e x y)) ((p x y)) :name copy)\n(run 3)\n"
    )
    assert cli_main(["--stats", str(program)]) == 0
    out = capsys.readouterr().out
    assert "stats: phases: search" in out and "rebuild" in out
    assert "stats: rule matches: copy=2" in out


# -- per-sort literal parsing / coercion (core/values.py) ---------------------


def test_parse_literal_per_sort():
    from fractions import Fraction

    from repro.core.values import (
        BOOL,
        F64,
        I64,
        RATIONAL,
        STRING,
        UNIT,
        UNIT_VALUE,
        parse_literal,
    )

    assert parse_literal(I64, "42") == i64(42)
    assert parse_literal(I64, "0x10") == i64(16)
    assert parse_literal(F64, "2.5") == f64(2.5)
    assert parse_literal(BOOL, "true") == boolean(True)
    assert parse_literal(BOOL, "false") == boolean(False)
    assert parse_literal(STRING, "hi") == string("hi")
    assert parse_literal(RATIONAL, "3/4").data == Fraction(3, 4)
    assert parse_literal(UNIT, "") == UNIT_VALUE
    with pytest.raises(ValueError):
        parse_literal(BOOL, "maybe")
    with pytest.raises(ValueError):
        parse_literal("NoSuchSort", "1")


def test_coerce_literal_widens_but_never_narrows():
    from repro.core.values import F64, I64, RATIONAL, coerce_literal

    assert coerce_literal(i64(3), F64) == f64(3.0)
    assert coerce_literal(i64(3), RATIONAL) == rational(3)
    assert coerce_literal(i64(3), I64) == i64(3)
    assert coerce_literal(f64(3.0), I64) is None       # no narrowing
    assert coerce_literal(string("3"), I64) is None    # no cross-kind guessing
    assert coerce_literal(i64(3), "SomeEqSort") is None


# -- review regressions -------------------------------------------------------


def test_set_value_coerced_to_output_sort():
    # An i64 literal in output position widens to the declared f64/Rational,
    # so a later merge over mixed writes cannot crash on mismatched sorts.
    lines = run_program(
        "(function h (i64) f64 :merge (min old new))\n"
        "(set (h 1) 2.5)\n(set (h 1) 2)\n(check (= (h 1) 2.0))"
    )
    assert lines == ["check: ok (1 match(es))"]
    # Inside rule actions too:
    lines = run_program(
        "(relation r (i64))\n(function p (i64) f64)\n"
        "(rule ((r x)) ((set (p x) 1)))\n(r 7)\n(run 2)\n(check (= (p 7) 1.0))"
    )
    assert lines[-1] == "check: ok (1 match(es))"
    # And a non-coercible output is rejected with a location:
    fail_with('(function q (i64) i64)\n(set (q 1) "no")', SortError)


def test_default_coerced_to_output_sort():
    lines = run_program(
        "(function d (i64) f64 :default 0)\n"
        "(let probe (d 1))\n(check (= (d 1) 0.0))"
    )
    assert lines == ["check: ok (1 match(es))"]
    fail_with('(function e (i64) i64 :default "no")', SortError)


def test_merge_old_new_not_shadowed_by_globals():
    # A global named `old` must not capture the reserved merge variable.
    lines = run_program(
        "(let old 1)\n(let new 2)\n"
        "(function f (i64) i64 :merge (max old new))\n"
        "(set (f 0) 5)\n(set (f 0) 3)\n(check (= (f 0) 5))"
    )
    assert lines == ["check: ok (1 match(es))"]


def test_run_program_returns_only_this_calls_lines():
    evaluator = Evaluator()
    first = evaluator.run_program("(check (= 1 1))")
    second = evaluator.run_program("(check (= 2 2))")
    assert first == ["check: ok (1 match(es))"]
    assert second == ["check: ok (1 match(es))"]
    # No transcript accumulates: a long-lived (served) session keeps only
    # its engine state, never every line every batch printed.
    assert not hasattr(evaluator, "lines")


def test_sexp_literal_str_escapes_strings():
    (lit,) = parse_sexps(r'"a\"b"')
    assert str(lit) == r'"a\"b"'


# -- reader robustness (fuzz) -------------------------------------------------


def test_huge_integer_literal_is_a_parse_error():
    # CPython caps str->int conversion; the reader must surface the cap as
    # a located ParseError, not leak the bare ValueError.
    import sys

    digits = sys.int_info.default_max_str_digits + 100
    with pytest.raises(ParseError) as exc:
        parse_sexps("(f %s)" % ("9" * digits))
    assert "integer literal too large" in str(exc.value)
    assert f"{digits} digits" in str(exc.value)
    # Just under the cap still parses as a literal.
    ok_digits = sys.get_int_max_str_digits() - 1
    (node,) = parse_sexps("1".ljust(ok_digits, "0"))
    assert isinstance(node, Literal)


def _structure(node):
    if isinstance(node, SList):
        return ("list", tuple(_structure(item) for item in node.items))
    if isinstance(node, Literal):
        return ("lit", node.value)
    return ("sym", node.name)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the dev toolchain
    pass
else:

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_reader_total_on_arbitrary_text(text):
        # The reader is total: any input either parses or raises ParseError
        # (never IndexError/ValueError/RecursionError), and every error
        # carries a location.
        try:
            parse_sexps(text)
        except ParseError as exc:
            assert exc.loc is not None
            assert exc.loc.line >= 1 and exc.loc.col >= 1

    _atom_texts = st.one_of(
        st.integers(min_value=-(2**70), max_value=2**70).map(str),
        st.from_regex(r"[a-zA-Z+*/<>=_.!?-][a-zA-Z0-9+*/<>=_.!?-]{0,8}", fullmatch=True),
        st.sampled_from(["true", "false", "3.5", "-0.25", "1e-3", '"hi"', '"a\\nb"']),
    )

    _sexp_texts = st.recursive(
        _atom_texts,
        lambda inner: st.lists(inner, max_size=5).map(
            lambda items: "(" + " ".join(items) + ")"
        ),
        max_leaves=25,
    )

    @given(st.lists(_sexp_texts, max_size=6))
    @settings(max_examples=75, deadline=None)
    def test_fuzz_reader_round_trips_well_formed_programs(forms):
        text = "\n".join(forms)
        nodes = parse_sexps(text)
        assert len(nodes) == len(forms)
        # Re-rendering each node and re-parsing preserves the structure.
        rendered = " ".join(str(node) for node in nodes)
        again = parse_sexps(rendered)
        assert [_structure(n) for n in again] == [_structure(n) for n in nodes]
