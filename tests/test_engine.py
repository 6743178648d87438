"""End-to-end engine tests: fixpoints, rebuilding, merges, actions, extraction."""

import pytest

from repro.core.terms import App, L, V, format_term
from repro.core.values import I64, STRING, i64
from repro.engine import (
    CheckError,
    Delete,
    EGraph,
    EGraphError,
    EGraphPanic,
    Expr,
    Let,
    MergeError,
    Panic,
    Rule,
    Set,
    eq,
    rewrite,
)
from repro.engine.actions import run_actions

from .conftest import EXECUTORS, forced_executor


def path_engine():
    eg = EGraph()
    eg.relation("edge", (I64, I64))
    eg.function("path", (I64, I64), I64, merge="min")
    eg.add_rule(
        Rule(
            name="base",
            facts=[App("edge", V("x"), V("y"))],
            actions=[Set(App("path", V("x"), V("y")), L(1))],
        )
    )
    eg.add_rule(
        Rule(
            name="step",
            facts=[eq(V("d"), App("path", V("x"), V("y"))), App("edge", V("y"), V("z"))],
            actions=[Set(App("path", V("x"), V("z")), App("+", V("d"), L(1)))],
        )
    )
    return eg


def test_path_reaches_fixpoint_with_min_merge(executor):
    eg = path_engine()
    for a, b in [(1, 2), (2, 3), (3, 4), (1, 3)]:
        eg.add(App("edge", a, b))
    report = eg.run(limit=50)
    assert report.saturated
    assert report.iterations < 50
    # min merge: the 1->3 shortcut beats 1->2->3->4.
    assert eg.lookup(App("path", 1, 4)) == i64(2)
    assert eg.lookup(App("path", 1, 3)) == i64(1)
    assert eg.lookup(App("path", 1, 5)) is None
    # Re-running a saturated engine changes nothing.
    again = eg.run(limit=5)
    assert again.saturated and again.iterations == 1


def test_strategies_compute_identical_path_tables():
    results = []
    for name in EXECUTORS:
        with forced_executor(name):
            eg = path_engine()
            for a, b in [(1, 2), (2, 3), (3, 4), (1, 3), (4, 1)]:
                eg.add(App("edge", a, b))
            eg.run(limit=50)
        results.append(
            sorted(
                ((k[0].data, k[1].data), v.data) for k, v in eg.table_rows("path")
            )
        )
    assert results[0] == results[1]


def math_engine():
    eg = EGraph()
    eg.declare_sort("Math")
    eg.constructor("Num", (I64,), "Math")
    eg.constructor("Var", (STRING,), "Math")
    eg.constructor("Mul", ("Math", "Math"), "Math", cost=4)
    eg.constructor("Shl", ("Math", "Math"), "Math", cost=1)
    eg.add_rules(
        rewrite(App("Mul", V("x"), V("y")), App("Mul", V("y"), V("x")), name="comm"),
        rewrite(
            App("Mul", V("x"), App("Num", 2)),
            App("Shl", V("x"), App("Num", 1)),
            name="shl",
        ),
    )
    return eg


def test_rewrite_proves_equivalence_via_check():
    eg = math_engine()
    expr = App("Mul", App("Num", 2), App("Var", "a"))
    target = App("Shl", App("Var", "a"), App("Num", 1))
    eg.add(expr)
    with pytest.raises(CheckError):
        eg.check_equal(expr, target)  # not yet proven
    report = eg.run(limit=10)
    assert report.saturated
    assert eg.check_equal(expr, target)
    assert eg.are_equal(expr, App("Mul", App("Var", "a"), App("Num", 2)))


def test_extraction_returns_the_cheaper_term():
    eg = math_engine()
    expr = App("Mul", App("Num", 2), App("Var", "a"))
    eg.add(expr)
    eg.run(limit=10)
    cost, best = eg.extract_with_cost(expr)
    assert best == App("Shl", App("Var", "a"), App("Num", 1))
    assert cost == 3  # Shl + Var + Num at cost 1 each; the Mul form costs 6
    # Extracting a primitive value is trivial.
    assert eg.extract(L(5)) == L(5)


def test_rebuild_restores_congruence():
    eg = EGraph()
    eg.declare_sort("S")
    eg.constructor("A", (), "S")
    eg.constructor("B", (), "S")
    eg.constructor("f", ("S",), "S")
    fa = eg.add(App("f", App("A")))
    fb = eg.add(App("f", App("B")))
    assert not eg.are_equal(App("f", App("A")), App("f", App("B")))
    eg.union(App("A"), App("B"))
    rounds = eg.rebuild()
    assert rounds >= 1
    # Congruence: a = b  ==>  f(a) = f(b); the two rows collapse into one.
    assert eg.check_equal(App("f", App("A")), App("f", App("B")))
    assert len(eg.tables["f"]) == 1
    assert eg.canonicalize(fa) == eg.canonicalize(fb)
    # Rebuilding again is a no-op.
    assert eg.rebuild() == 0


def test_rebuild_only_touches_dirty_rows():
    eg = EGraph()
    eg.declare_sort("S")
    eg.constructor("A", (), "S")
    eg.constructor("B", (), "S")
    eg.constructor("C", (), "S")
    eg.constructor("f", ("S",), "S")
    eg.add(App("f", App("A")))
    eg.add(App("f", App("B")))
    untouched = eg.add(App("f", App("C")))
    before = eg.tables["f"].get_row((eg.lookup(App("C")),))
    eg.union(App("A"), App("B"))
    eg.timestamp = 7  # repairs must stamp with the current timestamp...
    eg.rebuild()
    # ...but the row in the untouched class keeps its original one.
    after = eg.tables["f"].get_row((eg.canonicalize(eg.lookup(App("C"))),))
    assert after is before and after.timestamp == 0
    assert eg.canonicalize(untouched) == eg.canonicalize(eg.lookup(App("f", App("C"))))
    assert len(eg.tables["f"]) == 2  # f(A)/f(B) merged, f(C) intact


def test_wrong_arity_primitive_fact_fails_match_not_crash():
    eg = EGraph()
    eg.relation("p", (I64,))
    eg.add(App("p", 1))
    eg.add_rule(
        Rule(
            name="bad-arity",
            facts=[App("p", V("x")), App("!=", V("x"), L(1), L(2))],
            actions=[Panic("should never fire")],
        )
    )
    report = eg.run(limit=3)  # must not raise TypeError
    assert report.per_rule_matches["bad-arity"] == 0


def test_rebuild_cascades_through_nested_terms():
    eg = EGraph()
    eg.declare_sort("S")
    eg.constructor("A", (), "S")
    eg.constructor("B", (), "S")
    eg.constructor("f", ("S",), "S")
    eg.add(App("f", App("f", App("A"))))
    eg.add(App("f", App("f", App("B"))))
    eg.union(App("A"), App("B"))
    eg.rebuild()
    assert eg.check_equal(App("f", App("f", App("A"))), App("f", App("f", App("B"))))


def test_merge_error_raises_on_conflict():
    eg = EGraph()
    eg.function("g", (I64,), I64, merge="error")
    run_actions(eg, [Set(App("g", L(1)), L(10))], {})
    # Same value: no conflict.
    run_actions(eg, [Set(App("g", L(1)), L(10))], {})
    with pytest.raises(MergeError):
        run_actions(eg, [Set(App("g", L(1)), L(20))], {})


def test_min_merge_keeps_smaller_value_and_bumps_timestamp():
    eg = EGraph()
    eg.function("g", (I64,), I64, merge="min")
    run_actions(eg, [Set(App("g", L(1)), L(10))], {})
    eg.timestamp = 5
    run_actions(eg, [Set(App("g", L(1)), L(3))], {})
    row = eg.tables["g"].get_row((i64(1),))
    assert row.value == i64(3)
    assert row.timestamp == 5  # updated rows look new to semi-naïve search
    run_actions(eg, [Set(App("g", L(1)), L(7))], {})
    assert eg.tables["g"].get((i64(1),)) == i64(3)


def test_let_delete_and_panic_actions():
    eg = EGraph()
    eg.function("g", (I64,), I64, merge="min")
    subst = run_actions(
        eg,
        [Let("v", App("+", L(2), L(3))), Set(App("g", L(1)), V("v"))],
        {},
    )
    assert subst["v"] == i64(5)
    assert eg.lookup(App("g", 1)) == i64(5)
    run_actions(eg, [Delete(App("g", L(1)))], {})
    assert eg.lookup(App("g", 1)) is None
    with pytest.raises(EGraphPanic, match="impossible"):
        run_actions(eg, [Panic("impossible state")], {})


def test_rulesets_run_independently():
    eg = EGraph()
    eg.relation("p", (I64,))
    eg.relation("q", (I64,))
    eg.relation("r", (I64,))
    eg.add_rule(
        Rule(
            name="p-to-q",
            facts=[App("p", V("x"))],
            actions=[Expr(App("q", V("x")))],
            ruleset="copy-q",
        )
    )
    eg.add_rule(
        Rule(
            name="p-to-r",
            facts=[App("p", V("x"))],
            actions=[Expr(App("r", V("x")))],
            ruleset="copy-r",
        )
    )
    eg.add(App("p", 1))
    eg.run(limit=5, ruleset="copy-q")
    assert eg.lookup(App("q", 1)) is not None
    assert eg.lookup(App("r", 1)) is None  # the other ruleset never ran
    eg.run(limit=5, ruleset="copy-r")
    assert eg.lookup(App("r", 1)) is not None
    with pytest.raises(EGraphError):
        eg.run(ruleset="no-such-ruleset")


def test_check_and_query_on_facts():
    eg = path_engine()
    for a, b in [(1, 2), (2, 3)]:
        eg.add(App("edge", a, b))
    eg.run(limit=10)
    assert eg.check(App("edge", L(1), V("y"))) == 1
    matches = eg.query(eq(V("d"), App("path", V("x"), V("y"))))
    assert {(m["x"].data, m["y"].data, m["d"].data) for m in matches} == {
        (1, 2, 1),
        (2, 3, 1),
        (1, 3, 2),
    }
    with pytest.raises(CheckError):
        eg.check(App("edge", L(9), V("y")))
    # A typo'd function name is an error, not an empty result.
    with pytest.raises(EGraphError, match="unknown symbol"):
        eg.check(App("edgez", L(1), V("y")))
    with pytest.raises(EGraphError, match="unknown symbol"):
        eg.query(App("edgez", V("x"), V("y")))


def test_wrong_arity_atoms_and_terms_are_rejected(executor):
    eg = EGraph()
    eg.relation("edge", (I64, I64))
    eg.function("dist", (I64, I64), I64, merge="min")
    eg.add(App("edge", 1, 2))
    before = eg.stats()
    bad_calls = [
        lambda: eg.check(App("edge", L(1))),
        lambda: eg.query(App("edge", V("x"), V("y"), V("z"))),
        lambda: eg.add(App("edge", 5)),
        lambda: eg.lookup(App("edge", 1, 2, 3)),
        lambda: eg.union(App("edge", 1, 2), App("edge", 1)),
        lambda: eg.add_rule(Rule(name="short-body", facts=[App("edge", V("x"))], actions=[])),
        lambda: eg.add_rule(
            Rule(
                name="short-head",
                facts=[App("edge", V("x"), V("y"))],
                actions=[Expr(App("edge", V("x")))],
            )
        ),
        lambda: eg.add_rule(
            Rule(
                name="short-set",
                facts=[App("edge", V("x"), V("y"))],
                actions=[Set(App("dist", V("x")), L(1))],
            )
        ),
        lambda: eg.add_rule(
            Rule(
                name="long-delete",
                facts=[App("edge", V("x"), V("y"))],
                actions=[Delete(App("edge", V("x"), V("y"), V("y")))],
            )
        ),
    ]
    for call in bad_calls:
        with pytest.raises(EGraphError, match=r"'(edge|dist)' expects 2 argument\(s\), got"):
            call()
    assert eg.stats() == before  # nothing inserted, no rule half-registered
    assert eg.check(App("edge", V("x"), V("y"))) == 1


def test_typoed_symbols_in_actions_rejected_at_registration():
    eg = EGraph()
    eg.relation("edge", (I64, I64))
    with pytest.raises(EGraphError, match="unknown symbol"):
        eg.add_rule(
            Rule(
                name="typo-expr",
                facts=[App("edge", V("x"), V("y"))],
                actions=[Expr(App("egde", V("y"), V("x")))],
            )
        )
    with pytest.raises(EGraphError, match="targets unknown function"):
        eg.add_rule(
            Rule(
                name="typo-set",
                facts=[App("edge", V("x"), V("y"))],
                actions=[Set(App("pathz", V("x"), V("y")), L(1))],
            )
        )
    assert eg.rules == {}  # nothing half-registered


def test_saturation_report_statistics():
    eg = path_engine()
    eg.add(App("edge", 1, 2))
    report = eg.run(limit=10)
    assert report.saturated
    assert report.num_matches >= 1
    assert "base" in report.per_rule_matches
    assert report.total_time >= 0.0
    assert "saturated" in report.summary()


# -- ground terms: one evaluator, no depth limit, pure lookups --------------


def peano_engine():
    eg = EGraph()
    eg.declare_sort("N")
    eg.constructor("Z", (), "N")
    eg.constructor("S", ("N",), "N")
    eg.function("val", ("N",), I64, merge="min")
    eg.function("num", (I64,), "N")
    return eg


def test_a_10000_deep_term_goes_through_every_engine_entry_point():
    eg = peano_engine()
    deep = App("Z")
    for _ in range(10_000):
        deep = App("S", deep)
    value = eg.add(deep)
    assert eg.lookup(deep) == value
    assert eg.lookup(App("S", deep)) is None
    cost, best = eg.extract_with_cost(deep)
    assert cost == 10_001
    text = format_term(best)
    assert text == str(best) == str(deep)
    assert text.startswith("(S (S ") and text.endswith("(Z)" + ")" * 10_000)
    eg.union(App("S", deep), App("Z"))
    assert eg.are_equal(App("S", deep), App("Z"))
    assert eg.extract_with_cost(App("S", deep)) == (1, App("Z"))


def test_lookups_of_an_absent_outer_application_write_nothing():
    eg = peano_engine()
    inner = App("S", App("Z"))
    eg.add(inner)
    eg.union(App("Z"), App("num", 0))
    eg.rebuild()
    before = (eg.updates, eg.stats(), list(eg.uf._parent))
    outer = App("S", inner)
    assert eg.lookup(inner) is not None
    assert eg.lookup(outer) is None
    assert eg.lookup(App("val", outer)) is None
    assert not eg.are_equal(outer, inner)
    assert not eg.are_equal(inner, outer)
    with pytest.raises(EGraphError, match="not in the e-graph"):
        eg.explain(outer, inner)
    assert (eg.updates, eg.stats(), list(eg.uf._parent)) == before


def test_a_failing_primitive_inside_a_lookup_answers_none():
    eg = peano_engine()
    eg.add(App("num", 1))
    before = eg.stats()
    for term in (App("num", App("/", 1, 0)), App("num", App("+", 2**62, 2**62))):
        assert eg.lookup(term) is None
        assert not eg.are_equal(term, App("num", 1))
        with pytest.raises(EGraphError, match="primitive .* failed on"):
            eg.add(term)
    assert eg.stats() == before


def test_a_term_merge_is_declaration_data_compiled_once():
    eg = EGraph()
    merge = App("max", V("old"), V("new"))
    decl = eg.function("best", (I64,), I64, merge=merge)
    assert decl.merge == merge
    run_actions(eg, [Set(App("best", 1), L(3)), Set(App("best", 1), L(7))], {})
    assert eg.lookup(App("best", 1)) == i64(7)
    assert eg.merge_fn(decl) is eg.merge_fn(decl)
    with pytest.raises(EGraphError, match="unknown symbol 'mystery'"):
        eg.function("bad", (I64,), I64, merge=App("mystery", V("old"), V("new")))
    assert "bad" not in eg.decls


# -- push / pop context snapshots --------------------------------------------


def test_push_pop_restores_tables_unions_and_rules():
    eg = path_engine()
    for a, b in [(1, 2), (2, 3)]:
        eg.add(App("edge", a, b))
    eg.run(10)
    rows_before = dict(eg.table_rows("path"))
    rules_before = set(eg.rules)

    eg.push()
    eg.add(App("edge", 3, 4))
    eg.add_rule(
        Rule(name="extra", facts=[App("edge", V("x"), V("y"))], actions=[])
    )
    eg.run(10)
    assert (i64(1), i64(4)) in dict(eg.table_rows("path"))
    assert "extra" in eg.rules

    eg.pop()
    assert dict(eg.table_rows("path")) == rows_before
    assert set(eg.rules) == rules_before
    # The engine keeps working after a pop: rerunning stays saturated.
    assert eg.run(10).saturated


def test_push_pop_undoes_unions_and_new_declarations():
    eg = EGraph()
    eg.declare_sort("S")
    eg.constructor("A", (), "S")
    eg.constructor("B", (), "S")
    eg.add(App("A"))
    eg.add(App("B"))

    eg.push()
    eg.declare_sort("T")
    eg.constructor("C", (), "S")
    eg.union(App("A"), App("B"))
    eg.rebuild()
    assert eg.are_equal(App("A"), App("B"))

    eg.pop()
    assert not eg.are_equal(App("A"), App("B"))
    assert "T" not in eg.sorts
    assert "C" not in eg.decls and "C" not in eg.tables


def test_snapshot_restore_is_repeatable():
    # Restoring a snapshot must not hand the engine the snapshot's own
    # containers: mutations after the first restore would then corrupt the
    # capture and a second restore of it (e.g. a push-stack entry pinned
    # across an aborted transactional batch) would resurrect them.
    eg = EGraph()
    eg.declare_sort("S")
    eg.constructor("A", ("i64",), "S")
    snap = eg.snapshot_state()

    eg.restore_state(snap)
    eg.add(App("A", 1))
    eg.declare_sort("T")
    eg.constructor("B", (), "S")
    eg.add_rule(Rule(name="r", facts=[App("A", V("x"))], actions=[]))

    eg.restore_state(snap)  # the capture survived the first restore intact
    assert len(eg.tables["A"]) == 0
    assert "T" not in eg.sorts
    assert "B" not in eg.decls and "r" not in eg.rules


def test_pop_inside_snapshot_scope_keeps_stack_entry_pristine():
    # A pop *between* snapshot_state and restore_state installs a stack
    # entry; rows added afterwards must not leak into that entry.
    eg = EGraph()
    eg.declare_sort("S")
    eg.constructor("A", ("i64",), "S")
    eg.push()
    eg.add(App("A", 1))
    stack = list(eg._snapshots)

    snap = eg.snapshot_state()
    eg.pop()  # installs the pinned stack entry's containers
    eg.add(App("A", 7))  # mutation after the restore
    eg.restore_state(snap)
    eg._snapshots = stack  # what the session layer's rollback does

    eg.pop()  # the client's own pop: back to the empty pre-push state
    assert len(eg.tables["A"]) == 0


def test_restore_rebinds_a_table_whose_function_was_redeclared():
    # A rolled-back batch that pops and redeclares a function must leave the
    # table on the captured declaration, or rebuild merges with the other.
    eg = EGraph()
    eg.declare_sort("E")
    eg.constructor("A", (), "E")
    eg.constructor("B", (), "E")
    eg.push()
    kept = eg.function("f", ("E",), I64, merge="min")
    run_actions(eg, [Set(App("f", App("A")), L(5)), Set(App("f", App("B")), L(7))], {})
    snap = eg.snapshot_state()
    eg.pop()
    eg.function("f", ("E",), I64, merge="max")
    eg.restore_state(snap)
    assert eg.tables["f"].decl is kept is eg.decls["f"]
    eg.union(App("A"), App("B"))
    eg.rebuild()
    assert eg.lookup(App("f", App("A"))) == i64(5)


def test_pop_counts_and_errors():
    eg = EGraph()
    assert eg.push() == 1
    assert eg.push() == 2
    assert eg.pop(2) == 0
    with pytest.raises(EGraphError):
        eg.pop()
    eg.push()
    with pytest.raises(EGraphError):
        eg.pop(2)
    with pytest.raises(EGraphError):
        eg.pop(0)


def test_pop_restores_seminaive_watermarks():
    eg = path_engine()
    eg.add(App("edge", 1, 2))
    eg.run(10)
    watermarks = {name: rule.last_run for name, rule in eg.rules.items()}
    eg.push()
    eg.add(App("edge", 2, 3))
    eg.run(10)
    assert {n: r.last_run for n, r in eg.rules.items()} != watermarks
    eg.pop()
    assert {n: r.last_run for n, r in eg.rules.items()} == watermarks
    # New facts after the pop are still picked up from the restored watermark.
    eg.add(App("edge", 2, 5))
    eg.run(10)
    assert (i64(1), i64(5)) in dict(eg.table_rows("path"))


def test_pop_error_messages_and_state_survival():
    # Regression guard: over-deep pops must raise the precise diagnostic
    # (not IndexError) and leave every intact snapshot poppable.
    eg = EGraph()
    with pytest.raises(EGraphError, match=r"pop 1 without matching push \(stack depth 0\)"):
        eg.pop()
    eg.push()
    eg.declare_sort("S")
    with pytest.raises(EGraphError, match=r"pop 3 without matching push \(stack depth 1\)"):
        eg.pop(3)
    with pytest.raises(EGraphError, match="pop count must be positive"):
        eg.pop(-1)
    # The failed pops consumed nothing: the one real snapshot still works.
    assert "S" in eg.sorts
    assert eg.pop() == 0
    assert "S" not in eg.sorts
