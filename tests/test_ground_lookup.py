"""Atoms whose key columns are all bound are answered by one row-dict probe.

A plan node whose cover has every argument constant or already bound
skips hash indexes: the row is fetched by key and its output checked.
Answers must not change under either plan shape, and a ground ``check``
on a fresh fork must build no index at all.
"""

import pytest

from repro.core.terms import App, V
from repro.core.values import I64, i64
from repro.engine import CheckError, EGraph, Rule, eq
from repro.engine.actions import Expr

from .reference import evaluate


def dist_engine():
    """``dist`` (i64 output, defaults to 5), ``edge``, and an arity-0 ``answer``."""
    eg = EGraph()
    eg.function("dist", (I64, I64), I64, default=5)
    eg.relation("edge", (I64, I64))
    eg.relation("hop", (I64, I64))
    eg.function("answer", (), I64, default=42)
    for a, b in [(1, 2), (2, 3), (3, 4)]:
        eg.add(App("edge", a, b))
    for a, b in [(1, 2), (3, 4), (4, 1)]:
        eg.add(App("dist", a, b))
    return eg


def answers(eg, *facts):
    """Sorted user-variable bindings per match (flattening's ``$n`` dropped)."""
    return sorted(
        sorted((name, value) for name, value in match.items() if not name.startswith("$"))
        for match in eg.query(*facts)
    )


def test_ground_facts_answer_the_same_under_every_strategy(executor):
    eg = dist_engine()
    # A present fact, an absent fact, and a present key with another output.
    assert eg.check(eq(App("dist", 1, 2), 5)) == 1
    assert answers(eg, eq(App("dist", 2, 1), 5)) == []
    assert answers(eg, eq(App("dist", 1, 2), 6)) == []
    with pytest.raises(CheckError):
        eg.check(eq(App("dist", 1, 2), 6))
    assert answers(eg, eq(V("d"), App("dist", 1, 2))) == [[("d", i64(5))]]
    assert eg.check(App("edge", 1, 2)) == 1
    assert answers(eg, App("edge", 2, 1)) == []
    # A key bound by an earlier atom: one dist probe per edge.
    assert answers(eg, App("edge", V("x"), V("y")), eq(V("d"), App("dist", V("x"), V("y")))) == [
        [("d", i64(5)), ("x", i64(1)), ("y", i64(2))],
        [("d", i64(5)), ("x", i64(3)), ("y", i64(4))],
    ]


def test_arity_zero_function_answers_by_key(executor):
    eg = dist_engine()
    assert answers(eg, eq(V("x"), App("answer"))) == []
    with pytest.raises(CheckError):
        eg.check(eq(App("answer"), 42))
    eg.add(App("answer"))
    assert eg.check(eq(App("answer"), 42)) == 1
    assert answers(eg, eq(App("answer"), 41)) == []
    assert answers(eg, eq(V("x"), App("answer"))) == [[("x", i64(42))]]


def test_compiled_fully_bound_atom_matches_interpreted_search():
    eg = dist_engine()
    # hop(x, y) is fully bound by edge(x, y): whichever order the planner
    # picks, the second atom is a key probe in both executors.
    for a, b in [(2, 3), (3, 4), (9, 9)]:
        eg.add(App("hop", a, b))
    eg.add_rule(
        Rule(
            name="both",
            facts=[
                App("edge", V("x"), V("y")),
                App("hop", V("x"), V("y")),
                eq(V("d"), App("dist", V("y"), 1)),
            ],
            actions=[Expr(App("edge", V("y"), V("x")))],
        )
    )
    rule = eg.rules["both"]
    exec_ = eg.rule_exec(rule)
    compiled = [exec_.substitution(m) for m in exec_.search_full(eg.tables)]
    assert compiled == evaluate(eg.tables, eg.registry, rule.query)
    assert [(m["x"], m["y"]) for m in compiled] == [(i64(3), i64(4))]
    assert all(not table._indexes for table in eg.tables.values())
    report = eg.run(1)
    assert report.per_rule_matches["both"] == 1
    assert eg.check(App("edge", 4, 3)) == 1


def test_ground_check_on_a_fresh_fork_builds_no_index():
    base = EGraph()
    base.relation("edge", (I64, I64))
    base.function("dist", (I64, I64), I64, default=1)
    for n in range(10_000):
        base.add(App("dist", n, n + 1))
    fork = base.fork()
    assert fork.check(eq(App("dist", 17, 18), 1)) == 1
    assert fork.query(App("dist", 18, 17)) == []
    assert all(not table._indexes for table in fork.tables.values())
    # The fork shares the base's rows until it writes.
    assert fork.tables["dist"].data is base.tables["dist"].data
