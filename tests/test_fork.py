"""Fork and budget tests: the session service's engine-level foundations.

``EGraph.fork()`` (engine and DSL surfaces) must produce *deeply* isolated
copies — no shared tables, union-find, rulesets, or handle state — while
intentionally sharing the primitive registry so the process-level compiled
plan cache stays hot across forks.  Run budgets (``deadline_s`` /
``max_nodes``) must stop the scheduler cleanly *between* iterations with a
partial report whose ``stopped_reason`` names the exhausted budget, and a
budget-stopped run must never claim saturation.
"""

import pytest

from repro import EGraph as DslEGraph
from repro.core.terms import App, V
from repro.dsl import DslError, UnknownSortError, i64, set_, vars_
from repro.engine import EGraph, Rule
from repro.engine.actions import Expr as ActExpr
from repro.engine.actions import run_actions
from repro.engine.budget import STOP_DEADLINE, STOP_MAX_NODES, Budget
from repro.engine.compilecache import CACHE
from repro.engine.schedule import Run, Saturate, Seq


def chain_engine(n=6):
    """edge/path transitive closure over an n-edge chain."""
    eg = EGraph()
    eg.relation("edge", ("i64", "i64"))
    eg.relation("path", ("i64", "i64"))
    eg.add_rules(
        Rule(name="base", facts=[App("edge", V("x"), V("y"))],
             actions=[ActExpr(App("path", V("x"), V("y")))]),
        Rule(name="trans",
             facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
             actions=[ActExpr(App("path", V("x"), V("z")))]),
    )
    for i in range(1, n + 1):
        eg.add(App("edge", i, i + 1))
    return eg


# ---------------------------------------------------------------------------
# Engine-level fork
# ---------------------------------------------------------------------------


def test_engine_fork_is_deeply_isolated():
    parent = chain_engine()
    child = parent.fork()
    # No shared mutable engine state.
    assert child is not parent
    assert child.tables is not parent.tables
    for name in parent.tables:
        assert child.tables[name] is not parent.tables[name]
    assert child.uf is not parent.uf
    # Running the child to saturation leaves the parent untouched.
    child.run(100)
    assert child.check(App("path", 1, 7)) == 1
    with pytest.raises(Exception):
        parent.check(App("path", 1, 7))
    assert parent.node_count() == 6
    # And vice versa: new facts in the parent never appear in the child.
    parent.add(App("edge", 100, 200))
    assert child.lookup(App("edge", 100, 200)) is None


def test_engine_fork_carries_run_state_forward():
    parent = chain_engine()
    parent.run(2)
    mid = parent.fork()
    parent.run(100)
    # The fork resumes from the partial state, not from scratch: closure
    # over a 6-edge chain takes 6 iterations cold, fewer after 2 are done.
    resumed = mid.run(100)
    assert resumed.saturated and resumed.iterations < 6
    assert mid.check(App("path", 1, 7)) == parent.check(App("path", 1, 7)) == 1


def test_engine_fork_shares_registry_and_plan_cache():
    parent = chain_engine()
    child = parent.fork()
    assert child.registry is parent.registry
    CACHE.clear()
    parent.run(100)
    stats = CACHE.stats()
    assert stats["misses"] >= 2 and stats["hits"] == 0
    # The fork compiles nothing new: same rules, same registry -> cache hits.
    child.run(100)
    after = CACHE.stats()
    assert after["misses"] == stats["misses"]
    assert after["hits"] >= 2


def test_engine_fork_matches_document_round_trip_byte_for_byte():
    # fork() is a structural copy, but it must be indistinguishable from the
    # slow path: serialize the parent, decode it into a fresh engine.  Pin
    # that equivalence at the byte level, for a partial (mid-run) state.
    from repro.serialize.snapshot import dumps_document, engine_document

    parent = chain_engine()
    parent.run(2)
    before = dumps_document(engine_document(parent))
    child = parent.fork()
    assert dumps_document(engine_document(child)) == before
    # Forking and then running the fork leaves the parent's bytes intact.
    child.run(100)
    assert dumps_document(engine_document(parent)) == before


# ---------------------------------------------------------------------------
# DSL-level fork
# ---------------------------------------------------------------------------


def dsl_math():
    eg = DslEGraph()
    math = eg.sort("Math")
    num = eg.constructor("Num", (i64,), math)
    add = eg.constructor("Add", (math, math), math, op="+")
    a, b = vars_("a b", math)
    eg.register((a + b).to(b + a, name="comm"))
    eg.add(num(1) + num(2))
    return eg, math, num, add


def test_dsl_fork_rehydrates_fresh_handles():
    eg, math, num, add = dsl_math()
    fork = eg.fork()
    # The fork answers through its own re-hydrated handles...
    fnum = fork.function_handle("Num")
    fork.run(5)
    assert fork.are_equal(fnum(1) + fnum(2), fnum(2) + fnum(1))
    # ...and the parent — which never ran — is untouched.
    assert not eg.are_equal(num(1) + num(2), num(2) + num(1))
    # Parent handles are rejected where ownership is checked: declaring
    # on the fork with the parent's sort handle names the foreign owner.
    with pytest.raises(UnknownSortError, match="different EGraph"):
        fork.function("Neg", (math,), math)


def test_dsl_fork_is_isolated_both_ways():
    eg, math, num, add = dsl_math()
    fork = eg.fork()
    fork.run(5)
    assert eg.engine.timestamp < fork.engine.timestamp
    # Declarations after the fork point stay on their own side.
    fork.relation("seen", i64)
    assert "seen" not in eg.engine.decls
    eg.relation("only-parent", i64)
    assert "only-parent" not in fork.engine.decls
    # Parent keeps working normally after the fork mutates.
    eg.run(5)
    assert str(eg.extract(num(1) + num(2)).expr) in (
        "Add(Num(1), Num(2))", "Add(Num(2), Num(1))"
    )


def test_dsl_fork_operator_bindings_survive():
    eg, math, num, add = dsl_math()
    fork = eg.fork()
    fork_math = fork._sorts["Math"]
    # Fresh handle state: operator table is rebuilt, not aliased.
    assert fork_math._ops is not math._ops
    fx, fy = vars_("x y", fork_math)
    assert repr(fx + fy) == "Add(x, y)"


def test_dsl_fork_shares_row_dicts_until_written():
    eg, math, num, add = dsl_math()
    eg.run(5)
    fork = eg.fork()
    assert fork.engine.registry is eg.engine.registry
    for name, table in eg.engine.tables.items():
        assert fork.engine.tables[name].data is table.data
    fork.add(fork.function_handle("Num")(9))
    assert fork.engine.tables["Num"].data is not eg.engine.tables["Num"].data
    assert len(eg.function_handle("Num")) == 2


def test_dsl_fork_keeps_callable_merges_and_save_still_refuses(tmp_path):
    eg = DslEGraph()
    best = eg.function("best", (i64,), i64, merge=lambda old, new: max(old, new))
    run_actions(eg.engine, [set_(best(1), 5)], {})
    fork = eg.fork()
    fbest = fork.function_handle("best")
    run_actions(fork.engine, [set_(fbest(1), 3), set_(fbest(1), 8)], {})
    assert [(k[0].data, v.data) for k, v in fbest.rows()] == [(1, 8)]
    assert [(k[0].data, v.data) for k, v in best.rows()] == [(1, 5)]
    with pytest.raises(DslError, match="best"):
        eg.save(str(tmp_path / "best.json"))


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


def test_budget_of_returns_none_when_unset():
    assert Budget.of(deadline_s=None, max_nodes=None) is None
    assert Budget.of(deadline_s=1.0, max_nodes=None) is not None


def test_budget_rejects_negative_caps():
    with pytest.raises(Exception):
        Budget(deadline_s=-1.0)
    with pytest.raises(Exception):
        Budget(max_nodes=-1)


def test_zero_deadline_stops_before_first_iteration():
    eg = chain_engine()
    report = eg.run(100, deadline_s=0.0)
    assert report.iterations == 0
    assert report.stopped_reason == STOP_DEADLINE
    assert not report.saturated
    assert eg.node_count() == 6  # nothing derived


def test_max_nodes_yields_partial_then_resumable_run():
    eg = chain_engine()
    partial = eg.run(100, max_nodes=10)
    assert partial.stopped_reason == STOP_MAX_NODES
    assert 0 < partial.iterations < 6
    assert not partial.saturated
    assert eg.check(App("path", 1, 2)) == 1
    # The budget is checked between iterations, so one iteration may
    # overshoot the cap — but the database is still a sound partial state.
    assert eg.node_count() >= 10
    # An unbudgeted run picks up exactly where the stopped one left off.
    rest = eg.run(100)
    assert rest.saturated and rest.stopped_reason == ""
    assert eg.check(App("path", 1, 7)) == 1


def test_zero_max_nodes_stops_everything():
    eg = chain_engine()
    report = eg.run(100, max_nodes=0)
    assert report.iterations == 0 and report.stopped_reason == STOP_MAX_NODES


def test_budget_stops_inside_schedules():
    eg = chain_engine()
    report = eg.run_schedule(Seq((Saturate((Run(1),)), Run(5))), max_nodes=0)
    assert report.stopped_reason == STOP_MAX_NODES
    assert report.iterations == 0
    # A saturate pass cut short by a budget must not report saturation.
    assert not report.saturated


def test_budget_report_summary_names_the_reason():
    eg = chain_engine()
    report = eg.run(100, max_nodes=0)
    assert "stopped: max-nodes" in report.summary()


def test_dsl_run_accepts_budgets():
    eg, math, num, add = dsl_math()
    report = eg.run(100, max_nodes=0)
    assert report.stopped_reason == STOP_MAX_NODES
    report = eg.run(100, deadline_s=60.0)
    assert report.stopped_reason == "" and report.saturated
