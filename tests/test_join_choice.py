"""Each query picks its plan shape from its body.

``is_acyclic`` runs a GYO reduction over the table atoms' variables;
``CompiledQuery`` binds one atom per node for α-acyclic bodies
(index-nested-loop join) and one variable per node for cyclic ones
(generic join).  Pinned here: the reduction on hand-picked shapes, the
shape every rule and query of the committed corpus gets (examples, golden
programs, bench workloads, the served benchmark's program), the cyclic
shapes as rules and as one-off queries, and which hash indexes each
search builds.
"""

import importlib.util
import pathlib

import pytest

from repro.bench.workloads import default_workloads
from repro.core.compile import CompiledQuery, is_acyclic
from repro.core.terms import App, V
from repro.engine import EGraph, Rule, eq
from repro.engine import compilecache
from repro.engine.actions import Expr
from repro.engine.compilecache import CompiledPlan
from repro.engine.rule import compile_facts
from repro.frontend import Evaluator

ROOT = pathlib.Path(__file__).parents[1]
TABLES = {"e", "t", "f", "g", "TArrow"}
a, b, c, d, h = (V(name) for name in "abcdh")


def atoms(*facts):
    return compile_facts(list(facts), lambda name: name in TABLES).atoms


def e(x, y):
    return App("e", x, y)


ACYCLIC = {
    "no atoms": atoms(),
    "one atom": atoms(e(a, b)),
    "path": atoms(e(a, b), e(b, c), e(c, d)),
    "star": atoms(e(h, a), e(h, b), e(h, c)),
    "repeated variable": atoms(e(a, a), e(a, b), e(b, b)),
    "constants only": atoms(e(1, 2), e(2, 3), e(3, 1)),
    "shared output (decompose-arrow)": atoms(eq(App("TArrow", a, b), App("TArrow", c, d))),
    "triangle covered by a ternary atom": atoms(e(a, b), e(b, c), e(a, c), App("t", a, b, c)),
}

CYCLIC = {
    "triangle": [e(a, b), e(b, c), e(a, c)],
    "4-cycle": [e(a, b), e(b, c), e(c, d), e(d, a)],
    "4-clique": [e(a, b), e(a, c), e(a, d), e(b, c), e(b, d), e(c, d)],
    "cycle through outputs": [eq(b, App("f", a)), eq(c, App("f", b)), App("g", a, c)],
}


@pytest.mark.parametrize("shape", sorted(ACYCLIC))
def test_acyclic_shapes(shape):
    assert is_acyclic(ACYCLIC[shape])


@pytest.mark.parametrize("shape", sorted(CYCLIC))
def test_cyclic_shapes(shape):
    assert not is_acyclic(atoms(*CYCLIC[shape]))


@pytest.fixture
def compiled(monkeypatch):
    """The shape of every plan the plan cache or a one-off query compiles:
    ``(query, acyclic)`` pairs."""
    seen = []

    def recording(query, *args):
        executor = CompiledQuery(query, *args)
        seen.append((repr(query), executor.acyclic))
        return executor

    monkeypatch.setattr(compilecache, "CompiledQuery", recording)
    return seen


def _compile_rules(egraph):
    for rule in egraph.rules.values():
        CompiledPlan(rule.query, egraph.registry)


def _perfbench_program_head():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROGRAM_HEAD


def test_every_committed_rule_and_query_runs_index_nested_loop(compiled):
    programs = sorted((ROOT / "examples").glob("*.egg"))
    programs += sorted((ROOT / "tests" / "golden").glob("*.egg"))
    for path in programs:
        evaluator = Evaluator()
        evaluator.run_program(path.read_text(), str(path))
        _compile_rules(evaluator.egraph)
    evaluator = Evaluator()
    evaluator.run_program(_perfbench_program_head(), "<perfbench>")
    _compile_rules(evaluator.egraph)
    for workload in default_workloads(quick=True):
        if workload.name == "triangle":
            continue
        egraph = EGraph()
        workload.setup(egraph)
        workload.run(egraph)
        _compile_rules(egraph)
    assert len(compiled) > 50
    generic = [query for query, acyclic in compiled if not acyclic]
    assert generic == []


def test_the_triangle_workload_runs_generic_join(compiled):
    (workload,) = [w for w in default_workloads(quick=True) if w.name == "triangle"]
    egraph = EGraph()
    workload.setup(egraph)
    workload.run(egraph)
    assert {acyclic for _query, acyclic in compiled} == {False}


CYCLIC_PROGRAM = """
(relation e (i64 i64))
(relation hit (String))
(function f (i64) i64)
(function g (i64 i64) i64)
(e 1 2) (e 1 3) (e 1 4) (e 2 3) (e 2 4) (e 3 4) (e 4 1)
(set (f 1) 2) (set (f 2) 3) (set (f 3) 4)
(set (g 1 3) 0)
"""


@pytest.mark.parametrize("shape", sorted(CYCLIC))
def test_cyclic_shapes_get_generic_join_as_rules_and_queries(shape, compiled):
    evaluator = Evaluator()
    evaluator.run_program(CYCLIC_PROGRAM, "<cyclic>")
    egraph = evaluator.egraph
    egraph.add_rule(
        Rule(facts=CYCLIC[shape], actions=[Expr(App("hit", shape))], name=shape)
    )
    exec_ = egraph.rule_exec(egraph.rules[shape])
    assert not exec_.query_exec.acyclic
    egraph.run(2)
    assert egraph.query(*CYCLIC[shape])
    # The rule's plan, then the one-off query's.
    assert [acyclic for _query, acyclic in compiled] == [False] * 2
    assert egraph.check(App("hit", shape)) == 1


def built(egraph):
    """The column groups each table has indexed."""
    return {name: sorted(t._indexes) for name, t in egraph.tables.items() if t._indexes}


def test_each_search_builds_only_the_indexes_its_plan_reads():
    path = ROOT / "tests" / "golden" / "path.egg"
    evaluator = Evaluator()
    evaluator.run_program(path.read_text(), str(path))
    assert evaluator.egraph.rules
    # Extending a path probes edge by its source; nothing else is indexed.
    assert built(evaluator.egraph) == {"edge": [(0,)]}

    egraph = EGraph()
    egraph.relation("edge", ("i64", "i64"))
    egraph.relation("path", ("i64", "i64"))
    egraph.relation("tri", ("i64", "i64", "i64"))
    x, y, z = V("x"), V("y"), V("z")
    egraph.add_rules(
        Rule(facts=[App("edge", x, y)], actions=[Expr(App("path", x, y))], name="base"),
        Rule(
            facts=[App("path", x, y), App("edge", y, z)],
            actions=[Expr(App("path", x, z))],
            name="step",
        ),
        Rule(
            facts=[App("edge", x, y), App("edge", y, z), App("edge", x, z)],
            actions=[Expr(App("tri", x, y, z))],
            name="triangle",
        ),
    )
    for u, v in [(1, 2), (2, 3), (1, 3), (3, 4)]:
        egraph.add(App("edge", u, v))
    egraph.run(10)
    assert egraph.check(App("tri", 1, 2, 3)) == 1
    assert len(egraph.tables["path"]) == 6
    # The triangle binds x from the distinct sources of edge, then y and z
    # from the edges out of a bound node, and probes the last edge by key:
    # the same single-column index the acyclic step reads.
    assert built(egraph) == {"edge": [(0,)]}
