"""Proof production: the forest, justification threading, and explain.

The chain validation here is an *independent proof checker*: it never
trusts the explanation machinery, only the explanation object itself —
each chain is replayed structurally (connectivity, endpoints) and each
step's justification is checked against the engine's registered rules,
declared functions, and current equivalences.
"""

import pytest

from repro.core.proofs import (
    EXPLICIT,
    Justification,
    ProofForest,
    congruence_justification,
    rule_justification,
)
from repro.core.terms import App, V
from repro.core.unionfind import UnionFind
from repro.engine import EGraph, EGraphError, Rule, Set, rewrite
from repro.engine.actions import Union as UnionAction



def check_explanation(egraph, explanation):
    """Replay an explanation against the engine's rule set and union-find.

    Asserts the chain is connected between its declared endpoints and that
    every step is justified: rule steps name a registered rule that can
    assert equalities, congruence steps name a declared function with an
    eq-sorted output, and every step's endpoints are equal *now*.
    """
    uf = egraph.uf
    ids = [explanation.lhs]
    for step in explanation.steps:
        assert step.lhs == ids[-1], "chain is not connected"
        ids.append(step.rhs)
    assert ids[-1] == explanation.rhs, "chain does not reach the endpoint"
    root = uf.find(explanation.lhs)
    assert uf.find(explanation.rhs) == root
    for step in explanation.steps:
        assert uf.find(step.lhs) == root
        assert uf.find(step.rhs) == root
        just = step.justification
        if just.kind == "rule":
            rule = egraph.rules.get(just.name)
            assert rule is not None, f"chain names unknown rule {just.name!r}"
            assert any(
                isinstance(action, (UnionAction, Set)) for action in rule.actions
            ), f"rule {just.name!r} cannot assert equalities"
        elif just.kind == "congruence":
            decl = egraph.decls.get(just.name)
            assert decl is not None, f"chain names unknown function {just.name!r}"
            assert egraph.sorts[decl.out_sort].is_eq_sort
        else:
            assert just.kind == "union", f"unknown justification kind {just.kind!r}"
    return True


# -- the forest itself --------------------------------------------------------


def test_forest_records_and_explains_a_chain():
    forest = ProofForest()
    a, b, c = forest.make_set(), forest.make_set(), forest.make_set()
    forest.record(a, b, rule_justification("r1"))
    forest.record(b, c, rule_justification("r2"))
    steps = forest.explain_path(a, c)
    assert [(s.lhs, s.rhs, s.justification.name) for s in steps] == [
        (a, b, "r1"),
        (b, c, "r2"),
    ]
    # Symmetric query traverses the same edges the other way.
    back = forest.explain_path(c, a)
    assert [(s.lhs, s.rhs) for s in back] == [(c, b), (b, a)]


def test_forest_path_is_minimal_not_insertion_order():
    forest = ProofForest()
    ids = [forest.make_set() for _ in range(5)]
    # Star: everything merged into ids[0] directly.
    for other in ids[1:]:
        forest.record(other, ids[0], EXPLICIT)
    steps = forest.explain_path(ids[3], ids[4])
    assert len(steps) == 2  # through the hub, not through all five nodes


def test_forest_disconnected_returns_none_and_reflexive_is_empty():
    forest = ProofForest()
    a, b = forest.make_set(), forest.make_set()
    assert forest.explain_path(a, b) is None
    assert forest.explain_path(a, a) == []


def test_forest_rerooting_preserves_old_paths():
    forest = ProofForest()
    a, b, c, d = (forest.make_set() for _ in range(4))
    forest.record(a, b, rule_justification("ab"))
    forest.record(c, d, rule_justification("cd"))
    # Joining the two trees re-roots a's tree; the a—b edge must survive.
    forest.record(a, c, rule_justification("ac"))
    names = [s.justification.name for s in forest.explain_path(b, d)]
    assert names == ["ab", "ac", "cd"]


def test_forest_snapshot_restore_is_defensive():
    forest = ProofForest()
    a, b, c = forest.make_set(), forest.make_set(), forest.make_set()
    forest.record(a, b, EXPLICIT)
    snap = forest.snapshot()
    forest.record(b, c, EXPLICIT)
    forest.restore(snap)
    assert forest.explain_path(a, c) is None
    # Mutate after the first restore, then restore the same snapshot again.
    forest.record(a, c, EXPLICIT)
    forest.restore(snap)
    assert forest.explain_path(a, c) is None
    assert len(forest.explain_path(a, b)) == 1


# -- union-find integration (and the restore-aliasing regression) -------------


def test_unionfind_restore_same_snapshot_twice():
    # Regression: restore() used to install the snapshot's lists by
    # reference, so post-restore unions corrupted the saved tuple.
    uf = UnionFind()
    a, b, c = uf.make_set(), uf.make_set(), uf.make_set()
    uf.union(a, b)
    snap = uf.snapshot()
    uf.union(a, c)
    uf.restore(snap)
    assert uf.same(a, b) and not uf.same(a, c)
    uf.union(a, c)  # mutate again after the first restore
    uf.restore(snap)
    assert uf.same(a, b)
    assert not uf.same(a, c)
    assert uf.n_unions == 1


def test_unionfind_restore_twice_with_proofs():
    uf = UnionFind(proofs=True)
    a, b, c = uf.make_set(), uf.make_set(), uf.make_set()
    uf.union(a, b, rule_justification("r"))
    snap = uf.snapshot()
    uf.union(b, c)
    uf.restore(snap)
    uf.union(b, c)
    uf.restore(snap)
    assert uf.proofs.explain_path(a, c) is None
    steps = uf.proofs.explain_path(a, b)
    assert [s.justification for s in steps] == [rule_justification("r")]


def test_unionfind_records_original_ids_not_roots():
    uf = UnionFind(proofs=True)
    a, b, c = uf.make_set(), uf.make_set(), uf.make_set()
    uf.union(a, b)
    # Union through non-root member b: the edge must land on b, keeping
    # every member of the merged class connected in the forest.
    uf.union(b, c)
    assert len(uf.proofs.explain_path(a, c)) == 2


# -- engine explain -----------------------------------------------------------


def num(n):
    return App("Num", n)


def add(a, b):
    return App("Add", a, b)


def math_engine(proofs=True):
    eg = EGraph(proofs=proofs)
    eg.declare_sort("Math")
    eg.constructor("Num", ("i64",), "Math")
    eg.constructor("Add", ("Math", "Math"), "Math")
    return eg


def test_explain_rule_step_names_the_rule(executor):
    eg = math_engine()
    eg.add_rewrite(add(V("x"), V("y")), add(V("y"), V("x")), name="comm-add")
    eg.add(add(num(1), num(2)))
    eg.run(5)
    expl = eg.explain(add(num(1), num(2)), add(num(2), num(1)))
    assert [s.justification for s in expl.steps] == [rule_justification("comm-add")]
    check_explanation(eg, expl)


def test_explain_congruence_step_names_the_function(executor):
    eg = EGraph()
    eg.declare_sort("V")
    eg.constructor("Leaf", ("i64",), "V")
    eg.constructor("F", ("V",), "V")
    eg.add(App("F", App("Leaf", 1)))
    eg.add(App("F", App("Leaf", 2)))
    eg.union(App("Leaf", 1), App("Leaf", 2))
    eg.rebuild()
    expl = eg.explain(App("F", App("Leaf", 1)), App("F", App("Leaf", 2)))
    assert [s.justification for s in expl.steps] == [congruence_justification("F")]
    check_explanation(eg, expl)
    leaf = eg.explain(App("Leaf", 1), App("Leaf", 2))
    assert [s.justification.kind for s in leaf.steps] == ["union"]
    check_explanation(eg, leaf)


def test_explain_congruence_tower_chain():
    eg = EGraph()
    eg.declare_sort("V")
    eg.constructor("Leaf", ("i64",), "V")
    eg.constructor("F", ("V",), "V")

    def tower(i, height=3):
        term = App("Leaf", i)
        for _ in range(height):
            term = App("F", term)
        return term

    for i in range(4):
        eg.add(tower(i))
    eg.union(App("Leaf", 0), App("Leaf", 1))
    eg.union(App("Leaf", 1), App("Leaf", 2))
    eg.union(App("Leaf", 2), App("Leaf", 3))
    eg.rebuild()
    expl = eg.explain(tower(0), tower(3))
    assert expl.steps, "tower tops need a non-trivial proof"
    assert all(s.justification == congruence_justification("F") for s in expl.steps)
    check_explanation(eg, expl)


def test_explain_mixed_rule_union_chain():
    # comm links the two Add e-nodes by a rule edge; the explicit union
    # attaches Num(9) to whichever of them is the class root.  The chain
    # from the *other* Add node must therefore traverse both edges.
    eg = math_engine()
    eg.add_rewrite(add(V("x"), V("y")), add(V("y"), V("x")), name="comm")
    eg.add(add(num(1), num(2)))
    eg.run(5)
    eg.add(num(9))
    eg.union(add(num(2), num(1)), num(9))
    eg.rebuild()
    chains = [
        eg.explain(add(num(1), num(2)), num(9)),
        eg.explain(add(num(2), num(1)), num(9)),
    ]
    for expl in chains:
        assert expl.steps
        check_explanation(eg, expl)
    kinds = {s.justification.kind for expl in chains for s in expl.steps}
    assert kinds == {"rule", "union"}


def test_explain_survives_push_pop():
    eg = math_engine()
    eg.add(num(1))
    eg.add(num(2))
    eg.union(num(1), num(2))
    eg.push()
    eg.add(num(3))
    eg.union(num(2), num(3))
    inner = eg.explain(num(1), num(3))
    assert inner.steps
    assert all(s.justification.kind == "union" for s in inner.steps)
    check_explanation(eg, inner)
    eg.pop()
    with pytest.raises(EGraphError, match="not in the e-graph|not equal"):
        eg.explain(num(1), num(3))
    outer = eg.explain(num(1), num(2))
    assert [s.justification.kind for s in outer.steps] == ["union"]
    check_explanation(eg, outer)


def test_explain_pop_then_rebuild_uses_fresh_justifications():
    # After a pop, new unions must explain via the new justifications, not
    # stale pre-pop forest state (defensive restore in the forest).
    eg = math_engine()
    eg.add(num(1))
    eg.add(num(2))
    eg.push()
    eg.union(num(1), num(2))
    eg.pop()
    eg.push()
    eg.add_rewrite(add(V("x"), V("y")), add(V("y"), V("x")), name="comm-add")
    eg.add(add(num(1), num(2)))
    eg.run(5)
    expl = eg.explain(add(num(1), num(2)), add(num(2), num(1)))
    assert [s.justification for s in expl.steps] == [rule_justification("comm-add")]
    check_explanation(eg, expl)


def test_explain_rule_identity_survives_rule_replacement():
    eg = math_engine()
    eg.add_rewrite(add(V("x"), V("y")), add(V("y"), V("x")), name="comm")
    eg.add(add(num(1), num(2)))
    eg.run(5)
    first = eg.explain(add(num(1), num(2)), add(num(2), num(1)))
    assert [s.justification.name for s in first.steps] == ["comm"]
    # Replace the rule under the same name; new firings are still "comm",
    # through a freshly compiled executor (epoch bump).
    eg.replace_rule(
        Rule(
            name="comm",
            facts=[App("Add", V("x"), V("y"))],
            actions=[UnionAction(App("Add", V("x"), V("y")), App("Add", V("y"), V("x")))],
        )
    )
    eg.add(add(num(3), num(4)))
    eg.run(5)
    second = eg.explain(add(num(3), num(4)), add(num(4), num(3)))
    assert [s.justification.name for s in second.steps] == ["comm"]
    check_explanation(eg, second)


def test_explain_hashconsed_terms_get_reflexive_chain():
    # Terms whose children were already equal at insert time share one
    # e-node: documented simplification — empty (reflexive) chain.
    eg = math_engine()
    eg.add(num(1))
    eg.add(num(2))
    eg.union(num(1), num(2))
    eg.rebuild()
    eg.add(add(num(1), num(1)))
    eg.add(add(num(2), num(2)))
    expl = eg.explain(add(num(1), num(1)), add(num(2), num(2)))
    assert expl.steps == ()
    check_explanation(eg, expl)


def test_explain_errors():
    eg = math_engine()
    eg.add(num(1))
    eg.add(num(2))
    with pytest.raises(EGraphError, match="not equal"):
        eg.explain(num(1), num(2))
    with pytest.raises(EGraphError, match="not in the e-graph"):
        eg.explain(num(1), num(9))
    with pytest.raises(EGraphError, match="primitive"):
        eg.explain(App("+", 1, 2), App("+", 2, 1))
    disabled = math_engine(proofs=False)
    disabled.add(num(1))
    with pytest.raises(EGraphError, match="proofs are disabled"):
        disabled.explain(num(1), num(1))


def test_proofs_disabled_engine_still_runs():
    eg = math_engine(proofs=False)
    eg.add_rewrite(add(V("x"), V("y")), add(V("y"), V("x")), name="comm")
    eg.add(add(num(1), num(2)))
    eg.run(5)
    assert eg.are_equal(add(num(1), num(2)), add(num(2), num(1)))


# -- justification dataclass --------------------------------------------------


def test_justification_describe():
    assert rule_justification("comm").describe() == "rule comm"
    assert congruence_justification("F").describe() == "congruence F"
    assert EXPLICIT.describe() == "union"
    assert Justification("rule", "r") == rule_justification("r")


# -- the DSL surface ----------------------------------------------------------


def test_dsl_explain_typed_steps():
    from repro import EGraph as DslEGraph
    from repro.dsl import DslError, ExplainStep, i64 as i64_sort

    eg = DslEGraph()
    math = eg.sort("Math")
    num_f = eg.constructor("Num", (i64_sort,), math)
    add_f = eg.constructor("Add", (math, math), math, op="+")
    from repro.dsl import vars_

    x, y = vars_("x y", math)
    eg.register((x + y).to(y + x))
    expr = add_f(num_f(1), num_f(2))
    eg.add(expr)
    eg.run(5)
    expl = eg.explain(expr, add_f(num_f(2), num_f(1)))
    assert expl.sort is math
    assert len(expl) == 1
    step = expl.steps[0]
    assert isinstance(step, ExplainStep)
    assert step.kind == "rule"
    assert step.lhs.sort == "Math" and step.rhs.sort == "Math"
    # The typed chain mirrors the engine chain; replay it there too.
    check_explanation(eg.engine, eg.engine.explain(expr, add_f(num_f(2), num_f(1))))
    with pytest.raises(DslError):
        eg.explain(num_f(1), num_f(2))
    off = DslEGraph(proofs=False)
    m2 = off.sort("M")
    n2 = off.constructor("N", (i64_sort,), m2)
    off.add(n2(1))
    with pytest.raises(DslError, match="disabled"):
        off.explain(n2(1), n2(1))


def test_dsl_explain_congruence_and_union_kinds():
    from repro import EGraph as DslEGraph
    from repro.dsl import i64 as i64_sort

    eg = DslEGraph()
    v = eg.sort("V")
    leaf = eg.constructor("Leaf", (i64_sort,), v)
    f = eg.constructor("F", (v,), v)
    eg.add(f(leaf(1)))
    eg.add(f(leaf(2)))
    eg.union(leaf(1), leaf(2))
    eg.engine.rebuild()
    expl = eg.explain(f(leaf(1)), f(leaf(2)))
    assert [(s.kind, s.name) for s in expl.steps] == [("congruence", "F")]
    assert [s.kind for s in eg.explain(leaf(1), leaf(2)).steps] == ["union"]


# -- exhaustive replay under both executors -----------------------------------


def test_every_pair_in_a_saturated_class_explains(executor):
    eg = math_engine()
    eg.add_rewrite(add(V("x"), V("y")), add(V("y"), V("x")), name="comm")
    eg.add_rewrite(
        add(add(V("a"), V("b")), V("c")),
        add(V("a"), add(V("b"), V("c"))),
        name="assoc",
    )
    seed = add(add(num(1), num(2)), num(3))
    eg.add(seed)
    eg.run(6)
    variants = [
        seed,
        add(num(3), add(num(1), num(2))),
        add(add(num(2), num(1)), num(3)),
        add(num(1), add(num(2), num(3))),
    ]
    for other in variants[1:]:
        assert eg.are_equal(seed, other)
        expl = eg.explain(seed, other)
        check_explanation(eg, expl)
        # And the reverse direction.
        check_explanation(eg, eg.explain(other, seed))
