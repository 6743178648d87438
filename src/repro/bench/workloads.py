"""Parameterized benchmark workloads.

Every workload is deterministic: generators take an explicit seed and use a
private :class:`random.Random`, so two runs on the same parameters exercise
the engine identically and timing differences are attributable to the
engine, not the input.

The families:

* **Transitive closure** (:func:`transitive_closure`) — the paper's
  canonical Datalog workload: ``path(x,z) :- path(x,y), edge(y,z)`` on
  chain, random (Erdős–Rényi-style), and grid graphs.  Many semi-naïve
  iterations over a growing ``path`` table: exactly the shape where
  maintained indexes beat per-search index builds.
* **Math rewriting** (:func:`math_rewriting`) — equality saturation over a
  small arithmetic datatype (commutativity/associativity/identities) on a
  balanced expression of a given depth, run a bounded number of
  iterations.  Stresses e-node insertion, unions, and rebuilding together.
* **Congruence stress** (:func:`congruence_stress`) — towers of unary
  applications over leaf classes that are then unioned pairwise, forcing
  cascades of congruence repairs.  Measures the rebuild path in isolation.
* **Proof production** (:func:`proof_explain`) — congruence towers, then
  a batch of ``explain`` calls.
* **Triangles** (:func:`triangles`) — the one cyclic rule body, so the
  one family that runs generic join; every other family's rules are
  α-acyclic and run index-nested-loop join.
* **Extraction after small batches** (:func:`extract_batches`) — one
  long-lived type-inference e-graph that extracts after every batch, the
  shape where keeping the best-node map pays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..core.schema import RunReport
from ..core.terms import App, V
from ..engine import EGraph, Rule, eq
from ..engine.actions import Expr, Union


@dataclass
class Workload:
    """One benchmark scenario: a database/ruleset builder plus a run phase.

    ``setup`` declares functions, asserts ground facts, and registers rules
    on a fresh engine; ``run`` drives it (usually the scheduler) and
    returns the :class:`RunReport` whose phase timings the runner records.
    """

    name: str
    family: str
    params: Dict[str, object]
    setup: Callable[[EGraph], None]
    run: Callable[[EGraph], RunReport]
    tables_of_interest: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Transitive closure
# ---------------------------------------------------------------------------


def _chain_edges(n: int) -> List[Tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _random_edges(n: int, m: int, seed: int) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def _grid_edges(side: int) -> List[Tuple[int, int]]:
    """Directed right/down edges of a ``side`` × ``side`` grid."""
    edges = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                edges.append((node, node + 1))
            if row + 1 < side:
                edges.append((node, node + side))
    return edges


def transitive_closure(kind: str, *, n: int, m: int = 0, seed: int = 0) -> Workload:
    """Transitive closure on a ``kind`` graph (``chain``/``random``/``grid``).

    ``n`` is the node count (side² for grids, where ``n`` is the side);
    ``m`` the edge count for random graphs.
    """
    if kind == "chain":
        edges = _chain_edges(n)
    elif kind == "random":
        edges = _random_edges(n, m, seed)
    elif kind == "grid":
        edges = _grid_edges(n)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    limit = len(edges) + max(n, 4) + 4  # enough iterations to saturate

    def setup(egraph: EGraph) -> None:
        egraph.relation("edge", ("i64", "i64"))
        egraph.relation("path", ("i64", "i64"))
        egraph.add_rules(
            Rule(
                facts=[App("edge", V("x"), V("y"))],
                actions=[Expr(App("path", V("x"), V("y")))],
                name="edge-to-path",
            ),
            Rule(
                facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
                actions=[Expr(App("path", V("x"), V("z")))],
                name="path-step",
            ),
        )
        for a, b in edges:
            egraph.add(App("edge", a, b))

    return Workload(
        name=f"tc_{kind}",
        family="transitive-closure",
        params={"kind": kind, "n": n, "m": m or len(edges), "seed": seed},
        setup=setup,
        run=lambda egraph: egraph.run(limit),
        tables_of_interest=("edge", "path"),
    )


# ---------------------------------------------------------------------------
# Math rewriting
# ---------------------------------------------------------------------------


def _math_term(depth: int, rng: random.Random):
    if depth == 0:
        return App("Num", rng.randrange(8))
    op = rng.choice(("Add", "Mul"))
    return App(op, _math_term(depth - 1, rng), _math_term(depth - 1, rng))


def math_rewriting(*, depth: int, iterations: int, seed: int = 0) -> Workload:
    """Equality saturation over arithmetic terms of a given depth.

    Rewrites (commutativity, associativity, ``x+0``, ``x*1``, ``x*0``) run
    a bounded number of iterations — saturation would be exponential, so
    the iteration count is a workload parameter.
    """

    def setup(egraph: EGraph) -> None:
        egraph.declare_sort("Math")
        egraph.constructor("Num", ("i64",), "Math")
        egraph.constructor("Add", ("Math", "Math"), "Math")
        egraph.constructor("Mul", ("Math", "Math"), "Math")
        a, b, c = V("a"), V("b"), V("c")
        egraph.add_rewrite(App("Add", a, b), App("Add", b, a), name="comm-add")
        egraph.add_rewrite(App("Mul", a, b), App("Mul", b, a), name="comm-mul")
        egraph.add_rewrite(
            App("Add", App("Add", a, b), c),
            App("Add", a, App("Add", b, c)),
            name="assoc-add",
        )
        egraph.add_rewrite(App("Add", a, App("Num", 0)), a, name="add-zero")
        egraph.add_rewrite(App("Mul", a, App("Num", 1)), a, name="mul-one")
        egraph.add_rewrite(App("Mul", a, App("Num", 0)), App("Num", 0), name="mul-zero")
        rng = random.Random(seed)
        egraph.add(_math_term(depth, rng))

    return Workload(
        name="math",
        family="math-rewriting",
        params={"depth": depth, "iterations": iterations, "seed": seed},
        setup=setup,
        run=lambda egraph: egraph.run(iterations),
        tables_of_interest=("Add", "Mul", "Num"),
    )


# ---------------------------------------------------------------------------
# Congruence-closure stress
# ---------------------------------------------------------------------------


def congruence_stress(*, leaves: int, height: int, seed: int = 0) -> Workload:
    """Union leaf classes under towers of unary ``f`` and count the fallout.

    Builds ``leaves`` towers ``f(f(...f(Leaf(i))))`` of the given height,
    then unions the leaves pairwise in a seeded random order.  Every union
    forces congruence repairs up the towers; the run phase is rebuilding,
    driven through :meth:`EGraph.rebuild` so the report isolates it.
    """

    def setup(egraph: EGraph) -> None:
        egraph.declare_sort("V")
        egraph.constructor("Leaf", ("i64",), "V")
        egraph.constructor("F", ("V",), "V")
        for index in range(leaves):
            term = App("Leaf", index)
            for _ in range(height):
                term = App("F", term)
            egraph.add(term)

    def run(egraph: EGraph) -> RunReport:
        import time

        rng = random.Random(seed)
        order = list(range(leaves))
        rng.shuffle(order)
        report = RunReport()
        start = time.perf_counter()
        for left, right in zip(order, order[1:]):
            egraph.union(App("Leaf", left), App("Leaf", right))
            egraph.rebuild()
            report.iterations += 1
        report.rebuild_time = time.perf_counter() - start
        report.saturated = True
        return report

    return Workload(
        name="congruence",
        family="congruence-closure",
        params={"leaves": leaves, "height": height, "seed": seed},
        setup=setup,
        run=run,
        tables_of_interest=("Leaf", "F"),
    )


# ---------------------------------------------------------------------------
# Proof production
# ---------------------------------------------------------------------------


def proof_explain(*, leaves: int, height: int, explains: int, seed: int = 0) -> Workload:
    """Proof-size workload: congruence towers, then a batch of ``explain``\\ s.

    Builds the :func:`congruence_stress` shape (towers of unary ``F`` over
    ``Leaf`` classes), unions the leaves pairwise, rebuilds once, then asks
    the engine to explain ``explains`` seeded-random pairs of tower *tops* —
    equalities that only hold through chains of congruence steps.  The
    report's ``num_matches`` carries the total number of proof steps
    produced, so the regression gate catches semantic drift in proof sizes,
    not just timing.
    """

    def top(index: int) -> App:
        term = App("Leaf", index)
        for _ in range(height):
            term = App("F", term)
        return term

    def setup(egraph: EGraph) -> None:
        egraph.declare_sort("V")
        egraph.constructor("Leaf", ("i64",), "V")
        egraph.constructor("F", ("V",), "V")
        for index in range(leaves):
            egraph.add(top(index))

    def run(egraph: EGraph) -> RunReport:
        import time

        rng = random.Random(seed)
        order = list(range(leaves))
        rng.shuffle(order)
        report = RunReport()
        start = time.perf_counter()
        for left, right in zip(order, order[1:]):
            egraph.union(App("Leaf", left), App("Leaf", right))
        egraph.rebuild()
        total_steps = 0
        for _ in range(explains):
            a, b = rng.randrange(leaves), rng.randrange(leaves)
            total_steps += len(egraph.explain(top(a), top(b)).steps)
        report.iterations = explains
        report.num_matches = total_steps
        report.saturated = True
        report.rebuild_time = time.perf_counter() - start
        return report

    return Workload(
        name="proofs",
        family="proof-production",
        params={"leaves": leaves, "height": height, "explains": explains, "seed": seed},
        setup=setup,
        run=run,
        tables_of_interest=("Leaf", "F"),
    )


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


def triangles(*, n: int, m: int, seed: int = 0) -> Workload:
    """List the triangles of a seeded random graph with ``n`` nodes and
    ``m`` edges.

    ``tri(a, b, c) :- edge(a, b), edge(b, c), edge(a, c)`` is a cyclic
    body, so its search runs generic join over ``edge``'s hash indexes.  The
    first iteration lists every triangle; the later ones find nothing
    new.
    """
    edges = _random_edges(n, m, seed)

    def setup(egraph: EGraph) -> None:
        egraph.relation("edge", ("i64", "i64"))
        egraph.relation("tri", ("i64", "i64", "i64"))
        a, b, c = V("a"), V("b"), V("c")
        egraph.add_rules(
            Rule(
                facts=[App("edge", a, b), App("edge", b, c), App("edge", a, c)],
                actions=[Expr(App("tri", a, b, c))],
                name="triangle",
            )
        )
        for x, y in edges:
            egraph.add(App("edge", x, y))

    return Workload(
        name="triangle",
        family="triangle",
        params={"n": n, "m": m, "seed": seed},
        setup=setup,
        run=lambda egraph: egraph.run(3),
        tables_of_interest=("edge", "tri"),
    )


# ---------------------------------------------------------------------------
# Extraction after small batches
# ---------------------------------------------------------------------------


def _type_equation(rng: random.Random, tag: str) -> Tuple[App, App, App, App]:
    """``(TArrow x1 (... TInt))`` and ``(TArrow c1 (... y))`` with the first
    variable ``x1`` and its solution ``c1``: decomposing the arrows solves
    every ``xk = ck`` and ``y = TInt``."""
    depth = rng.randint(1, 3)
    xs = [App("TVar", f"{tag}x{k}") for k in range(depth)]
    cs = [App(rng.choice(("TInt", "TBool"))) for _ in range(depth)]
    lhs, rhs = App("TInt"), App("TVar", f"{tag}y")
    for x, c in zip(reversed(xs), reversed(cs)):
        lhs, rhs = App("TArrow", x, lhs), App("TArrow", c, rhs)
    return lhs, rhs, xs[0], cs[0]


def extract_batches(*, n: int, batches: int, seed: int = 0) -> Workload:
    """Extract after every small batch on one long-lived engine.

    The set-up saturates a type-inference base (``examples/typeinfer.egg``
    grown): ``n`` seeded arrow equations solved by the ``decompose-arrow``
    rule.  The run phase then does ``batches`` batches; each unions one
    fresh equation, runs up to 20 iterations and extracts the equation's
    first variable, which must come back as its solved type.
    """
    rng = random.Random(seed)
    base = [_type_equation(rng, f"e{k}") for k in range(n)]
    fresh = [_type_equation(rng, f"b{k}") for k in range(batches)]

    def setup(egraph: EGraph) -> None:
        egraph.declare_sort("Type")
        egraph.constructor("TInt", (), "Type")
        egraph.constructor("TBool", (), "Type")
        egraph.constructor("TVar", ("String",), "Type")
        egraph.constructor("TArrow", ("Type", "Type"), "Type", cost=2)
        a, b, c, d = V("a"), V("b"), V("c"), V("d")
        egraph.add_rule(
            Rule(
                facts=[eq(App("TArrow", a, b), App("TArrow", c, d))],
                actions=[Union(a, c), Union(b, d)],
                name="decompose-arrow",
            )
        )
        for lhs, rhs, _var, _solution in base:
            egraph.union(lhs, rhs)
        egraph.run(1000)

    def run(egraph: EGraph) -> RunReport:
        report = RunReport()
        for lhs, rhs, var, solution in fresh:
            egraph.union(lhs, rhs)
            report.merge_with(egraph.run(20))
            extracted = egraph.extract(var)
            if extracted != solution:
                raise AssertionError(f"extracted {extracted} for {var}, expected {solution}")
        return report

    return Workload(
        name="extract",
        family="extract-batches",
        params={"n": n, "batches": batches, "seed": seed},
        setup=setup,
        run=run,
        tables_of_interest=("TVar", "TArrow"),
    )


# ---------------------------------------------------------------------------
# Default suites
# ---------------------------------------------------------------------------


def default_workloads(*, quick: bool = False, seed: int = 0) -> List[Workload]:
    """The standard suite; ``quick`` shrinks parameters to CI-smoke size."""
    if quick:
        return [
            transitive_closure("chain", n=28, seed=seed),
            transitive_closure("random", n=18, m=36, seed=seed),
            transitive_closure("grid", n=4, seed=seed),
            math_rewriting(depth=4, iterations=4, seed=seed),
            congruence_stress(leaves=60, height=4, seed=seed),
            proof_explain(leaves=40, height=4, explains=30, seed=seed),
            triangles(n=30, m=120, seed=seed),
            extract_batches(n=50, batches=20, seed=seed),
        ]
    return [
        transitive_closure("chain", n=72, seed=seed),
        # Sparse (m ≈ 2n): long derivation chains, many semi-naïve
        # iterations — the regime the incremental indexes target.
        transitive_closure("random", n=48, m=96, seed=seed),
        transitive_closure("grid", n=7, seed=seed),
        math_rewriting(depth=5, iterations=5, seed=seed),
        congruence_stress(leaves=220, height=5, seed=seed),
        proof_explain(leaves=150, height=5, explains=100, seed=seed),
        triangles(n=300, m=6000, seed=seed),
        extract_batches(n=1000, batches=200, seed=seed),
    ]
