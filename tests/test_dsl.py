"""Tests for the embedded DSL (``repro.dsl``): the typed public surface.

Covers the handle-based declaration API, operator-overloaded expressions,
rule/rewrite builders, rulesets and schedules, the typed run/check/extract
facade, and — crucially — the *error paths*: every diagnostic the DSL
promises (wrong arity, unknown sort, sort mismatch, unbound right-hand
variable, duplicate declarations, stale handles) is asserted by message.

The hypothesis property at the bottom checks the DSL round-trip: any
expression built through handles lowers to a core term that re-types
(``EGraph.expr_of``) to an equal term with an identical DSL rendering.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import EGraph, rule, set_, union, vars_
from repro.dsl import (
    ArityError,
    CheckError,
    DslError,
    DuplicateDeclarationError,
    Eq,
    SortMismatchError,
    StaleHandleError,
    String,
    UnboundVariableError,
    UnknownSortError,
    eq,
    f64,
    i64,
    lit,
    saturate,
    seq,
    var,
)
from repro.core.terms import TermApp, TermLit, TermVar
from repro.engine import EGraph as EngineEGraph


def math_engine():
    """The shared fixture: the README's Math datatype plus rewrite handles."""
    eg = EGraph()
    math = eg.sort("Math")
    num = eg.constructor("Num", (i64,), math)
    sym = eg.constructor("Var", (String,), math)
    add = eg.constructor("Add", (math, math), math, cost=2, op="+")
    mul = eg.constructor("Mul", (math, math), math, cost=4, op="*")
    shl = eg.constructor("Shl", (math, math), math, cost=1, op="<<")
    return eg, math, num, sym, add, mul, shl


# ---------------------------------------------------------------------------
# Declarations return handles
# ---------------------------------------------------------------------------


def test_sort_and_function_handles():
    eg, math, num, sym, add, mul, shl = math_engine()
    assert math.name == "Math" and math.is_eq_sort
    assert num.name == "Num" and num.arity == 1
    assert num.out_sort is math
    assert "Num(i64) -> Math" == num.signature()
    # The engine-level declaration carries the DSL declaration site.
    assert "test_dsl.py" in eg.engine.decls["Num"].decl_site


def test_builtin_sort_handles_are_shared():
    eg1, eg2 = EGraph(), EGraph()
    r1 = eg1.relation("edge", i64, i64)
    r2 = eg2.relation("edge", i64, i64)
    assert r1.arg_sorts == r2.arg_sorts == (i64, i64)


def test_declarations_accept_sort_names_as_strings():
    eg = EGraph()
    eg.sort("T")
    f = eg.function("f", ("T",), "T")
    assert f.out_sort.name == "T"


def test_expr_building_and_repr():
    eg, math, num, sym, add, mul, shl = math_engine()
    e = mul(num(2), sym("a"))
    assert isinstance(e.term, TermApp)
    assert repr(e) == "Mul(Num(2), Var('a'))"
    assert e.sort is math
    # Operators dispatch through the declared op bindings.
    x, y = vars_("x y", math)
    assert repr(x * y) == "Mul(x, y)"
    assert repr(x + y) == "Add(x, y)"
    assert repr(x << num(1)) == "Shl(x, Num(1))"


def test_primitive_operator_expressions():
    (d,) = vars_("d", i64)
    e = d + 1
    assert repr(e) == "+(d, 1)"
    assert e.sort.name == "i64"
    guard = d < 10
    assert guard.sort.name == "bool"
    refl = 1 + d
    assert repr(refl) == "+(1, d)"


def test_literal_widening_coercion():
    eg = EGraph()
    f = eg.function("f", (f64,), f64, merge="error")
    e = f(1)  # i64 literal widens to f64
    arg = e.term.args[0]
    assert isinstance(arg, TermLit) and arg.value.sort == "f64"
    assert lit(1, f64).term.value.data == 1.0


# ---------------------------------------------------------------------------
# Error paths (the satellite checklist: each asserts the diagnostic)
# ---------------------------------------------------------------------------


def test_arity_mismatch_diagnostic():
    eg, math, num, *_ = math_engine()
    with pytest.raises(ArityError) as exc:
        num(1, 2)
    msg = str(exc.value)
    assert "Num expects 1 argument(s)" in msg
    assert "Num(i64) -> Math" in msg
    assert "got 2" in msg
    assert "declared at" in msg and "test_dsl.py" in msg


def test_unknown_sort_diagnostic():
    eg = EGraph()
    eg.sort("Math")
    with pytest.raises(UnknownSortError) as exc:
        eg.function("F", ("Matth",), "Math")
    msg = str(exc.value)
    assert "declaration of 'F'" in msg
    assert "unknown sort 'Matth'" in msg
    assert "Math" in msg  # known sorts are listed


def test_foreign_sort_handle_diagnostic():
    eg1, eg2 = EGraph(), EGraph()
    foreign = eg1.sort("Math")
    with pytest.raises(UnknownSortError) as exc:
        eg2.function("F", (foreign,), foreign)
    assert "belongs to a different EGraph" in str(exc.value)
    assert "test_dsl.py" in str(exc.value)


def test_duplicate_function_declaration_diagnostic():
    eg, math, num, *_ = math_engine()
    with pytest.raises(DuplicateDeclarationError) as exc:
        eg.constructor("Num", (i64,), math)
    msg = str(exc.value)
    assert "'Num' already declared" in msg
    assert "test_dsl.py" in msg  # points at the original declaration


def test_duplicate_sort_declaration_diagnostic():
    eg = EGraph()
    eg.sort("Math")
    with pytest.raises(DuplicateDeclarationError) as exc:
        eg.sort("Math")
    assert "'Math' already declared" in str(exc.value)


def test_sort_mismatch_on_call_diagnostic():
    eg, math, num, sym, add, mul, shl = math_engine()
    with pytest.raises(SortMismatchError) as exc:
        mul(num(1), 2)  # plain int where a Math expression is needed
    msg = str(exc.value)
    assert "Mul argument 2" in msg
    assert "'Math'" in msg and "int" in msg
    with pytest.raises(SortMismatchError):
        num(sym("a"))  # Math expression where i64 is needed


def test_unbound_rhs_variable_in_rewrite_diagnostic():
    eg, math, *_ = math_engine()
    x, y, z = vars_("x y z", math)
    with pytest.raises(UnboundVariableError) as exc:
        (x * y).to(x * z)
    msg = str(exc.value)
    assert "'z'" in msg
    assert "not bound" in msg
    assert "x, y" in msg  # says what IS bound


def test_unbound_variable_in_rule_action_diagnostic():
    eg, math, num, sym, add, mul, shl = math_engine()
    x, y, z = vars_("x y z", math)
    with pytest.raises(UnboundVariableError) as exc:
        rule(name="bad").when(eq(x, mul(x, y))).then(union(x, z))
    msg = str(exc.value)
    assert "rule 'bad'" in msg and "'z'" in msg
    # let-bound names become available to later actions
    from repro import let

    r = (
        rule(name="ok")
        .when(eq(x, mul(x, y)))
        .then(let("w", mul(y, y)), union(x, var("w", math)))
    )
    assert len(r.actions) == 2


def test_rewrite_requires_eq_sorted_application():
    eg = EGraph()
    f = eg.function("f", (i64,), i64, merge="error")
    (x,) = vars_("x", i64)
    with pytest.raises(SortMismatchError) as exc:
        f(x).to(x)
    assert "eq-sorted" in str(exc.value)
    with pytest.raises(DslError):
        x.to(x)  # a bare variable is not an application


def test_equality_fact_sort_check_and_no_truth_value():
    eg, math, num, *_ = math_engine()
    (d,) = vars_("d", i64)
    with pytest.raises(SortMismatchError):
        Eq(num(1), d)
    fact = num(1) == num(1)
    assert isinstance(fact, Eq)
    with pytest.raises(DslError):
        bool(fact)  # == builds a fact, not a comparison


def test_operator_without_binding_diagnostic():
    eg = EGraph()
    t = eg.sort("T")
    mk = eg.constructor("Mk", (i64,), t)
    with pytest.raises(DslError) as exc:
        mk(1) + mk(2)
    assert "has no '+' operator" in str(exc.value)
    assert "op='+'" in str(exc.value)


def test_duplicate_operator_binding_diagnostic():
    eg, math, *_ = math_engine()
    with pytest.raises(DuplicateDeclarationError) as exc:
        eg.constructor("Mul2", (math, math), math, op="*")
    msg = str(exc.value)
    assert "already binds operator '*'" in msg and "'Mul'" in msg
    # The failed binding must not leave Mul2 half-declared: the corrected
    # retry (without the clashing op) works.
    mul2 = eg.constructor("Mul2", (math, math), math)
    assert mul2.arity == 2


def test_operator_binding_rejected_on_primitive_and_unsupported():
    eg = EGraph()
    t = eg.sort("T")
    # Primitive handles are shared across EGraphs; a binding there would
    # be global and unreachable (primitives always dispatch built-ins).
    with pytest.raises(DslError) as exc:
        eg.function("myadd", (i64, i64), i64, merge="error", op="+")
    assert "eq-sort" in str(exc.value)
    # ...and the failed declaration left no trace on the engine.
    eg.function("myadd", (i64, i64), i64, merge="error")
    with pytest.raises(DslError) as exc:
        eg.constructor("Weird", (t, t), t, op="**")
    assert "supported operators" in str(exc.value)
    eg.constructor("Weird", (t, t), t)  # retry clean


def test_register_literal_coercion_hook():
    from repro.core.values import (
        _LITERAL_COERCIONS,
        Value,
        register_literal_coercion,
    )

    with pytest.raises(ValueError):
        register_literal_coercion("i64", "i64", lambda d: d)
    # Teach the core a bool -> i64 widening; DSL literal lifting uses it.
    register_literal_coercion("bool", "i64", lambda d: Value("i64", int(d)))
    try:
        eg = EGraph()
        f = eg.function("f", (i64,), i64, merge="error")
        arg = f(True).term.args[0]
        assert isinstance(arg, TermLit)
        assert arg.value.sort == "i64" and arg.value.data == 1
    finally:
        del _LITERAL_COERCIONS[("bool", "i64")]


def test_comparison_exprs_have_no_truth_value():
    (x,) = vars_("x", i64)
    for guard in (x != 5, x < 5, x >= 5):
        with pytest.raises(DslError):
            bool(guard)  # `if x != y:` must fail loudly, like `==`


def test_pop_rolls_back_operator_bindings_and_ruleset_bookkeeping():
    eg = EGraph()
    math = eg.sort("Math")
    eg.push()
    mul = eg.constructor("Mul", (math, math), math, op="*")
    x, y = vars_("x y", math)
    rs = eg.ruleset("opt")
    rs.register((x * y).to(y * x))
    assert len(rs) == 1
    eg.pop()
    # The operator binding rolled back with the declaration: re-declaring
    # the same op-bound constructor works (no spurious duplicate).
    mul2 = eg.constructor("Mul", (math, math), math, op="*")
    assert repr(x * y) == "Mul(x, y)"
    assert mul2(x, y).sort is math
    # Ruleset bookkeeping rolled back too.
    assert len(eg.ruleset("opt")) == 0


def test_stale_handle_after_pop_diagnostic():
    eg, math, *_ = math_engine()
    eg.push()
    inner = eg.constructor("Inner", (i64,), math)
    eg.pop()
    with pytest.raises(StaleHandleError) as exc:
        inner(1)
    msg = str(exc.value)
    assert "'Inner'" in msg and "popped" in msg
    # The sort survives the pop; re-declaring the function works again.
    again = eg.constructor("Inner", (i64,), math)
    assert repr(again(1)) == "Inner(1)"


def test_pop_of_a_direct_engine_push_keeps_live_handles():
    # The pop undoes the engine's own push, so G stays declared and its
    # handle stays live: the handles follow the engine, not a DSL stack.
    eg = EGraph()
    eg.push()
    g = eg.relation("G", i64)
    eg.engine.push()
    assert eg.pop() == 1
    assert "G" in eg.engine.decls
    assert eg.function_handle("G") is g
    assert repr(g(1)) == "G(1)"


def test_declarations_made_through_the_engine_get_handles():
    # The engine is the one copy of the state: a sort or function declared
    # on it directly is visible to the DSL without a push/pop round trip.
    eg = EGraph()
    eg.engine.declare_sort("S")
    f = eg.function("f", ("S",), i64, merge="min")
    assert f.arg_sorts[0].name == "S"
    eg.engine.constructor("A", (), "S")
    eg.engine.relation("r", ("S",))
    a, r = eg.function_handle("A"), eg.function_handle("r")
    assert a.decl is eg.engine.decls["A"] and r.decl is eg.engine.decls["r"]
    eg.add(r(a()))
    assert eg.check(r(a())) == 1
    assert eg.extract(a()).expr is not None
    # A function redeclared through the engine gets a fresh handle.
    eg.push()
    eg.engine.relation("q", ("S",))
    eg.pop()
    eg.engine.relation("q", (i64.name,))
    assert eg.function_handle("q").arg_sorts[0] is i64


def test_add_rejects_non_ground_expressions():
    eg, math, num, sym, add, mul, shl = math_engine()
    (x,) = vars_("x", math)
    with pytest.raises(UnboundVariableError) as exc:
        eg.add(mul(x, num(1)))
    assert "free variable" in str(exc.value) and "x" in str(exc.value)


# ---------------------------------------------------------------------------
# End-to-end behaviour through the typed facade
# ---------------------------------------------------------------------------


def test_equality_saturation_end_to_end():
    eg, math, num, sym, add, mul, shl = math_engine()
    x, y = vars_("x y", math)
    eg.register(
        (x * y).to(y * x, name="mul-comm"),
        (x * num(2)).to(x << num(1), name="mul2-to-shl"),
    )
    expr = mul(num(2), sym("a"))
    target = shl(sym("a"), num(1))
    eg.add(expr)
    report = eg.run(10)
    assert report.saturated
    assert eg.check(expr == target) >= 1
    best = eg.extract(expr)
    assert best.cost == 3
    assert best.term == target.term
    assert repr(best.expr) == "Shl(Var('a'), Num(1))"
    assert str(best) == '(Shl (Var "a") (Num 1))'  # .egg syntax


def test_datalog_min_merge_end_to_end():
    eg = EGraph()
    edge = eg.relation("edge", i64, i64)
    path = eg.function("path", (i64, i64), i64, merge="min")
    x, y, z = vars_("x y z", i64)
    (d,) = vars_("d", i64)
    eg.register(
        rule(name="edge-is-path").when(edge(x, y)).then(set_(path(x, y), 1)),
        rule(name="extend-path")
        .when(d == path(x, y), edge(y, z))
        .then(set_(path(x, z), d + 1)),
    )
    for a, b in [(1, 2), (2, 3), (3, 4), (1, 3)]:
        eg.add(edge(a, b))
    assert eg.run(50).saturated
    lengths = {(k[0].data, k[1].data): v.data for k, v in path.rows()}
    assert lengths[(1, 4)] == 2  # via the 1->3 shortcut, not 3 hops
    assert len(path) == len(lengths)


def test_primitive_guard_facts():
    eg = EGraph()
    edge = eg.relation("edge", i64, i64)
    big = eg.relation("big", i64)
    x, y = vars_("x y", i64)
    eg.register(rule(name="big").when(edge(x, y), y > x).then(big(y)))
    eg.add(edge(1, 5))
    eg.add(edge(5, 2))
    eg.run(5)
    assert eg.check(big(lit(5))) == 1
    with pytest.raises(CheckError):
        eg.check(big(lit(2)))


def test_disequality_guard():
    eg = EGraph()
    edge = eg.relation("edge", i64, i64)
    loopless = eg.relation("loopless", i64, i64)
    x, y = vars_("x y", i64)
    eg.register(rule(name="nl").when(edge(x, y), x != y).then(loopless(x, y)))
    eg.add(edge(1, 1))
    eg.add(edge(1, 2))
    eg.run(5)
    assert eg.check(loopless(lit(1), lit(2))) == 1
    with pytest.raises(CheckError):
        eg.check(loopless(lit(1), lit(1)))


def test_ruleset_objects_and_schedules():
    eg, math, num, sym, add, mul, shl = math_engine()
    opt = eg.ruleset("opt")
    fold = eg.ruleset("fold")

    @opt.register
    def mul_comm():
        a, b = vars_("a b", math)
        return (a * b).to(b * a)

    @fold.register
    def fold_rules():
        a, b = vars_("a b", math)
        return [
            (a * num(1)).to(a),
            (a + num(0)).to(a),
        ]

    assert opt.rule_names == ["mul_comm"]
    assert len(fold.rule_names) == 2
    expr = mul(num(1), sym("v"))
    eg.add(expr)
    # Phase 1: only commutativity; phase 2: folding to the bare symbol.
    report = eg.run(seq(opt.saturate(), fold.repeat(3)))
    assert report.iterations >= 2
    assert eg.extract(expr).term == sym("v").term
    # A default-ruleset run must not fire the named rulesets' rules.
    before = eg.stats()["updates"]
    eg.run(3)
    assert eg.stats()["updates"] == before


def test_register_on_named_ruleset_via_keyword():
    eg, math, num, sym, add, mul, shl = math_engine()
    x, y = vars_("x y", math)
    names = eg.register((x * y).to(y * x), ruleset="opt")
    assert names and eg.ruleset("opt").rule_names == names
    assert eg.engine.rulesets["opt"] == names


def test_run_argument_validation():
    eg, *_ = math_engine()
    with pytest.raises(DslError):
        eg.run(saturate(), limit=3)
    with pytest.raises(DslError):
        eg.run(10, limit=5)  # contradictory spellings of the limit
    with pytest.raises(DslError):
        eg.run("fast")
    report = eg.run()  # default: one iteration
    assert report.iterations <= 1


def test_default_ruleset_handle_tracks_registrations():
    eg, math, *_ = math_engine()
    default = eg.ruleset()
    x, y = vars_("x y", math)
    names = eg.register((x * y).to(y * x))
    assert default.rule_names == names and len(default) == 1


def test_ruleset_handle_reads_rules_added_through_the_engine():
    eg, math, *_ = math_engine()
    opt = eg.ruleset("opt")
    x, y = vars_("x y", math)
    (direct,) = (x * y).to(y * x, name="direct").to_engine(ruleset="opt")
    eg.engine.add_rule(direct)
    assert eg.engine.rulesets["opt"] == ["direct"]
    assert opt.rule_names == ["direct"] and len(opt) == 1


def test_scoped_snapshot_context_manager():
    eg, math, num, sym, add, mul, shl = math_engine()
    a2 = mul(num(2), sym("a"))
    eg.add(a2)
    with eg.scoped():
        x, y = vars_("x y", math)
        eg.register((x * y).to(y * x))
        eg.run(5)
        assert eg.check(a2 == mul(sym("a"), num(2)))
    # The union (and the rule) vanish with the scope.
    with pytest.raises(CheckError):
        eg.check(a2 == mul(sym("a"), num(2)))
    assert eg.engine.rules == {}


def test_union_and_are_equal():
    eg, math, num, sym, add, mul, shl = math_engine()
    eg.union(num(1), add(num(1), num(0)))
    assert eg.are_equal(num(1), add(num(1), num(0)))
    with pytest.raises(SortMismatchError):
        eg.union(lit(1), lit(2))  # primitives cannot be unioned


def test_query_returns_substitutions():
    eg = EGraph()
    edge = eg.relation("edge", i64, i64)
    eg.add(edge(1, 2))
    eg.add(edge(2, 3))
    x, y = vars_("x y", i64)
    matches = eg.query(edge(x, y))
    assert {(m["x"].data, m["y"].data) for m in matches} == {(1, 2), (2, 3)}


def test_engine_escape_hatch_accepts_dsl_exprs():
    """Exprs implement __term__, so the string-level engine takes them raw."""
    eg, math, num, sym, add, mul, shl = math_engine()
    engine: EngineEGraph = eg.engine
    value = engine.add(num(7))  # Expr passed where TermLike is expected
    assert value.sort == "Math"
    engine.union(num(7), add(num(7), num(0)))
    assert engine.are_equal(num(7), add(num(7), num(0)))


# ---------------------------------------------------------------------------
# Round-trip property: DSL -> core terms -> DSL
# ---------------------------------------------------------------------------

_rt_engine = math_engine()


def _rt_exprs():
    eg, math, num, sym, add, mul, shl = _rt_engine
    leaves = st.one_of(
        st.integers(min_value=-8, max_value=8).map(num),
        st.sampled_from("abc").map(sym),
        st.sampled_from(["x", "y", "z"]).map(lambda n: var(n, math)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: add(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: mul(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: shl(p[0], p[1])),
        ),
        max_leaves=12,
    )


@settings(max_examples=120, deadline=None)
@given(_rt_exprs())
def test_roundtrip_dsl_terms_dsl(expr):
    """Lowering to core terms and re-typing preserves term and rendering."""
    eg, math, *_ = _rt_engine
    term = expr.__term__()
    rebuilt = eg.expr_of(term, expected=math)
    assert rebuilt.term == term
    assert repr(rebuilt) == repr(expr)
    assert rebuilt.sort.name == "Math"


def test_expr_of_rejects_ill_typed_terms():
    eg, math, num, sym, add, mul, shl = math_engine()
    with pytest.raises(ArityError):
        eg.expr_of(TermApp("Num", ()))
    with pytest.raises(DslError):
        eg.expr_of(TermApp("Nope", (TermVar("x"),)))
    with pytest.raises(SortMismatchError):
        eg.expr_of(TermApp("Num", (sym("a").term,)))
    with pytest.raises(DslError):
        eg.expr_of(TermVar("x"))  # no expected sort to adopt


def test_pop_beyond_depth_raises_dsl_error_and_preserves_scope():
    eg = EGraph()
    with pytest.raises(DslError, match=r"pop 1 without matching push \(stack depth 0\)"):
        eg.pop()
    eg.push()
    s = eg.sort("Scoped")
    with pytest.raises(DslError, match=r"pop 2 without matching push \(stack depth 1\)"):
        eg.pop(2)
    # The failed pop neither consumed the snapshot nor staled the handle.
    c = eg.constructor("C", (), s)
    eg.add(c())
    assert eg.pop() == 0
    with pytest.raises(StaleHandleError):
        c()
