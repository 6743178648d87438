"""The compiled hot path: slot plans, action programs, cache invalidation.

Covers the compilation layer (``repro.core.compile`` +
``repro.engine.program``): compiled searches must agree with the naive
oracle in ``tests/reference.py``, compiled action programs must write the
rows their actions name, whether a rule fires them or ``run_actions`` runs
them at top level, and every event that can strand a stale plan — a rule
edited through a ruleset, push/pop around a compiled run — must recompile
(no stale-slot reads).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compile import assign_slots
from repro.core.database import Row, Table
from repro.core.schema import FunctionDecl
from repro.core.terms import App, L, V
from repro.core.values import I64, UNIT, Value, i64
from repro.engine import EGraph, EGraphError, Rule
from repro.engine.actions import Delete, Expr, Let, Panic, Set, Union, run_actions
from repro.engine.rule import compile_facts

from .conftest import EXECUTORS, forced_executor
from .reference import evaluate


def tc_engine(edges=((1, 2), (2, 3), (3, 4), (1, 3))):
    eg = EGraph()
    eg.relation("edge", (I64, I64))
    eg.relation("path", (I64, I64))
    eg.add_rules(
        Rule(
            name="base",
            facts=[App("edge", V("x"), V("y"))],
            actions=[Expr(App("path", V("x"), V("y")))],
        ),
        Rule(
            name="step",
            facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
            actions=[Expr(App("path", V("x"), V("z")))],
        ),
    )
    for a, b in edges:
        eg.add(App("edge", a, b))
    return eg


def path_rows(eg):
    return sorted((k[0][1], k[1][1]) for k, _v in eg.table_rows("path"))


# -- slot assignment ----------------------------------------------------------


def test_assign_slots_table_vars_first_then_prim_vars():
    query = compile_facts(
        [App("edge", V("x"), V("y")), App(">", V("y"), V("bound"))],
        lambda name: name == "edge",
    )
    slot_of, names = assign_slots(query)
    assert names[:2] == ("x", "y")
    assert "bound" in slot_of and slot_of["bound"] == names.index("bound")
    assert len(names) == len(set(names)) == len(slot_of)


# -- compiled search vs the naive oracle --------------------------------------


def test_compiled_search_matches_interpreted(executor):
    eg = tc_engine()
    eg.run(10)
    matches = eg.query(App("path", V("a"), V("b")))
    assert len(matches) == len(path_rows(eg))
    rule = eg.rules["step"]
    exec_ = eg.rule_exec(rule)
    compiled = sorted(
        sorted(exec_.substitution(m).items()) for m in exec_.search_full(eg.tables)
    )
    oracle = sorted(sorted(m.items()) for m in evaluate(eg.tables, eg.registry, rule.query))
    assert compiled == oracle


def test_all_strategies_agree_on_closure():
    closures = []
    for name in EXECUTORS:
        with forced_executor(name):
            eg = tc_engine(edges=((1, 2), (2, 3), (2, 4), (4, 1)))
            report = eg.run(16)
        assert report.saturated
        closures.append(path_rows(eg))
    assert closures[0] == closures[1]


def test_compiled_prim_guards_and_binders():
    eg = EGraph()
    eg.relation("n", (I64,))
    eg.relation("big-double", (I64,))
    eg.add_rule(
        Rule(
            name="double-big",
            facts=[
                App("n", V("x")),
                App(">", V("x"), L(2)),
                eqf("y", App("*", V("x"), L(2))),
            ],
            actions=[Expr(App("big-double", V("y")))],
        )
    )
    for value in (1, 2, 3, 5):
        eg.add(App("n", value))
    eg.run(5)
    assert sorted(k[0][1] for k, _v in eg.table_rows("big-double")) == [6, 10]


def eqf(name, term):
    from repro.engine import eq

    return eq(V(name), term)


def test_unsafe_prim_query_matches_nothing_compiled_and_interpreted():
    eg = EGraph()
    eg.relation("n", (I64,))
    # "y" is never bound by any atom or primitive output: the oracle fails
    # every match; the compiled plan must do the same.
    eg.add_rule(
        Rule(
            name="unsafe",
            facts=[App("n", V("x")), App(">", V("y"), L(0))],
            actions=[Expr(App("n", V("x")))],
        )
    )
    eg.add(App("n", 1))
    report = eg.run(3)
    assert report.per_rule_matches["unsafe"] == 0
    query = eg.rules["unsafe"].query
    assert eg.search(query) == evaluate(eg.tables, eg.registry, query) == []


# -- compiled action programs ------------------------------------------------


def test_action_program_agrees_with_run_actions():
    # One evaluator serves both entry points: a rule's program runs over a
    # match tuple, run_actions over an empty register file.  Both must
    # write exactly the rows the actions name.
    def build():
        eg = EGraph()
        eg.declare_sort("S")
        eg.constructor("f", (I64,), "S")
        eg.function("g", (I64,), I64, merge="min")
        eg.relation("r", (I64,))
        return eg

    actions = [
        Let("v", App("+", L(1), L(2))),
        Set(App("g", L(1)), V("v")),
        Expr(App("r", V("v"))),
        Union(App("f", L(1)), App("f", L(2))),
        Delete(App("r", V("v"))),
        Set(App("g", L(1)), L(2)),
    ]

    top_level = build()
    assert run_actions(top_level, actions, {}) == {"v": i64(3)}

    fired = build()
    rule_name = fired.add_rule(Rule(name="all-ops", facts=[], actions=actions))
    fired.run(1)
    assert fired.rules[rule_name].last_run > 0

    for eg in (top_level, fired):
        assert dict(eg.table_rows("g")) == {(i64(1),): i64(2)}  # min(3, 2)
        assert dict(eg.table_rows("r")) == {}  # r(3) asserted, then deleted
        assert eg.are_equal(App("f", 1), App("f", 2))


def test_action_program_panic_and_fire_time_errors():
    from repro.engine import EGraphPanic
    from repro.engine.program import compile_actions, compile_term

    eg = EGraph()
    eg.relation("r", (I64,))
    eg.add_rule(Rule(name="boom", facts=[], actions=[Panic("no")]))
    with pytest.raises(EGraphPanic, match="no"):
        eg.run(1)

    # An unbound variable is an error when its op runs, not when it compiles:
    # a rule holding one may never fire.
    program = compile_term(eg, V("ghost"), {})
    with pytest.raises(EGraphError, match="unbound variable 'ghost'"):
        program.value()
    # A let shadowing a query variable rebinds the name for later actions.
    program = compile_actions(
        eg, [Let("x", L(7)), Expr(App("r", V("x")))], {"x": 0}, 1
    )
    program.execute((i64(3),))
    assert (i64(7),) in eg.tables["r"].data


# -- cache invalidation: rule edits, push/pop --------------------------------


def test_engine_replace_rule_recompiles_and_resets_watermark():
    eg = tc_engine()
    eg.run(10)
    before = path_rows(eg)
    # Edit the step rule to derive reversed paths instead.
    eg.replace_rule(
        Rule(
            name="step",
            facts=[App("edge", V("x"), V("y"))],
            actions=[Expr(App("path", V("y"), V("x")))],
        )
    )
    assert eg.rules["step"].last_run == 0  # full re-search, not a delta
    eg.run(10)
    after = path_rows(eg)
    assert set(before) < set(after)
    assert (2, 1) in after  # the edited rule actually ran compiled afresh

    with pytest.raises(EGraphError, match="unknown rule"):
        eg.replace_rule(Rule(name="nope", facts=[], actions=[Expr(App("path", L(0), L(0)))]))
    with pytest.raises(EGraphError, match="needs a named rule"):
        eg.replace_rule(Rule(name=None, facts=[], actions=[Expr(App("path", L(0), L(0)))]))
    with pytest.raises(EGraphError, match="cannot move rule"):
        eg.replace_rule(
            Rule(
                name="step",
                facts=[App("edge", V("x"), V("y"))],
                actions=[Expr(App("path", V("x"), V("y")))],
                ruleset="other",
            )
        )


def test_dsl_ruleset_replace_recompiles():
    from repro.dsl import EGraph as DslEGraph
    from repro.dsl import i64 as i64_sort
    from repro.dsl import rule, var

    eg = DslEGraph()
    num = eg.relation("num", i64_sort)
    bumped = eg.relation("bumped", i64_sort)
    rs = eg.ruleset("edits")

    x = var("x", i64_sort)
    rs.register(rule(num(x), name="bump").then(bumped(x + 1)))
    eg.add(num(10))
    eg.run(rs.run(4))
    assert (i64(11),) in eg.engine.tables["bumped"].data

    # Edit the rule through the ruleset: same name, new body.
    rs.replace(rule(num(x), name="bump").then(bumped(x + 100)))
    eg.add(num(20))
    eg.run(rs.run(4))
    data = eg.engine.tables["bumped"].data
    assert (i64(120),) in data and (i64(110),) in data
    assert (i64(21),) not in data  # old program is unreachable

    with pytest.raises(EGraphError, match="unknown rule"):
        rs.replace(rule(num(x), name="ghost").then(bumped(x)))

    # A rejected replace must not corrupt the caller's engine-rule object.
    engine_rule = Rule(
        name="bump",
        facts=[App("num", V("x"))],
        actions=[Expr(App("bumped", V("x")))],
        ruleset="elsewhere",
    )
    other = eg.ruleset("other")
    with pytest.raises(EGraphError, match="cannot move rule"):
        other.replace(engine_rule)
    assert engine_rule.ruleset == "elsewhere"


def test_push_pop_across_compiled_run(executor):
    eg = tc_engine()
    eg.run(10)  # compile + run
    before = path_rows(eg)
    epoch = eg.compile_epoch
    eg.push()
    # A capture swaps nothing a compiled executor holds; only a restore does.
    assert eg.compile_epoch == epoch
    eg.relation("marked", (I64,))
    eg.add_rule(
        Rule(
            name="mark",
            facts=[App("path", V("x"), V("y"))],
            actions=[Expr(App("marked", V("x")))],
        )
    )
    eg.add(App("edge", 4, 5))
    eg.run(10)
    assert (4, 5) in path_rows(eg)
    assert len(eg.tables["marked"]) > 0
    eg.pop()
    assert eg.compile_epoch != epoch
    # The popped scope's table and rule are gone; compiled plans of the
    # surviving rules were invalidated and recompile cleanly.
    assert "marked" not in eg.tables and "mark" not in eg.rules
    assert path_rows(eg) == before
    eg.add(App("edge", 4, 6))
    eg.run(10)
    assert (1, 6) in path_rows(eg)


def test_one_off_queries_never_touch_the_plan_cache(executor):
    from repro.engine.compilecache import CACHE

    eg = tc_engine(edges=[(n, n + 1) for n in range(15)])
    eg.run(20)  # every rule's plan is now cached
    before = CACHE.stats()
    pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)][:100]
    for a, b in pairs:
        assert eg.check(App("path", a, b)) == 1
    assert CACHE.stats() == before


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), st.integers(0, 5), st.integers(0, 5)),
        st.just(("run",)),
        st.just(("push",)),
        st.just(("pop",)),
        st.just(("edit",)),
    ),
    max_size=14,
)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_invalidation_interleavings_agree_across_strategies(ops):
    """Random interleavings of run/push/pop/edit on two engines.

    Engine A runs every rule on index-nested-loop join, engine B on generic
    join.  Whatever the interleaving, both must end with identical path
    closures — a stale compiled plan or program on either side would
    diverge.
    """
    engines = [tc_engine(edges=()), tc_engine(edges=())]

    def run_all(limit):
        # Executors compile lazily, on the first run after an epoch bump.
        for eg, name in zip(engines, EXECUTORS):
            with forced_executor(name):
                eg.run(limit)

    depth = 0
    edited = False
    for op in ops:
        if op[0] == "edge":
            for eg in engines:
                eg.add(App("edge", op[1], op[2]))
        elif op[0] == "run":
            run_all(8)
        elif op[0] == "push":
            depth += 1
            for eg in engines:
                eg.push()
        elif op[0] == "pop" and depth > 0:
            depth -= 1
            for eg in engines:
                eg.pop()
        elif op[0] == "edit":
            edited = not edited
            action = (
                Expr(App("path", V("y"), V("x")))
                if edited
                else Expr(App("path", V("x"), V("z")))
            )
            facts = (
                [App("edge", V("x"), V("y"))]
                if edited
                else [App("path", V("x"), V("y")), App("edge", V("y"), V("z"))]
            )
            for eg in engines:
                eg.replace_rule(Rule(name="step", facts=facts, actions=[action]))
    run_all(24)
    assert path_rows(engines[0]) == path_rows(engines[1])


# -- table write batching -----------------------------------------------------


def unit_decl(name="t", arity=2):
    return FunctionDecl(name=name, arg_sorts=(I64,) * arity, out_sort=UNIT)


def test_batch_defers_then_flushes_index_maintenance():
    table = Table(FunctionDecl(name="f", arg_sorts=(I64,), out_sort=I64))
    table.put((i64(1),), i64(10), 0)
    index = table.index((0,))
    assert (i64(1),) in index

    table.begin_batch()
    table.put((i64(2),), i64(20), 1)
    table.put((i64(2),), i64(21), 1)  # overwrite coalesces
    table.remove((i64(1),))
    # Reads through data stay current inside the batch.
    assert table.get((i64(2),)) == i64(21)
    # An index read inside the batch flushes pending maintenance first.
    live = table.index((0,))
    assert (i64(2),) in live and (i64(1),) not in live
    table.end_batch()

    with pytest.raises(RuntimeError, match="end_batch without"):
        table.end_batch()
    # Output-column index reflects only the final value of the batch.
    out_index = table.index((1,))
    assert (i64(21),) in out_index and (i64(20),) not in out_index


def test_batch_insert_then_remove_is_a_net_noop():
    from repro.core.values import UNIT_VALUE

    table = Table(unit_decl())
    table.index((0,))
    table.begin_batch()
    key = (i64(7), i64(8))
    table.put(key, UNIT_VALUE, 3)
    table.remove(key)
    table.end_batch()
    assert key not in table
    assert (i64(7),) not in table.index((0,))


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "remove", "flush-read"]),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(0, 4),
        ),
        max_size=24,
    )
)
def test_batched_and_unbatched_tables_agree(ops):
    """The same op sequence on a batched and an unbatched table must leave
    identical rows and hash indexes."""
    decl = FunctionDecl(name="f", arg_sorts=(I64,), out_sort=I64)
    batched, plain = Table(decl), Table(decl)
    for table in (batched, plain):
        table.index((0,))
        table.index((1,))
        table.index((0, 1))
    batched.begin_batch()
    for op, a, value, ts in ops:
        key = (i64(a),)
        if op == "put":
            batched.put(key, i64(value), ts)
            plain.put(key, i64(value), ts)
        elif op == "remove":
            assert batched.remove(key) == plain.remove(key)
        else:
            # Index access mid-batch flushes; both sides must agree there too.
            assert batched.index((0,)) == plain.index((0,))
    batched.end_batch()
    assert dict(batched.data.items()) == dict(plain.data.items())
    assert batched.index((0,)) == plain.index((0,))
    assert batched.index((1,)) == plain.index((1,))
    assert batched.index((0, 1)) == plain.index((0, 1))
    assert sorted(batched.new_keys(0)) == sorted(plain.new_keys(0))


# -- __slots__ hot objects ----------------------------------------------------


def test_value_and_row_are_slim_and_well_behaved():
    value = Value(I64, 41)
    assert value.sort == I64 and value.data == 41
    assert value == i64(41) and hash(value) == hash(i64(41))
    assert value != i64(40) and value != Value("f64", 41)
    assert repr(value) == "i64#41"
    assert not hasattr(value, "__dict__")

    row = Row(value, 3)
    assert row.value is value and row.timestamp == 3
    assert row == Row(i64(41), 3) and row != Row(i64(41), 4)
    assert "Row(" in repr(row)
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.extra = 1  # __slots__: no stray attributes on hot objects

    import pickle

    assert pickle.loads(pickle.dumps(value)) == value
