"""Hash-index lifecycle invariants (core/database.py).

A table builds a hash index per column group from the current rows on
first request, keeps it exact on every write, and drops it when a restore
or bulk load installs different rows.  The load-bearing property: through
arbitrary interleavings of insert / overwrite / delete / batch / union /
rebuild / push / pop / fork / load, every built index equals one built
fresh from the table's rows.  Directed cases pin the mechanics, including
copy-on-write snapshots; a hypothesis property drives random op
sequences; engine-level cases cover unions, rebuilding and snapshot
restore through the real write paths, and pin why maintenance stays: a
large table written every iteration is indexed once, not once per
search.  Their rule bodies are acyclic; the ``generic_join`` fixture
forces the cyclic plan shape, whose searches read more column groups.
"""

import random
from collections import Counter

import pytest

from repro.core.compile import CompiledQuery, assign_slots, structural_var_order
from repro.core.builtins import default_registry
from repro.core.database import Table
from repro.core.query import Query, QVar, TableAtom
from repro.core.schema import FunctionDecl
from repro.core.terms import App, V
from repro.core.values import I64, UNIT_VALUE, i64
from repro.engine import EGraph, Rule
from repro.engine.actions import Expr

from .conftest import EXECUTORS, forced_executor
from .reference import evaluate


def key(*nums):
    return tuple(i64(n) for n in nums)


def fresh_index(table, columns):
    """Reference semantics: a hash index built from scratch over the rows."""
    fresh = {}
    for k, value in ((k, row.value) for k, row in table.data.items()):
        proj = tuple(value if col == table.arity else k[col] for col in columns)
        fresh.setdefault(proj, set()).add(k)
    return fresh


def assert_indexes_exact(table):
    """Every index the table has built equals one built fresh from its rows."""
    for columns in list(table._indexes):
        built = table.index(columns)
        assert all(built.values())  # no empty entry survives a removal
        assert {proj: set(keys) for proj, keys in built.items()} == fresh_index(
            table, columns
        )


def make_table(name="f", arity=2, out="i64"):
    return Table(FunctionDecl(name, tuple("i64" for _ in range(arity)), out))


# ---------------------------------------------------------------------------
# Directed lifecycle cases.  The first three keep the names they had when a
# table also kept tries; the hash index now carries the same contract.
# ---------------------------------------------------------------------------


def test_trie_insert_remove_prunes_empty_nodes():
    table = make_table()
    by_first = table.index((0,))
    table.put(key(1, 2), i64(10), 0)
    table.put(key(1, 3), i64(10), 1)
    assert by_first == {key(1): {key(1, 2): None, key(1, 3): None}}
    table.remove(key(1, 2))
    assert by_first == {key(1): {key(1, 3): None}}
    table.remove(key(1, 3))
    assert by_first == {}
    # A batched removal prunes the emptied entry when the batch flushes.
    table.put(key(4, 5), i64(40), 2)
    table.begin_batch()
    table.remove(key(4, 5))
    table.end_batch()
    assert by_first == {}


def test_trie_follows_value_changes_and_ignores_restamps():
    table = make_table()
    full = table.index((0, 1, 2))
    table.put(key(1, 2), i64(10), 0)
    table.put(key(3, 4), i64(30), 1)
    # An overwrite moves the row: its old value leaves the index.
    table.put(key(1, 2), i64(20), 2)
    expected = {
        (i64(1), i64(2), i64(20)): {key(1, 2): None},
        (i64(3), i64(4), i64(30)): {key(3, 4): None},
    }
    assert full == expected
    # A restamp (same value, later timestamp) is invisible to the index,
    # but the write log still reports it as new.
    table.put(key(3, 4), i64(30), 5)
    assert table.index((0, 1, 2)) is full and full == expected
    assert table.new_keys(5) == [key(3, 4)]


def test_trie_builds_from_existing_rows_on_first_request():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, 0)
    assert not table._indexes
    full = table.index((0, 1, 2))
    assert {proj: set(keys) for proj, keys in full.items()} == fresh_index(
        table, (0, 1, 2)
    )
    assert table.index((0, 1, 2)) is full
    assert list(table._indexes) == [(0, 1, 2)]


def test_restore_and_load_rows_drop_the_indexes_of_changed_rows():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, 0)
    index = table.index((0, 1))
    snapshot = table.snapshot()
    table.restore(snapshot)  # nothing written since the capture: kept
    assert table._indexes[(0, 1)] is index
    table.put(key(3, 4), UNIT_VALUE, 1)
    table.remove(key(1, 2))
    table.restore(snapshot)
    assert not table._indexes
    assert table.index((0, 1)) == {key(1, 2): {key(1, 2): None}}
    table.load_rows([(key(5, 6), UNIT_VALUE, 0)])
    assert not table._indexes
    assert table.index((1, 0)) == {key(6, 5): {key(5, 6): None}}


def rows_of(data):
    """A row dict as an ordered list: insertion order, outputs, timestamps."""
    return [(k, row.value, row.timestamp) for k, row in data.items()]


def test_snapshot_of_an_unwritten_table_copies_nothing():
    table = make_table()
    table.put(key(1, 2), i64(10), 0)
    index = table.index((0,))
    data, log_ts, log_keys = table.data, table._log_ts, table._log_keys
    state = table.snapshot()
    assert state[0] is data and state[1] is log_ts and state[2] is log_keys
    # Restoring before any write keeps the containers and the hash index.
    table.restore(state)
    assert table.data is data and table._indexes[(0,)] is index
    # The first write copies this table once; the capture is untouched.
    table.put(key(3, 4), i64(30), 1)
    assert table.data is not data and table._indexes[(0,)] is index
    assert rows_of(state[0]) == [(key(1, 2), i64(10), 0)]
    assert state[1] == [0] and state[2] == [key(1, 2)]
    assert set(index) == {(i64(1),), (i64(3),)}


def test_restoring_one_capture_twice_after_writes_on_both_sides_of_a_fork():
    parent = make_table()
    for n in range(4):
        parent.put(key(n, n), i64(n), n)
    parent.index((0, 1, 2))
    capture = parent.snapshot()
    expected = rows_of(parent.data)
    child = make_table()
    child.restore(capture)  # a fork: the child shares the parent's rows
    parent.put(key(9, 9), i64(9), 5)
    parent.remove(key(0, 0))
    child.put(key(0, 0), i64(99), 6)
    child.remove(key(3, 3))
    assert rows_of(parent.data) != rows_of(child.data)
    assert rows_of(capture[0]) == expected
    for table in (parent, child, parent, child):
        table.restore(capture)
        assert rows_of(table.data) == expected
        assert table.new_keys(2) == [key(2, 2), key(3, 3)]
        table.put(key(7, 7), i64(7), 7)  # dirty it again before the next round
    assert rows_of(capture[0]) == expected
    parent.restore(capture)
    assert_indexes_exact(parent)
    assert {proj: set(keys) for proj, keys in parent.index((1,)).items()} == {
        (i64(n),): {key(n, n)} for n in range(4)
    }


# ---------------------------------------------------------------------------
# Query planning
# ---------------------------------------------------------------------------


def test_plan_query_is_structural_and_deterministic():
    x, y, z = QVar("x"), QVar("y"), QVar("z")
    query = Query(
        atoms=[
            TableAtom("path", (x, y), QVar("o1")),
            TableAtom("edge", (y, z), QVar("o2")),
        ]
    )
    # y is held by two atoms -> first; ties broken by first occurrence.
    assert structural_var_order(query.atoms) == ["y", "x", "o1", "z", "o2"]
    slot_of, names = assign_slots(query)
    with forced_executor("generic"):
        plans = [
            CompiledQuery(query, slot_of, len(names), default_registry())
            for _ in range(2)
        ]
    small = {name: make_table(name, 2, "Unit") for name in ("path", "edge")}
    large = {name: make_table(name, 2, "Unit") for name in ("path", "edge")}
    for n in range(50):
        large["path"].put(key(n, n + 1), UNIT_VALUE, 0)
    for executor, tables in zip(plans, (small, large)):
        executor.search(tables, None, 0, lambda match: None)
        executor.search(tables, 1, 0, lambda match: None)

    def roles(executor):
        """Per plan, per node: (atom, role) for the picked or fixed cover
        and each probe."""
        return {
            plan: [
                [(a.func, "either") for a in accesses]
                if cover is None
                else [(cover.func, "cover")] + [(a.func, "probe") for a in probes]
                for cover, probes, accesses, _others in nodes
            ]
            for plan, nodes in executor._plans.items()
        }

    # The same structure gives the same plans, whatever the table sizes.
    assert roles(plans[0]) == roles(plans[1])
    # One node per variable (the lonely outputs o1 and o2 bind with their
    # atom's last variable): y, covered by whichever atom has fewer
    # candidates, then x from path and z from edge under the bound y.
    assert roles(plans[0])[(None, None)] == [
        [("path", "either"), ("edge", "either")],
        [("path", "cover")],
        [("edge", "cover")],
    ]
    # A delta atom is the first node: edge's new rows, probing path on y.
    assert roles(plans[0])[(1, None)] == [
        [("edge", "cover"), ("path", "probe")],
        [("path", "cover")],
    ]


# ---------------------------------------------------------------------------
# Engine-level invariants: the real write paths
# ---------------------------------------------------------------------------


@pytest.fixture
def generic_join():
    with forced_executor("generic"):
        yield


def tc_engine():
    egraph = EGraph()
    egraph.relation("edge", ("i64", "i64"))
    egraph.relation("path", ("i64", "i64"))
    egraph.add_rules(
        Rule(
            facts=[App("edge", V("x"), V("y"))],
            actions=[Expr(App("path", V("x"), V("y")))],
            name="base",
        ),
        Rule(
            facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
            actions=[Expr(App("path", V("x"), V("z")))],
            name="step",
        ),
    )
    return egraph


def built(egraph):
    """The column groups each table has indexed."""
    return {name: sorted(t._indexes) for name, t in egraph.tables.items() if t._indexes}


def assert_all_indexes_match(egraph):
    for table in egraph.tables.values():
        assert_indexes_exact(table)


def test_first_generic_search_builds_planned_orderings(generic_join):
    egraph = tc_engine()
    egraph.add(App("edge", 1, 2))
    assert not built(egraph)  # adding a rule builds nothing
    egraph.run(2)
    # ``base`` reads every edge row; ``step`` binds y first, from the
    # distinct values of path's column 1 or edge's column 0 (or from the
    # delta), and probes the other atom on that column.
    assert built(egraph) == {"edge": [(0,)], "path": [(1,)]}


def test_indexes_survive_run_union_rebuild_pushpop_interleaving(generic_join):
    egraph = tc_engine()
    for a, b in [(1, 2), (2, 3), (3, 4)]:
        egraph.add(App("edge", a, b))
    assert_all_indexes_match(egraph)
    egraph.run(10)
    assert_all_indexes_match(egraph)

    egraph.push()
    egraph.add(App("edge", 4, 5))
    egraph.run(10)
    assert_all_indexes_match(egraph)
    egraph.pop()
    # Tables written since the push dropped their indexes; the next search
    # rebuilds them from the restored rows.
    assert_all_indexes_match(egraph)
    assert len(egraph.tables["edge"]) == 3

    egraph.run(10)
    assert_all_indexes_match(egraph)


def test_indexes_follow_canonicalization_during_rebuild(generic_join):
    egraph = EGraph()
    egraph.declare_sort("V")
    egraph.constructor("Leaf", ("i64",), "V")
    egraph.constructor("F", ("V",), "V")
    egraph.add_rule(
        Rule(facts=[App("F", V("x"))], actions=[Expr(App("F", App("F", V("x"))))], name="noop")
    )
    a = egraph.add(App("F", App("Leaf", 1)))
    b = egraph.add(App("F", App("Leaf", 2)))
    egraph.run(1)
    for table in egraph.tables.values():
        for columns in [(0,), (1,), (0, 1)]:
            table.index(columns)
    assert_all_indexes_match(egraph)
    # Union the leaves: rebuild rewrites F-rows to canonical ids; the
    # maintained indexes must track every remove/re-insert it performs.
    egraph.union(App("Leaf", 1), App("Leaf", 2))
    egraph.rebuild()
    assert egraph.canonicalize(a) == egraph.canonicalize(b)
    assert_all_indexes_match(egraph)
    egraph.run(2)
    assert_all_indexes_match(egraph)


BUILT_BY_TC = {
    "indexed": {"edge": [(0,)]},
    "generic": {"edge": [(0,)], "path": [(0,), (1,)]},
}


def test_generic_and_indexed_agree_and_build_only_what_they_read():
    results = {}
    for name in EXECUTORS:
        with forced_executor(name):
            egraph = tc_engine()
            for a, b in [(1, 2), (2, 3), (3, 1), (3, 4)]:
                egraph.add(App("edge", a, b))
            egraph.run(12)
            assert egraph.check(App("path", 1, 4)) == 1
            assert len(egraph.query(App("path", V("a"), V("b")))) == 12
        # Either shape joins path and edge on y alone, and rebuilding
        # builds nothing more.  Index-nested-loop never reads path by y:
        # path is the empty table on the first search and the delta atom on
        # every later one.  Generic join binds the one-off query of every
        # path row one variable at a time, x first, so it reads path by x.
        assert built(egraph) == BUILT_BY_TC[name]
        assert_all_indexes_match(egraph)
        results[name] = sorted(
            (k[0].data, k[1].data) for k, _v in egraph.table_rows("path")
        )
    assert results["generic"] == results["indexed"]


def test_fresh_fork_holds_no_index_until_its_first_generic_search(generic_join):
    parent = tc_engine()
    for a, b in [(1, 2), (2, 3)]:
        parent.add(App("edge", a, b))
    parent.run(5)
    parent_indexes = {
        name: {cols: dict(index) for cols, index in t._indexes.items()}
        for name, t in parent.tables.items()
    }
    fork = parent.fork()
    assert not built(fork)
    assert fork.query(App("edge", V("x"), V("y")))
    # Generic join binds x from the distinct values of edge's column 0.
    assert built(fork) == {"edge": [(0,)]}
    fork.add(App("edge", 3, 4))
    fork.run(5)
    assert fork.check(App("path", 1, 4)) == 1
    assert built(fork) == {"edge": [(0,)], "path": [(1,)]}
    assert_all_indexes_match(fork)
    # The parent's indexes are its own: untouched by the fork's writes.
    assert {
        name: {cols: dict(index) for cols, index in t._indexes.items()}
        for name, t in parent.tables.items()
    } == parent_indexes
    assert_all_indexes_match(parent)


def small_delta_engine(n):
    """The small-delta shape: ``big`` holds ``4 * n`` rows and is written
    every iteration (``big(x, x)`` per newly reached ``x``), while
    ``reach`` grows by a few rows per iteration and joins ``big``."""
    egraph = EGraph()
    egraph.relation("big", (I64, I64))
    egraph.relation("seed", (I64,))
    egraph.relation("reach", (I64,))
    x, y = V("x"), V("y")
    egraph.add_rules(
        Rule(facts=[App("seed", x)], actions=[Expr(App("reach", x))], name="seed"),
        Rule(
            facts=[App("reach", x), App("big", x, y)],
            actions=[Expr(App("reach", y))],
            name="step",
        ),
        Rule(facts=[App("reach", x)], actions=[Expr(App("big", x, x))], name="loop"),
    )
    rng = random.Random(0)
    for i in range(n):
        egraph.add(App("big", i, i + 1))
        for _ in range(3):
            egraph.add(App("big", i, rng.randrange(n + 5, 3 * n + 5)))
    egraph.add(App("seed", 0))
    return egraph


def reference_delta_matches(egraph, rule):
    """The rule's semi-naïve matches per the naive oracle: the union over
    atoms of the query with that atom restricted to rows new since the
    rule's watermark (a full search on its first run)."""
    query = rule.query
    deltas = [None] if rule.last_run <= 0 else range(len(query.atoms))
    return {
        tuple(sorted(match.items()))
        for delta in deltas
        for match in evaluate(egraph.tables, egraph.registry, query, delta, rule.last_run)
    }


def test_small_delta_run_builds_each_index_once_from_all_rows(monkeypatch, generic_join):
    builds = Counter()
    build_sizes = {}
    real_index = Table.index

    def counting_index(table, columns):
        if columns not in table._indexes:
            builds[table.decl.name, columns] += 1
            build_sizes[table.decl.name, columns] = len(table)
        return real_index(table, columns)

    monkeypatch.setattr(Table, "index", counting_index)
    egraph = small_delta_engine(2_500)
    big = egraph.tables["big"]
    assert len(big) >= 10_000
    step = egraph.rules["step"]
    exec_ = egraph.rule_exec(step)
    egraph.run(1)  # the seed fires; from here on every iteration writes big
    for _ in range(12):
        before = len(big)
        matches = egraph.scheduler.search_rule(step)
        found = {tuple(sorted(exec_.substitution(m).items())) for m in matches}
        assert found == reference_delta_matches(egraph, step)
        report = egraph.run(1)
        assert not report.saturated and len(big) > before  # written every iteration
    # ``big`` joined ``reach``'s small delta on every iteration, yet each
    # (table, column group) pair was built from all rows exactly once.
    assert builds[("big", (0,))] == 1 and build_sizes[("big", (0,))] >= 10_000
    assert set(builds.values()) == {1}
    assert_all_indexes_match(egraph)


# ---------------------------------------------------------------------------
# Hypothesis: random op sequences through the Table API
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GROUPS = [(0,), (2,), (0, 1), (1, 2), (0, 1, 2)]
OPS = ["put", "remove", "batch", "snapshot", "restore", "fork", "load_rows"]


@st.composite
def op_sequences(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, 3),  # first arg
                st.integers(0, 3),  # second arg
                st.integers(0, 4),  # value / timestamp salt
                st.integers(0, 1),  # target: the parent table or its fork
            ),
            min_size=1,
            max_size=25,
        )
    )
    return ops


def warm(table):
    """Request every index in ``GROUPS`` (no-ops once built)."""
    for columns in GROUPS:
        table.index(columns)
    return table


@settings(max_examples=80, deadline=None)
@given(ops=op_sequences())
def test_random_op_interleavings_keep_indexes_exact(ops):
    # Copy-on-write tables against a plain-dict model ({key: (value, ts)},
    # whose insertion order is the one a real dict keeps): writes on either
    # side of a fork, snapshots and restores must never leak across tables
    # or into a capture, and every built index must equal one built fresh
    # from the rows after every step.
    tables = [warm(Table(FunctionDecl("f", ("i64", "i64"), "i64")))]
    models = [{}]
    saved = None  # (capture, model at capture time)
    timestamp = 0
    for op, a, b, salt, target in ops:
        side = min(target, len(tables) - 1)
        table, model = tables[side], models[side]
        k = key(a, b)
        if op == "put":
            timestamp += salt % 2  # non-decreasing, sometimes repeating
            table.put(k, i64(salt), timestamp)
            model[k] = (i64(salt), timestamp)
        elif op == "remove":
            table.remove(k)
            model.pop(k, None)
        elif op == "batch":
            # Overwrite, delete and re-insert inside one deferred batch.
            timestamp += 1
            table.begin_batch()
            table.put(k, i64(salt), timestamp)
            table.remove(key(b, a))
            table.put(key(a, a), i64(salt + 1), timestamp)
            table.end_batch()
            model[k] = (i64(salt), timestamp)
            model.pop(key(b, a), None)
            model[key(a, a)] = (i64(salt + 1), timestamp)
        elif op == "snapshot":
            saved = (table.snapshot(), dict(model))
        elif op == "restore" and saved is not None:
            table.restore(saved[0])
            models[side] = model = dict(saved[1])
        elif op == "fork":
            child = Table(FunctionDecl("f", ("i64", "i64"), "i64"))
            child.restore(tables[0].snapshot())
            tables[1:] = [child]
            models[1:] = [dict(models[0])]
            table = child
        elif op == "load_rows":
            # Reordered rows, minus ``k``, plus ``k`` with a new output.
            entries = [
                (old, v, ts) for old, (v, ts) in reversed(list(model.items())) if old != k
            ] + [(k, i64(salt + 5), timestamp)]
            table.load_rows(entries)
            models[side] = model = {k: (v, ts) for k, v, ts in entries}
        assert_indexes_exact(table)
        warm(table)  # rebuilds whatever a restore or load dropped
    for table, model in zip(tables, models):
        assert list(table.data) == list(model)
        assert {k: (row.value, row.timestamp) for k, row in table.data.items()} == model
        for since in range(timestamp + 2):
            delta = table.new_keys(since)
            assert len(delta) == len(set(delta))
            assert set(delta) == {k for k, (_v, ts) in model.items() if ts >= since}
        assert sorted(table._indexes) == sorted(GROUPS)
        assert_indexes_exact(table)
        # The maintained hash index must agree with a grouping of the model.
        expected = {}
        for k in model:
            expected.setdefault((k[0],), set()).add(k)
        hash_index = table.index((0,))
        assert {proj: set(keys) for proj, keys in hash_index.items()} == expected
    if saved is not None:
        capture, model = saved
        assert list(capture[0]) == list(model)
        assert {k: (row.value, row.timestamp) for k, row in capture[0].items()} == model
