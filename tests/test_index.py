"""Incremental index maintenance invariants (core/index.py).

The load-bearing property: a registered :class:`TrieIndex` maintained
incrementally through arbitrary interleavings of insert / overwrite /
delete / union / rebuild / push / pop / fork must be *indistinguishable*
from a trie built fresh from the table's rows — and its timestamp-bucket
delta views must equal fresh tries over exactly the rows at or after the
watermark.  Directed cases pin the mechanics, including copy-on-write
snapshots; a hypothesis property drives random op sequences; engine-level
cases cover unions, rebuilding, and snapshot restore through the real
write paths.
"""

import pytest

from repro.bench.runner import bench_engine
from repro.core.database import Table
from repro.core.index import (
    AtomIndexSpec,
    TrieIndex,
    descend_constants,
    plan_query,
)
from repro.core.query import Query, QVar, TableAtom
from repro.core.schema import FunctionDecl
from repro.core.terms import App, V
from repro.core.values import UNIT_VALUE, i64
from repro.engine import EGraph, Rule
from repro.engine.actions import Expr


def key(*nums):
    return tuple(i64(n) for n in nums)


def fresh_trie(table, order, since=None):
    """Reference semantics: a trie built from scratch over the live rows."""
    reference = TrieIndex(order)
    reference.rebuild_from(
        (k + (row.value,), row.timestamp)
        for k, row in table.data.items()
        if since is None or row.timestamp >= since
    )
    return reference.root


def assert_index_matches(table, order, timestamps=(0, 1, 2, 3)):
    trie = table.trie(order)
    assert trie is not None
    assert trie.root == fresh_trie(table, order)
    for since in timestamps:
        assert trie.delta_root(since) == fresh_trie(table, order, since=since)


# ---------------------------------------------------------------------------
# Directed TrieIndex cases
# ---------------------------------------------------------------------------


def make_table(name="f", arity=2, out="i64"):
    return Table(FunctionDecl(name, tuple("i64" for _ in range(arity)), out))


def test_trie_insert_remove_prunes_empty_nodes():
    trie = TrieIndex((0, 1, 2))
    trie.insert(key(1, 2, 10), 0)
    trie.insert(key(1, 3, 10), 0)
    assert trie.root == {i64(1): {i64(2): {i64(10): True}, i64(3): {i64(10): True}}}
    trie.remove(key(1, 2, 10), 0)
    assert trie.root == {i64(1): {i64(3): {i64(10): True}}}
    trie.remove(key(1, 3, 10), 0)
    assert trie.root == {} and trie.buckets == {}


def test_trie_overwrite_moves_between_buckets():
    table = make_table()
    table.ensure_trie((0, 1, 2))
    table.put(key(1, 2), i64(10), 0)
    table.put(key(3, 4), i64(30), 1)
    # Overwrite re-stamps the row: it must leave bucket 0 and join bucket 2.
    table.put(key(1, 2), i64(20), 2)
    trie = table.trie((0, 1, 2))
    assert sorted(trie.buckets) == [1, 2]
    assert_index_matches(table, (0, 1, 2))
    assert trie.delta_root(2) == {i64(1): {i64(2): {i64(20): True}}}


def test_trie_delta_merges_multiple_buckets():
    table = make_table()
    table.ensure_trie((1, 0, 2))
    for ts, (a, b) in enumerate([(1, 2), (2, 3), (1, 3), (4, 2)]):
        table.put(key(a, b), UNIT_VALUE, ts)
    assert_index_matches(table, (1, 0, 2), timestamps=(0, 1, 2, 3, 4))


def test_ensure_trie_builds_from_existing_rows_and_is_idempotent():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, 0)
    trie = table.ensure_trie((0, 1, 2))
    assert trie.root == fresh_trie(table, (0, 1, 2))
    assert table.ensure_trie((0, 1, 2)) is trie
    assert table.trie((1, 0, 2)) is None  # never builds implicitly


def test_restore_marks_tries_stale_and_they_self_heal():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, 0)
    table.ensure_trie((0, 1, 2))
    snapshot = table.snapshot()
    table.put(key(3, 4), UNIT_VALUE, 1)
    table.remove(key(1, 2))
    table.restore(snapshot)
    trie = table.trie((0, 1, 2))
    assert not trie.stale
    assert trie.root == {i64(1): {i64(2): {UNIT_VALUE: True}}}
    assert_index_matches(table, (0, 1, 2))


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
    parent.ensure_trie((0, 1, 2))
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
    assert_index_matches(parent, (0, 1, 2), timestamps=range(8))
    assert {proj: set(keys) for proj, keys in parent.index((1,)).items()} == {
        (i64(n),): {key(n, n)} for n in range(4)
    }


def test_descend_constants_views():
    trie = TrieIndex((0, 1, 2))
    trie.insert(key(1, 2, 10), 0)
    node = descend_constants(trie.root, (i64(1),))
    assert node == {i64(2): {i64(10): True}}
    assert descend_constants(trie.root, (i64(9),)) is None
    # Fully-constant atoms yield a non-empty marker, or None when absent.
    assert descend_constants(trie.root, (i64(1), i64(2), i64(10)))
    assert descend_constants(trie.root, (i64(1), i64(2), i64(99))) is None


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
    plan = plan_query(query)
    # y occurs twice -> first; ties broken by first occurrence.
    assert plan.var_order == ("y", "x", "o1", "z", "o2")
    assert plan.specs[0] == AtomIndexSpec(order=(1, 0, 2), const_values=(), var_names=("y", "x", "o1"))
    assert plan.specs[1] == AtomIndexSpec(order=(0, 1, 2), const_values=(), var_names=("y", "z", "o2"))
    assert plan_query(query) == plan  # same structure, same plan


def test_plan_atom_constants_first_and_repeated_vars_fall_back():
    x = QVar("x")
    query = Query(atoms=[TableAtom("edge", (i64(7), x), QVar("o"))])
    plan = plan_query(query)
    assert plan.specs[0].order == (0, 1, 2)
    assert plan.specs[0].const_values == (i64(7),)
    # Repeated variable: no index spec, the ad-hoc path handles equality.
    loop = Query(atoms=[TableAtom("edge", (x, x), QVar("o"))])
    assert plan_query(loop).specs[0] is None


# ---------------------------------------------------------------------------
# Engine-level invariants: the real write paths
# ---------------------------------------------------------------------------


def tc_engine():
    egraph = EGraph(strategy="generic")
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


def assert_all_indexes_match(egraph):
    for table in egraph.tables.values():
        for order in table.trie_orders():
            assert_index_matches(
                table, order, timestamps=range(egraph.timestamp + 2)
            )


def test_rule_registration_creates_planned_orderings():
    egraph = tc_engine()
    assert (0, 1, 2) in egraph.tables["edge"].trie_orders()
    assert (1, 0, 2) in egraph.tables["path"].trie_orders()


def test_indexes_survive_run_union_rebuild_pushpop_interleaving():
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
    # Restored state: stale tries must self-heal to the pre-push rows.
    assert_all_indexes_match(egraph)
    assert len(egraph.tables["edge"]) == 3

    egraph.run(10)
    assert_all_indexes_match(egraph)


def test_indexes_follow_canonicalization_during_rebuild():
    egraph = EGraph(strategy="generic")
    egraph.declare_sort("V")
    egraph.constructor("Leaf", ("i64",), "V")
    egraph.constructor("F", ("V",), "V")
    egraph.add_rule(
        Rule(facts=[App("F", V("x"))], actions=[Expr(App("F", App("F", V("x"))))], name="noop")
    )
    a = egraph.add(App("F", App("Leaf", 1)))
    b = egraph.add(App("F", App("Leaf", 2)))
    egraph.run(1)
    assert_all_indexes_match(egraph)
    # Union the leaves: rebuild rewrites F-rows to canonical ids; the
    # maintained tries must track every remove/re-insert it performs.
    egraph.union(App("Leaf", 1), App("Leaf", 2))
    egraph.rebuild()
    assert egraph.canonicalize(a) == egraph.canonicalize(b)
    assert_all_indexes_match(egraph)
    egraph.run(2)
    assert_all_indexes_match(egraph)


def test_generic_and_adhoc_agree_after_runs():
    results = {}
    for strategy in ("generic", "generic-adhoc", "indexed"):
        egraph = bench_engine(strategy)
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
        for a, b in [(1, 2), (2, 3), (3, 1), (3, 4)]:
            egraph.add(App("edge", a, b))
        egraph.run(12)
        if strategy == "generic-adhoc":
            # The baseline registers no tries: every search builds its own.
            assert not any(table.trie_orders() for table in egraph.tables.values())
        results[strategy] = sorted(
            (k[0].data, k[1].data) for k, _v in egraph.table_rows("path")
        )
    assert results["generic"] == results["generic-adhoc"] == results["indexed"]


# ---------------------------------------------------------------------------
# Hypothesis: random op sequences through the Table API
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ORDERS = [(0, 1, 2), (1, 0, 2), (2, 0, 1)]


@st.composite
def op_sequences(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "remove", "snapshot", "restore", "fork"]),
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


def indexed_table(state=None):
    table = Table(FunctionDecl("f", ("i64", "i64"), "i64"))
    if state is not None:
        table.restore(state)
    for order in ORDERS:
        table.ensure_trie(order)
    table.index((0,))
    return table


@settings(max_examples=80, deadline=None)
@given(ops=op_sequences())
def test_random_op_interleavings_keep_indexes_exact(ops):
    # Copy-on-write tables against a plain-dict model ({key: (value, ts)},
    # whose insertion order is the one a real dict keeps): writes on either
    # side of a fork, snapshots and restores must never leak across tables
    # or into a capture, and indexes must stay exact throughout.
    tables = [indexed_table()]
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
        elif op == "snapshot":
            saved = (table.snapshot(), dict(model))
        elif op == "restore" and saved is not None:
            table.restore(saved[0])
            table.index((0,))  # rebuilt if the restore dropped it
            models[side] = dict(saved[1])
        elif op == "fork":
            tables[1:] = [indexed_table(tables[0].snapshot())]
            models[1:] = [dict(models[0])]
    for table, model in zip(tables, models):
        assert list(table.data) == list(model)
        assert {k: (row.value, row.timestamp) for k, row in table.data.items()} == model
        for since in range(timestamp + 2):
            delta = table.new_keys(since)
            assert len(delta) == len(set(delta))
            assert set(delta) == {k for k, (_v, ts) in model.items() if ts >= since}
        for order in ORDERS:
            assert_index_matches(table, order, timestamps=range(timestamp + 2))
        # The maintained hash index must agree with a from-scratch grouping.
        expected = {}
        for k in model:
            expected.setdefault((k[0],), set()).add(k)
        hash_index = table.index((0,))
        assert {proj: set(keys) for proj, keys in hash_index.items()} == expected
    if saved is not None:
        capture, model = saved
        assert list(capture[0]) == list(model)
        assert {k: (row.value, row.timestamp) for k, row in capture[0].items()} == model
