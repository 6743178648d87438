"""Index lifecycle invariants (core/index.py, core/database.py).

A table builds a :class:`TrieIndex` the way it builds a hash index: from
the current rows on first request, then keeps it exact on every write and
drops it when a restore or bulk load installs different rows.  The
load-bearing property: through arbitrary interleavings of insert /
overwrite / delete / batch / union / rebuild / push / pop / fork / load,
every built trie equals one built fresh from the table's rows.  Directed
cases pin the mechanics, including copy-on-write snapshots; a hypothesis
property drives random op sequences; engine-level cases cover unions,
rebuilding and snapshot restore through the real write paths, and pin
why maintenance stays: a large table written every iteration is built
into each trie once, not once per search.  Their rule bodies are acyclic,
which the engine runs on index-nested-loop join; the ``generic_join``
fixture forces generic join so that the searches read tries.
"""

import random
from collections import Counter

import pytest

from repro.core.database import Table
from repro.core.index import AtomIndexSpec, TrieIndex, descend_constants, plan_query
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


def fresh_trie(table, order):
    """Reference semantics: a trie built from scratch over the live rows."""
    return TrieIndex(order, table.tuples()).root


def assert_tries_exact(table):
    """Every trie the table has built equals one built fresh from its rows."""
    for order in list(table._tries):
        assert table.trie(order).root == fresh_trie(table, order)


# ---------------------------------------------------------------------------
# Directed TrieIndex cases
# ---------------------------------------------------------------------------


def make_table(name="f", arity=2, out="i64"):
    return Table(FunctionDecl(name, tuple("i64" for _ in range(arity)), out))


def test_trie_insert_remove_prunes_empty_nodes():
    trie = TrieIndex((0, 1, 2))
    trie.insert(key(1, 2, 10))
    trie.insert(key(1, 3, 10))
    assert trie.root == {i64(1): {i64(2): {i64(10): True}, i64(3): {i64(10): True}}}
    trie.remove(key(1, 2, 10))
    assert trie.root == {i64(1): {i64(3): {i64(10): True}}}
    trie.remove(key(1, 3, 10))
    assert trie.root == {}


def test_trie_follows_value_changes_and_ignores_restamps():
    table = make_table()
    trie = table.trie((0, 1, 2))
    table.put(key(1, 2), i64(10), 0)
    table.put(key(3, 4), i64(30), 1)
    # An overwrite moves the row: its old value leaves the trie.
    table.put(key(1, 2), i64(20), 2)
    expected = {
        i64(1): {i64(2): {i64(20): True}},
        i64(3): {i64(4): {i64(30): True}},
    }
    assert trie.root == expected
    # A restamp (same value, later timestamp) is invisible to the trie,
    # but the write log still reports it as new.
    table.put(key(3, 4), i64(30), 5)
    assert table.trie((0, 1, 2)) is trie and trie.root == expected
    assert table.new_keys(5) == [key(3, 4)]


def test_trie_builds_from_existing_rows_on_first_request():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, 0)
    assert not table._tries
    trie = table.trie((0, 1, 2))
    assert trie.root == fresh_trie(table, (0, 1, 2))
    assert table.trie((0, 1, 2)) is trie
    assert list(table._tries) == [(0, 1, 2)]


def test_restore_and_load_rows_drop_the_tries_of_changed_rows():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, 0)
    trie = table.trie((0, 1, 2))
    snapshot = table.snapshot()
    table.restore(snapshot)  # nothing written since the capture: kept
    assert table._tries[(0, 1, 2)] is trie
    table.put(key(3, 4), UNIT_VALUE, 1)
    table.remove(key(1, 2))
    table.restore(snapshot)
    assert not table._tries
    assert table.trie((0, 1, 2)).root == {i64(1): {i64(2): {UNIT_VALUE: True}}}
    table.load_rows([(key(5, 6), UNIT_VALUE, 0)])
    assert not table._tries
    assert table.trie((1, 0, 2)).root == {i64(6): {i64(5): {UNIT_VALUE: True}}}


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
    parent.trie((0, 1, 2))
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
    assert parent.trie((0, 1, 2)).root == fresh_trie(parent, (0, 1, 2))
    assert {proj: set(keys) for proj, keys in parent.index((1,)).items()} == {
        (i64(n),): {key(n, n)} for n in range(4)
    }


def test_descend_constants_views():
    trie = TrieIndex((0, 1, 2), [key(1, 2, 10)])
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


def holds_tries(egraph):
    return any(table._tries for table in egraph.tables.values())


def assert_all_indexes_match(egraph):
    for table in egraph.tables.values():
        assert_tries_exact(table)


def test_first_generic_search_builds_planned_orderings(generic_join):
    egraph = tc_engine()
    egraph.add(App("edge", 1, 2))
    assert not holds_tries(egraph)  # adding a rule builds nothing
    egraph.run(1)
    assert (0, 1, 2) in egraph.tables["edge"]._tries
    assert (1, 0, 2) in egraph.tables["path"]._tries


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
    # Tables written since the push dropped their tries; the next search
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
    assert holds_tries(egraph)
    assert_all_indexes_match(egraph)
    # Union the leaves: rebuild rewrites F-rows to canonical ids; the
    # maintained tries must track every remove/re-insert it performs.
    egraph.union(App("Leaf", 1), App("Leaf", 2))
    egraph.rebuild()
    assert egraph.canonicalize(a) == egraph.canonicalize(b)
    assert_all_indexes_match(egraph)
    egraph.run(2)
    assert_all_indexes_match(egraph)


def test_generic_and_indexed_agree_and_only_generic_builds_tries():
    results = {}
    for name in EXECUTORS:
        with forced_executor(name):
            egraph = tc_engine()
            for a, b in [(1, 2), (2, 3), (3, 1), (3, 4)]:
                egraph.add(App("edge", a, b))
            egraph.run(12)
            assert egraph.check(App("path", 1, 4)) == 1
            assert len(egraph.query(App("path", V("a"), V("b")))) == 12
        # Each executor builds only the kind of index its searches read.
        assert holds_tries(egraph) == (name == "generic")
        results[name] = sorted(
            (k[0].data, k[1].data) for k, _v in egraph.table_rows("path")
        )
    assert results["generic"] == results["indexed"]


def test_fresh_fork_holds_no_trie_until_its_first_generic_search(generic_join):
    parent = tc_engine()
    for a, b in [(1, 2), (2, 3)]:
        parent.add(App("edge", a, b))
    parent.run(5)
    parent_tries = {name: dict(t._tries) for name, t in parent.tables.items()}
    fork = parent.fork()
    assert not holds_tries(fork)
    assert fork.query(App("edge", V("x"), V("y")))
    assert list(fork.tables["edge"]._tries) == [(0, 1, 2)]
    fork.add(App("edge", 3, 4))
    fork.run(5)
    assert fork.check(App("path", 1, 4)) == 1
    assert_all_indexes_match(fork)
    # The parent's tries are its own: untouched by the fork's writes.
    assert {name: dict(t._tries) for name, t in parent.tables.items()} == parent_tries
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


def test_small_delta_run_builds_each_trie_once_from_all_rows(monkeypatch, generic_join):
    builds = Counter()
    build_sizes = {}
    real_trie = Table.trie

    def counting_trie(table, order):
        if order not in table._tries:
            builds[table.decl.name, order] += 1
            build_sizes[table.decl.name, order] = len(table)
        return real_trie(table, order)

    monkeypatch.setattr(Table, "trie", counting_trie)
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
    # (table, ordering) pair was built from all rows exactly once.
    big_trie = ("big", plan_query(step.query).specs[1].order)
    assert builds[big_trie] == 1 and build_sizes[big_trie] >= 10_000
    assert set(builds.values()) == {1}
    assert_all_indexes_match(egraph)


# ---------------------------------------------------------------------------
# Hypothesis: random op sequences through the Table API
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ORDERS = [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
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
    """Request every trie ordering and a hash index (no-ops once built)."""
    for order in ORDERS:
        table.trie(order)
    table.index((0,))
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
        assert_tries_exact(table)
        warm(table)  # rebuilds whatever a restore or load dropped
    for table, model in zip(tables, models):
        assert list(table.data) == list(model)
        assert {k: (row.value, row.timestamp) for k, row in table.data.items()} == model
        for since in range(timestamp + 2):
            delta = table.new_keys(since)
            assert len(delta) == len(set(delta))
            assert set(delta) == {k for k, (_v, ts) in model.items() if ts >= since}
        assert sorted(table._tries) == sorted(ORDERS)
        assert_tries_exact(table)
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
