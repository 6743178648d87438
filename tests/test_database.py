"""Functional database: rows, timestamps, deltas, and lazy indexes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Row, Table
from repro.core.schema import FunctionDecl
from repro.core.unionfind import UnionFind
from repro.core.values import UNIT, UNIT_VALUE, i64


def make_table(name="edge", arity=2, out=UNIT):
    return Table(FunctionDecl(name, tuple("i64" for _ in range(arity)), out))


def key(*nums):
    return tuple(i64(n) for n in nums)


def test_put_get_remove_roundtrip():
    table = make_table()
    assert len(table) == 0
    table.put(key(1, 2), UNIT_VALUE, timestamp=0)
    assert len(table) == 1
    assert key(1, 2) in table
    assert table.get(key(1, 2)) == UNIT_VALUE
    assert table.get(key(2, 1)) is None
    removed = table.remove(key(1, 2))
    assert removed is not None and removed.value == UNIT_VALUE
    assert table.remove(key(1, 2)) is None
    assert len(table) == 0


def test_timestamps_are_stored_and_overwritten():
    table = make_table("f", 1, "i64")
    table.put(key(1), i64(10), timestamp=0)
    assert table.get_row(key(1)).timestamp == 0
    table.put(key(1), i64(20), timestamp=3)
    row = table.get_row(key(1))
    assert row.timestamp == 3 and row.value == i64(20)


def test_new_keys_is_an_inclusive_timestamp_filter():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, timestamp=0)
    table.put(key(2, 3), UNIT_VALUE, timestamp=1)
    table.put(key(3, 4), UNIT_VALUE, timestamp=2)
    assert set(table.new_keys(0)) == {key(1, 2), key(2, 3), key(3, 4)}
    assert set(table.new_keys(1)) == {key(2, 3), key(3, 4)}
    assert table.new_keys(2) == [key(3, 4)]
    assert table.new_keys(3) == []


def test_index_groups_by_projection_and_covers_output_column():
    table = make_table("f", 2, "i64")
    table.put(key(1, 2), i64(10), 0)
    table.put(key(1, 3), i64(10), 0)
    table.put(key(2, 3), i64(20), 0)
    by_first = table.index((0,))
    assert set(by_first[(i64(1),)]) == {key(1, 2), key(1, 3)}
    assert list(by_first[(i64(2),)]) == [key(2, 3)]
    # Column `arity` is the output.
    by_out = table.index((2,))
    assert set(by_out[(i64(10),)]) == {key(1, 2), key(1, 3)}
    column = table.column_values(1)
    assert set(column[i64(3)]) == {key(1, 3), key(2, 3)}


def test_new_keys_handles_updates_removals_and_compaction():
    table = make_table("f", 1, "i64")
    # Many overwrites of the same key trigger log compaction without
    # corrupting the delta.
    for ts in range(300):
        table.put(key(1), i64(ts), ts)
    table.put(key(2), i64(0), 299)
    table.put(key(3), i64(0), 300)
    table.remove(key(3))
    assert set(table.new_keys(299)) == {key(1), key(2)}
    assert table.new_keys(301) == []
    # Out-of-order timestamps degrade gracefully to the scan path.
    table.put(key(4), i64(0), 5)
    assert set(table.new_keys(299)) == {key(1), key(2)}
    assert key(4) in set(table.new_keys(0))


def test_index_is_maintained_incrementally_on_write():
    table = make_table()
    table.put(key(1, 2), UNIT_VALUE, 0)
    first = table.index((0,))
    # The index is a live structure: the same object absorbs later writes.
    assert table.index((0,)) is first
    table.put(key(5, 6), UNIT_VALUE, 1)
    assert table.index((0,)) is first
    assert (i64(5),) in first
    table.remove(key(5, 6))
    assert (i64(5),) not in first
    # Overwriting an output updates projections that cover the output column.
    out_table = make_table("f", 1, "i64")
    out_table.put(key(1), i64(10), 0)
    by_out = out_table.index((1,))
    out_table.put(key(1), i64(20), 1)
    assert (i64(10),) not in by_out and set(by_out[(i64(20),)]) == {key(1)}


def test_rows_and_tuples_iteration():
    table = make_table("f", 1, "i64")
    table.put(key(7), i64(70), 4)
    assert list(table.rows()) == [(key(7), i64(70), 4)]
    assert list(table.tuples()) == [(i64(7), i64(70))]


# ---------------------------------------------------------------------------
# Journaled captures: a rollback undoes the writes made since the capture
# ---------------------------------------------------------------------------

GROUPS = [(0,), (1,), (0, 1)]


def state_of(table):
    """Rows in insertion order (with outputs and timestamps) and the log."""
    return list(table.data.items()), list(table._log_ts), list(table._log_keys)


def assert_indexes_fresh(table):
    """Every index, built on request, equals a fresh build key for key and
    in the same order, so searches after a restore run in a fresh order."""
    for columns in GROUPS:
        fresh = {}
        for k, row in table.data.items():
            proj = tuple(row.value if col == table.arity else k[col] for col in columns)
            fresh.setdefault(proj, []).append(k)
        built = table.index(columns)
        assert {proj: list(keys) for proj, keys in built.items()} == fresh


def five_rows():
    table = make_table("f", 1, "i64")
    for n in range(5):
        table.put(key(n), i64(n), n)
    for columns in GROUPS:
        table.index(columns)
    return table


def test_a_rollback_undoes_inserts_overwrites_and_removals_of_new_rows():
    table = five_rows()
    data, log_ts, log_keys = table.data, table._log_ts, table._log_keys
    before = state_of(table)
    uf = UnionFind()
    mark = uf.mark({"f": table})
    table.put(key(9), i64(9), 5)  # an insert
    table.put(key(2), i64(20), 5)  # an overwrite of a captured row
    table.put(key(9), i64(90), 6)  # an overwrite of a new row
    table.put(key(7), i64(7), 6)
    table.remove(key(9))  # a removal of a new row
    table.put(key(9), i64(99), 7)  # ... re-inserted last
    assert [(record[1], record[2]) for record in uf._undo] == [(key(2), Row(i64(2), 2))]
    assert table.data is data and table._log_ts is log_ts and mark.state is None
    assert uf.rollback(mark) == {"f": table}
    assert state_of(table) == before
    assert table.data is data and table._log_ts is log_ts and table._log_keys is log_keys
    assert not table._indexes  # written since the capture: dropped
    assert_indexes_fresh(table)
    table.put(key(8), i64(8), 8)  # the capture survives its restore
    uf.rollback(mark)
    assert state_of(table) == before and mark.state is None
    assert_indexes_fresh(table)
    del mark
    table.put(key(3), i64(30), 9)
    assert not uf._marks and not uf._undo  # nothing is journaled any more


def test_a_table_not_written_since_its_capture_keeps_its_indexes():
    table = five_rows()
    indexes = dict(table._indexes)
    uf = UnionFind()
    mark = uf.mark({"f": table})
    table.remove(key(7))  # absent: nothing changes
    uf.rollback(mark)
    assert table._indexes == indexes
    assert all(table._indexes[columns] is index for columns, index in indexes.items())
    assert_indexes_fresh(table)


def test_removing_a_captured_row_takes_the_copy_path_and_restores_exactly():
    table = five_rows()
    data = table.data
    before = state_of(table)
    uf = UnionFind()
    mark = uf.mark({"f": table})
    table.put(key(9), i64(9), 5)
    table.put(key(3), i64(30), 5)
    table.remove(key(1))  # its position cannot be undone: copies first
    assert mark.state is not None and not uf._marks and not uf._undo
    copied = mark.tables["f"][1]
    assert copied[0] is not data and list(copied[0].items()) == before[0]
    table.put(key(1), i64(100), 6)
    assert list(table.data)[-1] == key(1)
    uf.rollback(mark)
    assert state_of(table) == before
    assert_indexes_fresh(table)
    table.remove(key(0))  # the copy survives its restore
    uf.rollback(mark)
    assert state_of(table) == before
    assert_indexes_fresh(table)


def test_removing_a_captured_row_of_an_unwritten_table_copies_it_once():
    table = five_rows()
    data = table.data
    before = state_of(table)
    uf = UnionFind()
    mark = uf.mark({"f": table})
    table.remove(key(4))
    shared = mark.tables["f"][1]
    assert shared[0] is data and table.data is not data  # today's one copy
    assert list(data.items()) == before[0]
    uf.rollback(mark)
    assert state_of(table) == before and table.data is data
    assert_indexes_fresh(table)


def test_log_compaction_under_a_live_capture():
    table = make_table("f", 1, "i64")
    table.put(key(0), i64(0), 0)
    log_ts, log_keys = table._log_ts, table._log_keys
    before = state_of(table)
    uf = UnionFind()
    mark = uf.mark({"f": table})
    for ts in range(1, 100):  # overwrite a new row until the log compacts
        table.put(key(1), i64(ts), ts)
    table.put(key(0), i64(5), 100)
    assert table._log_ts is not log_ts and len(table._log_ts) < 99
    assert log_ts[:1] == [0] and log_keys[:1] == [key(0)]  # the capture's lists
    assert table.new_keys(50) == [key(1), key(0)]
    uf.rollback(mark)
    assert state_of(table) == before
    assert table.new_keys(0) == [key(0)] and table.new_keys(1) == []
    assert_indexes_fresh(table)


def test_nested_captures_restore_in_and_out_of_order():
    table = five_rows()
    uf = UnionFind()

    def write(salt):
        table.put(key(10 + salt), i64(salt), 10 + salt)
        table.put(key(salt % 5), i64(100 + salt), 10 + salt)
        table.put(key(20 + salt), i64(salt), 10 + salt)
        table.remove(key(10 + salt))

    at_old = state_of(table)
    old = uf.mark({"f": table})
    write(1)
    at_new = state_of(table)
    new = uf.mark({"f": table})
    write(2)
    # In order: the newest capture first, then the older one, both undos.
    uf.rollback(new)
    assert state_of(table) == at_new
    assert_indexes_fresh(table)
    write(3)
    del new
    uf.rollback(old)
    assert state_of(table) == at_old and old.state is None
    assert_indexes_fresh(table)
    # Out of order: the older capture first turns both into copies.
    write(4)
    at_new = state_of(table)
    new = uf.mark({"f": table})
    write(5)
    uf.rollback(old)
    assert state_of(table) == at_old
    assert old.state is not None and new.state is not None
    assert_indexes_fresh(table)
    write(6)
    uf.rollback(new)
    assert state_of(table) == at_new
    assert_indexes_fresh(table)
    uf.rollback(old)
    assert state_of(table) == at_old
    assert_indexes_fresh(table)


def index_contents(table):
    return {columns: {proj: set(keys) for proj, keys in index.items()}
            for columns, index in table._indexes.items()}


def fresh_index_contents(table):
    fresh = make_table("f", 1, "i64")
    fresh.load_rows(list(table.rows()))
    for columns in table._indexes:
        fresh.index(columns)
    return index_contents(fresh)


#: ``put``/``remove``/``index`` act on one table; ``capture`` marks both;
#: ``release`` drops a capture; ``restore`` rolls back to the newest
#: capture (n == 0) or an older one, dropping the newer ones when m > 0 (a
#: pop); ``fork`` installs the newest state on another union-find, and
#: ``fork-put`` writes the newest fork.
TABLE_OPS = (
    ("put",) * 3 + ("remove", "capture", "restore") * 2 + ("index", "release", "fork", "fork-put")
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(TABLE_OPS), st.sampled_from("ab"), st.integers(0, 2), st.integers(0, 2)
        ),
        max_size=40,
    )
)
def test_any_interleaving_of_writes_captures_restores_and_forks_restores_exactly(ops):
    uf = UnionFind()
    tables = {"a": make_table("f", 1, "i64"), "b": make_table("f", 1, "i64")}
    captures = []  # (mark, the states it captured), oldest first
    forks = []  # (union-find, tables, their states)

    def states(of):
        return {name: state_of(table) for name, table in of.items()}

    for ts, (op, name, n, m) in enumerate(ops):
        table = tables[name]
        if op == "put":
            table.put(key(n), i64(m), ts)
        elif op == "remove":
            table.remove(key(n))
        elif op == "index":
            table.index(GROUPS[m % len(GROUPS)])
        elif op == "capture":
            captures.append((uf.mark(tables), states(tables)))
        elif op == "release" and captures:
            del captures[n % len(captures)]
        elif op == "restore" and captures:
            at = len(captures) - 1 - n % len(captures)
            mark, captured = captures[at]
            tables = uf.rollback(mark)
            assert states(tables) == captured
            if m:
                del captures[at + 1:]
        elif op == "fork":
            fork_uf = UnionFind()
            forked = fork_uf.rollback(uf.mark(tables))
            assert states(forked) == states(tables)
            forks.append((fork_uf, forked, states(forked)))
        elif op == "fork-put" and forks:
            fork_uf, forked, _before = forks.pop()
            before = states(tables)
            forked[name].put(key(n), i64(m), ts)
            forked[name].remove(key((n + 1) % 3))
            assert states(tables) == before
            forks.append((fork_uf, forked, states(forked)))
        for _fork_uf, forked, expected in forks:
            assert states(forked) == expected
        for each in tables.values():
            assert index_contents(each) == fresh_index_contents(each)
    for mark, captured in reversed(captures):
        assert states(uf.rollback(mark)) == captured
