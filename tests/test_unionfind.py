"""Union-find: canonicalization, path compression, dirty tracking."""

import pytest

from repro.core.unionfind import UnionFind


def test_fresh_sets_are_distinct_singletons():
    uf = UnionFind()
    a, b, c = uf.make_sets(3)
    assert len(uf) == 3
    assert len({a, b, c}) == 3
    assert uf.n_classes() == 3
    for ident in (a, b, c):
        assert uf.find(ident) == ident
        assert uf.is_canonical(ident)


def test_union_merges_and_find_agrees():
    uf = UnionFind()
    a, b, c = uf.make_sets(3)
    root = uf.union(a, b)
    assert root in (a, b)
    assert uf.same(a, b)
    assert not uf.same(a, c)
    assert uf.n_classes() == 2
    assert uf.n_unions == 1
    # Union of already-joined ids is a no-op.
    assert uf.union(a, b) == root
    assert uf.n_unions == 1


def test_union_by_size_keeps_larger_representative():
    uf = UnionFind()
    a, b, c, d = uf.make_sets(4)
    big = uf.union(a, b)  # class of size 2
    root = uf.union(c, big)  # size-1 class joins size-2 class
    assert root == big
    assert uf.find(c) == big
    assert uf.find(d) == d


def test_path_compression_flattens_chains():
    uf = UnionFind()
    ids = uf.make_sets(8)
    for left, right in zip(ids, ids[1:]):
        uf.union(left, right)
    root = uf.find(ids[0])
    # After find() every id on the path points (near-)directly at the root.
    for ident in ids:
        uf.find(ident)
        assert uf._parent[ident] == root
    assert uf.n_classes() == 1


def test_dirty_set_records_displaced_representatives():
    uf = UnionFind()
    a, b, c = uf.make_sets(3)
    assert not uf.has_dirty
    root = uf.union(a, b)
    loser = b if root == a else a
    assert uf.has_dirty
    assert uf.take_dirty() == {loser}
    # take_dirty clears.
    assert not uf.has_dirty
    assert uf.take_dirty() == set()
    # A redundant union does not dirty anything.
    uf.union(a, b)
    assert not uf.has_dirty
    uf.union(root, c)
    assert uf.has_dirty


def test_union_all_and_class_members():
    uf = UnionFind()
    ids = uf.make_sets(5)
    root = uf.union_all(ids[:4])
    assert uf.n_classes() == 2
    assert sorted(uf.class_members(root)) == sorted(ids[:4])
    assert uf.class_members(ids[4]) == [ids[4]]
    with pytest.raises(ValueError):
        uf.union_all([])


# -- journaled captures (mark / rollback) ---------------------------------------


def _proof_uf(n):
    uf = UnionFind(proofs=True)
    ids = uf.make_sets(n)
    for i in range(0, n - 1, 2):
        uf.union(ids[i], ids[i + 1])
        uf.proofs.nodes[("f", (i,))] = i
    return uf, ids


def _scramble(uf, ids, salt):
    """Unions, path-compressing finds, new ids and node-log entries."""
    fresh = uf.make_sets(3)
    for k, ident in enumerate(ids[salt % 3 : 12 : 3]):
        uf.union(ident, fresh[k % 3])
    for ident in ids[:12]:
        uf.find(ident)
    uf.proofs.nodes[("g", (salt,))] = salt


def test_rollback_undoes_writes_and_truncates():
    uf, ids = _proof_uf(200)
    before = uf.snapshot()
    mark = uf.mark()
    _scramble(uf, ids, 1)
    assert uf._undo  # overwrites of existing ids were journaled
    uf.rollback(mark)
    assert uf.snapshot() == before and not uf._undo
    _scramble(uf, ids, 2)  # the mark survives its restore
    uf.rollback(mark)
    assert uf.snapshot() == before
    assert mark.state is None  # both restores were plain undos


def test_nothing_is_journaled_without_a_live_mark():
    uf, ids = _proof_uf(200)
    _scramble(uf, ids, 1)
    assert not uf._undo and uf._frozen == 0
    mark = uf.mark()
    _scramble(uf, ids, 2)
    del mark  # its holder dropped it
    assert not uf._undo and uf._frozen == 0 and uf.proofs._frozen == 0
    _scramble(uf, ids, 3)
    assert not uf._undo


def test_rollback_to_an_older_mark_keeps_the_newer_one_restorable():
    # A failing batch that pops a push made before it: the older mark is
    # restored first, then the newer one.
    uf, ids = _proof_uf(200)
    at_old = uf.snapshot()
    old = uf.mark()
    _scramble(uf, ids, 1)
    at_new = uf.snapshot()
    new = uf.mark()
    _scramble(uf, ids, 2)
    uf.rollback(old)
    assert uf.snapshot() == at_old
    assert old.state is not None and new.state is not None  # both copied
    _scramble(uf, ids, 3)
    uf.rollback(new)
    assert uf.snapshot() == at_new
    uf.rollback(old)
    assert uf.snapshot() == at_old


def test_a_mark_of_another_union_find_installs_one_copy():
    parent, ids = _proof_uf(200)
    at_mark = parent.snapshot()
    mark = parent.mark()
    child = UnionFind(proofs=True)
    child.rollback(mark)
    assert child.snapshot() == at_mark
    _scramble(child, ids, 1)  # the child shares no container with its parent
    assert parent.snapshot() == at_mark
    _scramble(parent, ids, 2)
    fresh = UnionFind(proofs=True)
    fresh.rollback(mark)  # the parent's journal still describes the mark
    assert fresh.snapshot() == at_mark


def test_a_held_mark_turns_into_copies_before_its_journal_outweighs_them():
    uf, ids = _proof_uf(12)
    at_mark = uf.snapshot()
    mark = uf.mark()
    for salt in range(20):
        _scramble(uf, ids, salt)
        assert len(uf._undo) <= max(uf._journal_limit(), 2)
    assert mark.state is not None and not uf._marks and not uf._undo
    uf.rollback(mark)
    assert uf.snapshot() == at_mark
