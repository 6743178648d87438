"""Union-find (disjoint set) data structure.

This is the equivalence-relation substrate of egglog (Section 3.3 of the
paper): every uninterpreted sort is backed by a set of opaque integer ids and
a union-find that canonicalizes them.  Two ids are equivalent iff they
canonicalize to the same id.

The implementation uses path compression and union by size.  It also records
the set of "dirty" ids displaced by recent unions so the rebuilding
procedure (``repro.engine.rebuild``, Section 4 of the paper) knows which
database rows may need to be re-canonicalized.

With ``proofs=True`` the union-find keeps a :class:`~repro.core.proofs.
ProofForest` sibling in lockstep: every merging union records one
justification edge between the *original* ids the caller passed (never the
compressed roots), so ``explain``-style queries can later recover why two
ids are equal.

A capture (:meth:`UnionFind.mark`) costs O(1) in the number of ids and
rows: it records the current lengths and a position in one undo journal,
and while it is alive every overwrite of an entry that existed at the
newest capture appends the entry's old value to that journal.  The journal
is the engine's only one: it also takes the overwrites of the database
tables a mark captures (``Table.capture``).  :meth:`UnionFind.rollback`
undoes back to that position and truncates, so a restore costs the writes
it undoes.  Restoring by undoing recorded writes is the idea behind
Conchon and Filliâtre's persistent union-find (ML Workshop 2007).
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .database import Table
from .proofs import EXPLICIT, Justification, ProofForest

#: One journal record: ``container[index]`` held ``old`` before an
#: overwrite.  The container is a union-find or proof-forest array, or a
#: :class:`~repro.core.database.Table` (index: a key; old: its row).
Record = Tuple[Any, Any, Any]

#: Approximate bytes (64-bit CPython) of one journal record (a 3-tuple and
#: its list slot), of one array entry in a copy, of one node-log entry in a
#: dict copy, and of one table row in a copy (its dict entry and its two
#: write-log entries); they bound the journal by the memory of one copy.
RECORD_BYTES = 72
ENTRY_BYTES = 8
NODE_BYTES = 40
ROW_BYTES = 56


class Mark:
    """A capture of a :class:`UnionFind`, its proof forest and node log,
    and a set of database tables.

    A mark starts *journaled*: it holds the lengths at capture time
    (``n_ids``, ``n_nodes``), its position ``pos`` in the owner's undo journal,
    copies of the small dirty set and union counter, and per table name
    ``(table, Table.capture())``.  When a restore cannot be a plain undo
    (see :meth:`UnionFind.rollback`), a captured row is removed, or the
    journal outgrows a copy, the owner turns the mark into copies: ``state``
    then holds a :meth:`UnionFind.snapshot` tuple and each ``tables`` entry
    a copy-on-write ``Table.snapshot()`` tuple instead of its capture.  No
    restore changes a mark, so one mark can be restored any number of times.
    """

    __slots__ = (
        "owner", "pos", "n_ids", "n_nodes", "dirty", "n_unions", "tables", "state",
        "__weakref__",
    )

    def __init__(self, owner: "UnionFind", tables: Dict[str, Table]) -> None:
        self.owner = owner
        self.pos = 0  # set once the owner tracks the mark (UnionFind.mark)
        self.n_ids = len(owner._parent)
        forest = owner.proofs
        self.n_nodes = len(forest.nodes) if forest is not None else 0
        self.dirty = frozenset(owner._dirty)
        self.n_unions = owner._n_unions
        self.tables: Dict[str, Tuple[Table, tuple]] = {
            name: (table, table.capture(owner)) for name, table in tables.items()
        }
        self.state: Optional[tuple] = None


class UnionFind:
    """A union-find over dense integer ids ``0..n-1``.

    >>> uf = UnionFind()
    >>> a, b, c = uf.make_set(), uf.make_set(), uf.make_set()
    >>> uf.union(a, b)
    0
    >>> uf.same(a, b)
    True
    >>> uf.same(a, c)
    False
    """

    def __init__(self, *, proofs: bool = False) -> None:
        self._parent: List[int] = []
        self._size: List[int] = []
        # Ids whose canonical representative changed since the last call to
        # ``take_dirty``.  Stored as the *old* (now stale) representatives.
        self._dirty: Set[int] = set()
        self._n_unions = 0
        self.proofs: Optional[ProofForest] = ProofForest() if proofs else None
        #: The undo journal, shared with the proof forest, and its freeze
        #: line: while a journaled :class:`Mark` is alive, ids below
        #: ``_frozen`` (the id count at the newest one) are journaled before
        #: each overwrite.  With no live mark ``_frozen`` is 0 and nothing
        #: is journaled.
        self._undo: List[Record] = []
        self._frozen = 0
        #: Weak references to the live journaled marks, oldest first; the
        #: tables they captured journal into ``_undo`` while it is non-empty.
        self._marks: List["weakref.ref[Mark]"] = []
        if self.proofs is not None:
            self.proofs._undo = self._undo

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_unions(self) -> int:
        """Total number of merging unions performed so far."""
        return self._n_unions

    def make_set(self) -> int:
        """Create a fresh singleton equivalence class and return its id."""
        ident = len(self._parent)
        self._parent.append(ident)
        self._size.append(1)
        if self.proofs is not None:
            self.proofs.make_set()
        return ident

    def make_sets(self, count: int) -> List[int]:
        """Create ``count`` fresh singleton classes."""
        return [self.make_set() for _ in range(count)]

    def find(self, ident: int) -> int:
        """Return the canonical representative of ``ident``.

        Uses iterative path compression (halving).
        """
        parent = self._parent
        root = ident
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[ident] != root:
            if ident < self._frozen:
                self._undo.append((parent, ident, parent[ident]))
            ident, parent[ident] = parent[ident], root
        return root

    def same(self, a: int, b: int) -> bool:
        """Return True iff ``a`` and ``b`` are in the same equivalence class."""
        return self.find(a) == self.find(b)

    def is_canonical(self, ident: int) -> bool:
        """Return True iff ``ident`` is its own representative."""
        return self._parent[ident] == ident

    def union(self, a: int, b: int, reason: Optional[Justification] = None) -> int:
        """Merge the classes of ``a`` and ``b``; return the new representative.

        The id that stops being canonical is recorded as dirty so rebuilding
        can repair rows that mention it.  When proofs are enabled, a merging
        union records one justification edge ``a — b`` (between the ids as
        passed, so the proof forest stays connected inside each class);
        ``reason`` defaults to an explicit union.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        size = self._size
        # Union by size: the larger class keeps its representative.
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        frozen = self._frozen
        if frozen:
            undo = self._undo
            if rb < frozen:
                undo.append((self._parent, rb, rb))
            if ra < frozen:
                undo.append((size, ra, size[ra]))
        self._parent[rb] = ra
        size[ra] += size[rb]
        self._dirty.add(rb)
        self._n_unions += 1
        if self.proofs is not None:
            self.proofs.record(a, b, reason if reason is not None else EXPLICIT)
        if frozen and len(self._undo) > self._journal_limit(tables=False):
            self._shorten_journal()
        return ra

    def union_all(self, ids: Iterable[int], reason: Optional[Justification] = None) -> int:
        """Merge every id in ``ids`` into a single class."""
        ids = list(ids)
        if not ids:
            raise ValueError("union_all requires at least one id")
        root = self.find(ids[0])
        for other in ids[1:]:
            root = self.union(root, other, reason)
        return root

    @property
    def has_dirty(self) -> bool:
        return bool(self._dirty)

    def take_dirty(self) -> Set[int]:
        """Return and clear the set of ids made non-canonical since last call.

        Rebuilding (Section 4) drives its repair loop off this set: while it
        is non-empty, some database rows may mention stale ids.
        """
        dirty = self._dirty
        self._dirty = set()
        return dirty

    # -- full copies (serialization, tests) ------------------------------------

    def snapshot(self) -> tuple:
        """Capture the full union-find state as copies, for a later
        :meth:`restore` or for serialization."""
        forest = self.proofs.snapshot() if self.proofs is not None else None
        return (list(self._parent), list(self._size), set(self._dirty), self._n_unions, forest)

    def restore(self, state: tuple) -> None:
        """Reinstall a state captured by :meth:`snapshot`.

        Ids allocated after the snapshot simply cease to exist; callers must
        not use values that leak out of the snapshotted scope.

        Copies defensively: installing the snapshot's own lists by reference
        would let post-restore unions mutate the saved tuple, silently
        corrupting a second restore of the same snapshot.
        """
        self._install(_copied(state))

    def _install(self, state: tuple) -> None:
        """Adopt a snapshot tuple's containers by reference.

        Live journaled marks describe the arrays being replaced, so they
        are turned into copies first.
        """
        self.copy_marks()
        self._parent, self._size, self._dirty, self._n_unions, forest = state
        if self.proofs is not None and forest is not None:
            self.proofs.install(*forest)

    # -- journaled captures (push/pop, transactions, fork) ----------------------

    def mark(self, tables: Optional[Dict[str, Table]] = None) -> Mark:
        """Capture this union-find, its proof forest and node log, and
        ``tables`` (name -> table).

        O(1) in the number of ids and rows (plus a copy of the dirty set,
        which is empty after every rebuild).  Until the mark dies, every
        overwrite of an id that exists now, and of a row of ``tables``
        that exists now, is journaled; ids allocated and rows inserted
        later are truncated by :meth:`rollback`.
        """
        mark = Mark(self, tables or {})
        self._marks.append(weakref.ref(mark, self._released))
        # Read the position only now: a mark dying before this one was
        # tracked could have emptied the journal.
        mark.pos = len(self._undo)
        self._set_frozen(mark.n_ids)
        return mark

    def rollback(self, mark: Mark) -> Dict[str, Table]:
        """Reinstall the state ``mark`` captured; the mark stays valid.

        Returns the captured tables (name -> table), each holding the rows
        it held at the capture.  Restoring the newest live mark undoes the
        journal back to it and truncates, in O(writes undone); a table not
        written since keeps its containers and indexes.  Any other restore
        (an older mark, as when a batch pops a push made before it, or a
        mark already turned into copies) first turns every live mark into
        copies and then installs a copy of ``mark``'s; tables not written
        since the capture are shared, not copied.  A mark of another
        union-find (a fork's parent) is installed as one fresh copy of its
        union-find state and new tables sharing its rows copy-on-write.
        """
        owner = mark.owner
        if owner is not self:
            state, copies = owner._copy_of(mark)
            self._install(state)
            tables: Dict[str, Table] = {}
            for name, (table, rows) in copies.items():
                tables[name] = fresh = Table(table.decl)
                fresh.restore(rows)
            return tables
        marks = self._marks
        if mark.state is None and marks and marks[-1]() is mark:
            undo = self._undo
            while len(undo) > mark.pos:
                array, index, old = undo.pop()
                array[index] = old
            n = mark.n_ids
            del self._parent[n:]
            del self._size[n:]
            if self.proofs is not None:
                self.proofs.truncate(n, mark.n_nodes)
            self._dirty = set(mark.dirty)
            self._n_unions = mark.n_unions
            for table, capture in mark.tables.values():
                table.rollback(capture)
            return {name: table for name, (table, _capture) in mark.tables.items()}
        self.copy_marks()
        assert mark.state is not None  # every live journaled mark is copied now
        self.restore(mark.state)
        for table, rows in mark.tables.values():
            table.restore(rows)
        return {name: table for name, (table, _rows) in mark.tables.items()}

    def record_row(self, table: Table, key: Any, old: Any) -> None:
        """Journal that ``table`` held row ``old`` under ``key`` before an
        overwrite (``Table.put`` under a live capture)."""
        undo = self._undo
        undo.append((table, key, old))
        if len(undo) > self._journal_limit(tables=False):
            self._shorten_journal()

    def _copy_of(self, mark: Mark) -> Tuple[tuple, Dict[str, Tuple[Table, tuple]]]:
        """The state ``mark`` captured: fresh containers holding its
        union-find state, and per table name the table with a
        ``Table.snapshot()`` tuple of its rows.  A table not written since
        the capture is shared copy-on-write; a written one is copied."""
        if mark.state is not None:
            return _copied(mark.state), dict(mark.tables)
        n = mark.n_ids
        forest = self.proofs
        arrays: List[list] = [self._parent, self._size]
        if forest is not None:
            arrays += [forest._parent, forest._edge]
        copies = [array[:n] for array in arrays]
        copy_of: Dict[int, Any] = {id(array): copy for array, copy in zip(arrays, copies)}
        tables: Dict[str, Tuple[Table, tuple]] = {}
        for name, (table, capture) in mark.tables.items():
            if table.written_since(capture):
                rows = table.copy_at(capture)
                copy_of[id(table)] = rows[0]
            else:
                rows = table.snapshot()
            tables[name] = (table, rows)
        undo = self._undo
        for at in range(len(undo) - 1, mark.pos - 1, -1):
            array, index, old = undo[at]
            copy = copy_of.get(id(array))
            # Skip ids allocated and rows inserted after the mark, and
            # tables it did not capture.
            if copy is not None and (index in copy if type(copy) is dict else index < n):
                copy[index] = old
        forest_state = None
        if forest is not None:
            # Copying the whole log and dropping its newest entries beats
            # rebuilding a prefix entry by entry (a fork drops none).
            nodes = dict(forest.nodes)
            for _ in range(len(nodes) - mark.n_nodes):
                nodes.popitem()
            forest_state = (copies[2], copies[3], nodes)
        state = (copies[0], copies[1], set(mark.dirty), mark.n_unions, forest_state)
        return state, tables

    def copy_marks(self, count: Optional[int] = None) -> None:
        """Turn the oldest ``count`` live journaled marks (all by default)
        into copies and drop the journal records no live mark needs.

        Besides the restores that cannot undo, ``Table.remove`` of a
        captured row calls this: no record restores a removed row's
        position."""
        marks = self._marks
        if not marks:
            return  # the journal is empty and nothing is journaled
        copied = marks[:count]
        for ref in copied:
            mark = ref()
            if mark is not None:
                mark.state, mark.tables = self._copy_of(mark)
        # Rebuild rather than slice: a collection during the copies may
        # have run ``_released`` and shortened the list.
        self._marks = marks = [ref for ref in self._marks if ref not in copied]
        live = [mark for mark in (ref() for ref in marks) if mark is not None]
        start = live[0].pos if live else len(self._undo)
        del self._undo[:start]
        for mark in live:
            mark.pos -= start
        self._set_frozen(live[-1].n_ids if live else 0)

    def _journal_limit(self, tables: bool = True) -> int:
        """How many records the journal may hold before it outweighs one
        copy of this union-find, its forest and node log, and (unless
        ``tables`` is false, for a cheap lower bound) the tables written
        since the oldest live mark."""
        forest = self.proofs
        arrays, nodes = (2, 0) if forest is None else (4, len(forest.nodes))
        copy_bytes = ENTRY_BYTES * arrays * len(self._parent) + NODE_BYTES * nodes
        oldest = self._marks[0]() if tables and self._marks else None
        if oldest is not None:
            copy_bytes += ROW_BYTES * sum(
                len(table)
                for table, capture in oldest.tables.values()
                if table.written_since(capture)
            )
        return copy_bytes // RECORD_BYTES

    def _shorten_journal(self) -> None:
        """Copy the oldest live marks until the journal weighs no more than
        a copy, so a capture held across many batches (a client's ``push``
        left open) costs no more memory than a copy would."""
        while self._marks and len(self._undo) > self._journal_limit():
            self.copy_marks(1)

    def _released(self, ref: "weakref.ref[Mark]") -> None:
        """A journaled mark died: journal only for the marks still alive."""
        marks = self._marks
        if ref in marks:  # a mark turned into copies has left the list
            marks.remove(ref)
        for newer in reversed(marks):
            mark = newer()
            if mark is not None:
                self._set_frozen(mark.n_ids)
                return
        self._undo.clear()
        self._set_frozen(0)

    def _set_frozen(self, ids: int) -> None:
        self._frozen = ids
        if self.proofs is not None:
            self.proofs._frozen = ids

    # -- introspection ----------------------------------------------------------

    def class_members(self, ident: int) -> List[int]:
        """Return all ids currently in the same class as ``ident``.

        This is an O(n) scan and intended for debugging, tests, and
        extraction-style post-processing, not for the hot path.
        """
        root = self.find(ident)
        return [i for i in range(len(self._parent)) if self.find(i) == root]

    def n_classes(self) -> int:
        """Number of distinct equivalence classes."""
        return sum(1 for i in range(len(self._parent)) if self._parent[i] == i)


def _copied(state: tuple) -> tuple:
    """Fresh containers holding a :meth:`UnionFind.snapshot` tuple's state."""
    parent, size, dirty, n_unions, forest = state
    if forest is not None:
        forest = (list(forest[0]), list(forest[1]), dict(forest[2]))
    return (list(parent), list(size), set(dirty), n_unions, forest)
