"""Extraction: the cheapest term of an e-class, kept up to date from the write log.

A node ``f(c1, ..., cn)`` costs ``f``'s declared cost plus the costs of
its eq-sorted children (primitive arguments are free), and a class costs
as much as its cheapest node.  Declared costs are integers ≥ 1, so a node
costs more than each of its children: the best nodes never form a cycle,
and the least fixpoint is the one a Bellman-Ford pass reaches.

Ties are broken by a pinned total order: cost, then the table's
declaration order, then the row's canonical key compared column by column
(:func:`key_order`).  The chosen term therefore depends only on the
database — a from-scratch pass, a fork and a save/load round trip pick the
same one.

The engine keeps the best-node map between calls (``EGraph._extraction``)
with a timestamp watermark.  Under §3.2's ``:merge min`` reading of costs,
a class's cost only falls while rows are added and classes merge, so an
update only visits

* the rows stamped at or after the watermark (``Table.new_keys``): new
  rows and the rows rebuilding repaired, which include every row of a
  class merged into another, and
* the parents of a class that got its first entry or a lower cost, found
  through the per-column hash indexes rebuilding keeps.

Whenever a cost can rise — a deleted row, a conflict that reaches a
non-``union`` merge on an eq-sorted output, ``restore_state`` (pop, a
rolled-back batch, fork) or ``load`` — the engine drops the map, and the
next extraction recomputes it from scratch (:func:`full_pass`).

Rebuilding can merge a class's best row into an existing row that it does
not restamp.  The entry then names a row that is gone, though its cost is
still right: the surviving row costs no more.  Assembling a term replaces
such an entry by a re-scan of the class's live nodes through the
output-column index.  An update needs no such check: a node that beats a
merged-away entry also beats every live node that lost to it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..core.database import Table
from ..core.terms import Term, TermApp, TermLit
from ..core.values import Value
from .errors import ExtractError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph

Key = Tuple[Value, ...]

#: A class's best node: ``(cost, declaration rank of its table, function, key)``.
Entry = Tuple[int, int, str, Key]


class BestNodes:
    """The best-node map of one engine and the watermark it is current to."""

    __slots__ = ("best", "watermark")

    def __init__(self) -> None:
        #: Canonical class id -> best node.  Ids merged away keep stale
        #: entries, which are never read: lookups go through ``find``.
        self.best: Dict[int, Entry] = {}
        #: Rows stamped at or after this are looked at by the next update.
        self.watermark = 0


def _value_order(value: Value) -> object:
    """A sort key for one column value.  NaN sorts after every other f64,
    and a set sorts by its sorted elements, so the order is total."""
    data = value[1]
    if data.__class__ is float:
        return (1, 0.0) if data != data else (0, data)
    if data.__class__ is frozenset:
        return tuple(sorted((item[0], _value_order(item)) for item in data))
    return data


def key_order(key: Key) -> tuple:
    """A sort key ordering the rows of one table: column by column."""
    return tuple([_value_order(value) for value in key])


class _Source:
    """One extractable table: its rank, cost and eq-sorted argument columns."""

    __slots__ = ("rank", "name", "table", "cost", "children")

    def __init__(self, rank: int, table: Table, children: Tuple[int, ...]) -> None:
        self.rank = rank
        self.name = table.decl.name
        self.table = table
        self.cost = table.decl.cost
        self.children = children


class _Pass:
    """One update of a best-node map: the extractable tables and a worklist
    of ``(table, keys)`` batches whose rows are (re)evaluated."""

    def __init__(self, egraph: "EGraph", best: Dict[int, Entry]) -> None:
        self.best = best
        self.find = egraph.uf.find
        self.tables = egraph.tables
        self.eq_sorts = egraph._eq_sorts
        self.queue: Deque[Tuple[_Source, Iterable[Key]]] = deque()
        self.sources: List[_Source] = []
        #: Sort -> extractable tables with an output of that sort.
        self.nodes_of: Dict[str, List[_Source]] = {}
        #: Sort -> (table, argument column) pairs holding that sort.
        self.parents_of: Dict[str, List[Tuple[_Source, int]]] = {}
        for rank, table in enumerate(egraph.tables.values()):
            decl = table.decl
            if decl.unextractable or decl.out_sort not in self.eq_sorts:
                continue
            children = tuple(
                col for col, sort in enumerate(decl.arg_sorts) if sort in self.eq_sorts
            )
            source = _Source(rank, table, children)
            self.sources.append(source)
            self.nodes_of.setdefault(decl.out_sort, []).append(source)
            for col in children:
                self.parents_of.setdefault(decl.arg_sorts[col], []).append((source, col))

    # -- the fixpoint ---------------------------------------------------------

    def drain(self) -> None:
        """Evaluate queued rows until no class's cost falls any more."""
        best, find, queue = self.best, self.find, self.queue
        while queue:
            source, keys = queue.popleft()
            rank, name, data = source.rank, source.name, source.table.data
            base, children = source.cost, source.children
            for key in keys:
                cost = base
                for col in children:
                    child = best.get(find(key[col][1]))
                    if child is None:
                        break  # queued again when the child gets an entry
                    cost += child[0]
                else:
                    sort, ident = data[key].value
                    cls = find(ident)
                    current = best.get(cls)
                    if current is None or cost < current[0]:
                        best[cls] = (cost, rank, name, key)
                        self.push_parents(sort, cls)
                    elif cost == current[0] and (
                        rank < current[1]
                        or (rank == current[1] and key_order(key) < key_order(current[3]))
                    ):
                        best[cls] = (cost, rank, name, key)

    def push_parents(self, sort: str, cls: int) -> None:
        """Queue every extractable row with ``cls`` as an argument."""
        probe = (Value(sort, cls),)
        for source, col in self.parents_of.get(sort, ()):
            keys = source.table.index((col,)).get(probe)
            if keys:
                self.queue.append((source, keys))

    def live_entry(self, sort: str, cls: int) -> Optional[Entry]:
        """``cls``'s entry, first replaced by the best of the class's live
        nodes when the row it names was merged away."""
        entry = self.best.get(cls)
        if entry is None:
            return None
        row = self.tables[entry[2]].data.get(entry[3])
        if row is not None and self.find(row.value[1]) == cls:
            return entry
        del self.best[cls]
        probe = (Value(sort, cls),)
        for source in self.nodes_of[sort]:
            keys = source.table.index((source.table.arity,)).get(probe)
            if keys:
                self.queue.append((source, keys))
        self.drain()
        found = self.best.get(cls)
        # The row that replaced the merged-away one costs no more, and every
        # live node was compared with the entry at its current cost.
        assert found is not None and found[0] == entry[0], (entry, found)
        return found

    # -- terms ----------------------------------------------------------------

    def term(self, value: Value) -> Tuple[int, Term]:
        """The best term of ``value``'s class with its cost.

        Built bottom-up with an explicit stack, so its depth is not bounded
        by the recursion limit.
        """
        find, eq_sorts = self.find, self.eq_sorts
        root = find(value[1])
        built: Dict[int, Term] = {}
        entries: Dict[int, Entry] = {}
        opened: Set[int] = set()
        stack = [(value[0], root)]
        while stack:
            sort, cls = stack[-1]
            if cls in built:
                stack.pop()
                continue
            entry = entries.get(cls)
            if entry is None:
                entry = self.live_entry(sort, cls)
                if entry is None:
                    raise ExtractError(f"no extractable node for e-class {cls}")
                entries[cls] = entry
            key = entry[3]
            missing = [
                (arg[0], child)
                for arg in key
                if arg[0] in eq_sorts
                for child in (find(arg[1]),)
                if child not in built
            ]
            if missing:
                if cls in opened:
                    raise ExtractError(f"cycle while extracting e-class {cls}")
                opened.add(cls)
                stack.extend(missing)
                continue
            built[cls] = TermApp(
                entry[2],
                tuple(
                    built[find(arg[1])] if arg[0] in eq_sorts else TermLit(arg)
                    for arg in key
                ),
            )
            stack.pop()
        return entries[root][0], built[root]


def full_pass(work: _Pass) -> None:
    """Compute every class's best node from scratch into ``work``'s empty map."""
    for source in work.sources:
        work.queue.append((source, source.table.data.keys()))
    work.drain()


def extract(egraph: "EGraph", value: Value) -> Tuple[int, Term]:
    """The cheapest term of eq-sorted ``value``'s class, with its cost.

    The database must be canonical (rebuilt).  Brings the engine's
    best-node map up to date first: from scratch when it was dropped,
    otherwise from the rows written since its watermark.
    """
    state = egraph._extraction
    # Uninstalled while it is updated: an update cut short (an exception,
    # an interrupt) must leave no half-propagated map behind.
    egraph._extraction = None
    if state is None:
        state = BestNodes()
        work = _Pass(egraph, state.best)
        full_pass(work)
    else:
        work = _Pass(egraph, state.best)
        for source in work.sources:
            work.queue.append((source, source.table.new_keys(state.watermark)))
        work.drain()
    state.watermark = egraph.timestamp
    egraph._extraction = state
    return work.term(value)
