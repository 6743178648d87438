"""Persistent, incrementally-maintained column-trie indexes.

A nested-dict trie that the generic-join executor
(:class:`repro.core.compile.CompiledGenericQuery`) builds per execution
costs O(|table|) per atom — every iteration re-projects and re-hashes rows
that have not changed.  This module makes those tries *persistent*: a
:class:`TrieIndex` is owned by a :class:`~repro.core.database.Table`,
registered once per column ordering, and maintained incrementally on every
insert, delete, and canonicalizing rewrite performed during rebuilding.
The executor descends a registered trie where one exists and builds its
own otherwise (one-off queries, repeated variables).

Two ideas carry the subsystem:

* **Column-order tries.**  A trie over a permutation of *all* columns
  (arguments then output) is exactly the structure generic join descends:
  level ``k`` maps the value of column ``order[k]`` to the sub-trie of rows
  sharing that prefix, and the last level maps to ``True``.  An atom whose
  constant columns come first in the ordering is answered by descending the
  constants and handing the remaining sub-trie to the join.

* **Timestamp buckets.**  Rows are additionally partitioned into one trie
  per timestamp (the iteration that last wrote them).  The semi-naïve
  delta restriction of Section 4.3 — "rows stamped at or after the rule's
  watermark" — is then an *index slice*: the merge of the buckets at or
  after the watermark, built in O(|delta|) instead of filtering the table.

Query planning lives here too (:func:`plan_query`): it fixes a
*deterministic, structural* global variable order per query so that the
orderings a compiled rule needs are stable across iterations and can be
registered with the tables up front by the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from .values import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .query import Query, TableAtom

RowTuple = Tuple[Value, ...]  # full row: (args..., output)
Order = Tuple[int, ...]


class TrieIndex:
    """A nested-dict trie over one column ordering, maintained incrementally.

    ``order`` must be a permutation of all columns ``0 .. arity`` (column
    ``arity`` is the output).  ``root`` holds every live row; ``buckets``
    partitions the same rows by their current timestamp.  A row lives in
    exactly one bucket — an overwrite moves it from its old stamp's bucket
    to the new one — so the "new since ``since``" view is the disjoint
    merge of the buckets at or after ``since``.

    ``stale`` marks an index whose table was restored from a snapshot
    (``pop``); the owning table rebuilds it from the surviving rows on the
    next access, so restores stay cheap and the cost lands only on indexes
    actually used afterwards.
    """

    __slots__ = ("order", "root", "buckets", "stale", "_mutations", "_delta_cache")

    def __init__(self, order: Order) -> None:
        self.order = tuple(order)
        self.root: Dict = {}
        self.buckets: Dict[int, Dict] = {}
        self.stale = False
        self._mutations = 0
        self._delta_cache: Optional[Tuple[int, int, Dict]] = None

    def __len__(self) -> int:
        """Number of values at the first trie level (cheap size signal)."""
        return len(self.root)

    # -- maintenance ---------------------------------------------------------

    def insert(self, row: RowTuple, timestamp: int) -> None:
        """Add ``row`` (stamped ``timestamp``) to the trie and its bucket."""
        self._insert_into(self.root, row)
        self._insert_into(self.buckets.setdefault(timestamp, {}), row)
        self._mutations += 1

    def remove(self, row: RowTuple, timestamp: int) -> None:
        """Remove ``row`` (previously stamped ``timestamp``); prunes empty nodes."""
        self._remove_from(self.root, row)
        bucket = self.buckets.get(timestamp)
        if bucket is not None:
            self._remove_from(bucket, row)
            if not bucket:
                del self.buckets[timestamp]
        self._mutations += 1

    def _insert_into(self, node: Dict, row: RowTuple) -> None:
        order = self.order
        for col in order[:-1]:
            node = node.setdefault(row[col], {})
        node[row[order[-1]]] = True

    def _remove_from(self, node: Dict, row: RowTuple) -> None:
        order = self.order
        path: List[Tuple[Dict, Value]] = []
        for col in order[:-1]:
            child = node.get(row[col])
            if child is None:
                return
            path.append((node, row[col]))
            node = child
        node.pop(row[order[-1]], None)
        for parent, value in reversed(path):
            if parent[value]:
                break
            del parent[value]

    def rebuild_from(self, rows: Iterable[Tuple[RowTuple, int]]) -> None:
        """Reconstruct the trie and its buckets from scratch (restore path)."""
        self.root = {}
        self.buckets = {}
        self._delta_cache = None
        self._mutations += 1
        for row, timestamp in rows:
            self._insert_into(self.root, row)
            self._insert_into(self.buckets.setdefault(timestamp, {}), row)
        self.stale = False

    # -- views ---------------------------------------------------------------

    def delta_root(self, since: int) -> Dict:
        """Trie of rows stamped at or after ``since`` — the semi-naïve slice.

        The common case (one bucket at or after the watermark, i.e. only the
        previous iteration wrote) returns that bucket directly with no
        copying; multiple buckets are merged once and cached until the next
        mutation.
        """
        cached = self._delta_cache
        if (
            cached is not None
            and cached[0] == since
            and cached[1] == self._mutations
        ):
            return cached[2]
        live = [bucket for ts, bucket in self.buckets.items() if ts >= since]
        if not live:
            merged: Dict = {}
        elif len(live) == 1:
            merged = live[0]
        else:
            merged = {}
            for bucket in live:
                _merge_tries(merged, bucket)
        self._delta_cache = (since, self._mutations, merged)
        return merged


def _merge_tries(dst: Dict, src: Dict) -> None:
    """Merge trie ``src`` into ``dst`` (rows are disjoint, prefixes shared)."""
    for value, child in src.items():
        if child is True:
            dst[value] = True
            continue
        node = dst.get(value)
        if not isinstance(node, dict):
            dst[value] = node = {}
        _merge_tries(node, child)


#: Sentinel sub-trie for a fully-constant atom that matched: non-empty but
#: never descended (the atom binds no variables).
NONEMPTY = {"__nonempty__": True}


def descend_constants(node: Dict, values: Tuple[Value, ...]) -> Optional[Dict]:
    """Walk ``node`` down the constant prefix of an ordering.

    Returns the sub-trie keyed by the atom's variable columns, the
    :data:`NONEMPTY` sentinel when every column was constant and the row
    exists, or None when the constants match nothing.
    """
    for value in values:
        if node is True or not node:
            return None
        node = node.get(value)
        if node is None:
            return None
    if node is True:
        return NONEMPTY
    return node if node else None


# ---------------------------------------------------------------------------
# Query planning: structural variable order + per-atom index orderings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomIndexSpec:
    """The persistent-index access plan for one table atom.

    ``order`` is the column ordering the atom's table must be indexed on:
    constant columns first (in column order), then the atom's distinct
    variable columns sorted by the query's global variable rank.
    ``const_values`` are descended first; ``var_names`` name the trie levels
    that remain, in global order.  Atoms with repeated variables get no
    spec — equality between trie levels cannot be enforced by descent — and
    fall back to the ad-hoc projection path.
    """

    order: Order
    const_values: Tuple[Value, ...]
    var_names: Tuple[str, ...]


@dataclass(frozen=True)
class QueryPlan:
    """A query's deterministic variable order plus per-atom index specs."""

    var_order: Tuple[str, ...]
    var_rank: Dict[str, int]
    specs: Tuple[Optional[AtomIndexSpec], ...]


def structural_var_order(atoms: Iterable["TableAtom"]) -> List[str]:
    """Global variable order from query *structure* only.

    Variables occurring in more atoms come first (they constrain the join
    most), ties broken by first occurrence.  Unlike a cardinality-based
    tie-break this is stable across iterations, which is what lets compiled
    rules register their index orderings once, up front.
    """
    from .query import QVar  # local import: query.py imports this module

    occurrence: Dict[str, int] = {}
    first_seen: Dict[str, int] = {}
    position = 0
    for atom in atoms:
        seen_here = set()
        for col in atom.columns():
            if isinstance(col, QVar):
                if col.name not in first_seen:
                    first_seen[col.name] = position
                    position += 1
                if col.name not in seen_here:
                    seen_here.add(col.name)
                    occurrence[col.name] = occurrence.get(col.name, 0) + 1
    return sorted(occurrence, key=lambda v: (-occurrence[v], first_seen[v]))


def plan_atom(
    atom: "TableAtom", var_rank: Dict[str, int]
) -> Optional[AtomIndexSpec]:
    """Index spec for one atom, or None when only the ad-hoc path applies."""
    from .query import QVar  # local import: query.py imports this module

    columns = atom.columns()
    const_cols: List[int] = []
    var_cols: List[Tuple[int, str]] = []
    seen_vars = set()
    for position, col in enumerate(columns):
        if isinstance(col, QVar):
            if col.name in seen_vars:
                return None  # repeated variable: trie descent cannot equate levels
            seen_vars.add(col.name)
            var_cols.append((position, col.name))
        else:
            const_cols.append(position)
    var_cols.sort(key=lambda entry: var_rank[entry[1]])
    order = tuple(const_cols) + tuple(position for position, _name in var_cols)
    return AtomIndexSpec(
        order=order,
        const_values=tuple(columns[position] for position in const_cols),
        var_names=tuple(name for _position, name in var_cols),
    )


def plan_query(query: "Query") -> QueryPlan:
    """Plan a conjunctive query: variable order and per-atom index specs.

    Deterministic in the query's structure, so calling this at rule
    registration time and again at search time yields identical orderings.
    The plan is cached on the query, keyed by its atoms (frozen records),
    so the per-iteration delta searches of a compiled rule re-plan nothing.
    """
    key = tuple(query.atoms)
    cached = getattr(query, "_plan_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    var_order = tuple(structural_var_order(query.atoms))
    var_rank = {name: rank for rank, name in enumerate(var_order)}
    specs = tuple(plan_atom(atom, var_rank) for atom in query.atoms)
    plan = QueryPlan(var_order=var_order, var_rank=var_rank, specs=specs)
    query._plan_cache = (key, plan)
    return plan
