"""Column-trie indexes and the structural query plan generic join uses.

A :class:`TrieIndex` is the second kind of index a
:class:`~repro.core.database.Table` owns, with the same lifecycle as a
hash index: built from the current rows on first request
(``Table.trie``), then kept exact by every ``put``/``remove`` that changes
a row's value — including the canonicalizing rewrites rebuilding performs
— and dropped when a restore or bulk load installs different rows.  Tries
describe rows, not timestamps: the semi-naïve delta (Section 4.3) is read
from the table's write log (``Table.new_keys``), and the generic-join
executor (:class:`repro.core.compile.CompiledGenericQuery`) builds a small
per-search trie from it for the delta atom.

A trie over a permutation of *all* columns (arguments then output) is
exactly the structure generic join descends: level ``k`` maps the value of
column ``order[k]`` to the sub-trie of rows sharing that prefix, and the
last level maps to ``True``.  An atom whose constant columns come first in
the ordering is answered by descending the constants and handing the
remaining sub-trie to the join.

Query planning lives here too (:func:`plan_query`): it fixes a
*deterministic, structural* global variable order per query, and with it
the column ordering each atom's trie is keyed by.
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
    ``arity`` is the output); ``root`` holds every row inserted and not
    since removed.
    """

    __slots__ = ("order", "root")

    def __init__(self, order: Order, rows: Iterable[RowTuple] = ()) -> None:
        self.order = tuple(order)
        self.root: Dict = {}
        for row in rows:
            self.insert(row)

    def insert(self, row: RowTuple) -> None:
        """Add ``row`` to the trie."""
        node = self.root
        order = self.order
        for col in order[:-1]:
            node = node.setdefault(row[col], {})
        node[row[order[-1]]] = True

    def remove(self, row: RowTuple) -> None:
        """Remove ``row``; prunes the nodes it leaves empty."""
        node = self.root
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
# Query planning: structural variable order + per-atom trie orderings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomIndexSpec:
    """The trie access plan for one table atom.

    ``order`` is the column ordering the atom's table trie is keyed by:
    constant columns first (in column order), then the atom's distinct
    variable columns sorted by the query's global variable rank.
    ``const_values`` are descended first; ``var_names`` name the trie levels
    that remain, in global order.  Atoms with repeated variables get no
    spec — equality between trie levels cannot be enforced by descent — and
    the executor builds their trie per search.
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
    tie-break this is stable across iterations, so a compiled rule asks its
    tables for the same trie orderings every time it searches.
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
    """Trie spec for one atom, or None when its trie is built per search."""
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
    """Plan a conjunctive query: variable order and per-atom trie specs.

    Deterministic in the query's structure; the generic executor plans
    once per compiled query.
    """
    var_order = tuple(structural_var_order(query.atoms))
    var_rank = {name: rank for rank, name in enumerate(var_order)}
    specs = tuple(plan_atom(atom, var_rank) for atom in query.atoms)
    return QueryPlan(var_order=var_order, var_rank=var_rank, specs=specs)
