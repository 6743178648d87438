"""Deliberately naive reference evaluators for queries and extraction.

The tests check every compiled executor in ``repro.core.compile`` against
:func:`evaluate`.  It shares nothing with them except the query types and
the primitive registry: there is no join order, no index, no write log and
no slot assignment.  A match is a combination of one row per table atom,
taken from the cartesian product of every atom's rows, that agrees with
the atoms' constants and variables.  The primitive atoms then run to a
fixpoint over that match's bindings.

:func:`extract_reference` recomputes extraction from scratch for every
call, with a Bellman-Ford fixpoint over every row: no kept map, no
watermark, no index.  The tests check ``repro.engine.extract`` against it.
"""

import itertools
import math

from repro.core.terms import TermApp, TermLit

from repro.core.query import QVar
from repro.core.values import BOOL, UNIT


def _unify(bindings, column, value):
    """Make ``column`` denote ``value`` in ``bindings``; False on a clash."""
    if isinstance(column, QVar):
        return bindings.setdefault(column.name, value) == value
    return column == value


def _run_prims(prims, bindings, registry):
    """Evaluate every primitive atom once its inputs are bound; False when a
    guard fails, an output clashes, or some input is never bound."""
    pending = list(prims)
    while pending:
        ready = [
            prim
            for prim in pending
            if all(arg.name in bindings for arg in prim.args if isinstance(arg, QVar))
        ]
        if not ready:
            return False
        for prim in ready:
            pending.remove(prim)
            args = tuple(
                bindings[arg.name] if isinstance(arg, QVar) else arg for arg in prim.args
            )
            result = registry.call(prim.op, args)
            if result is None:
                return False
            if prim.out is None:
                if result.sort not in (BOOL, UNIT) or result.data is False:
                    return False
            elif not _unify(bindings, prim.out, result):
                return False
    return True


def evaluate(tables, registry, query, delta_atom=None, since=0):
    """Every match of ``query`` as a ``{variable: value}`` dict.

    With ``delta_atom`` set, that atom (and only that atom) ranges over the
    rows stamped at or after ``since``: the semi-naïve delta restriction.
    """
    per_atom = []
    for index, atom in enumerate(query.atoms):
        table = tables.get(atom.func)
        rows = [] if table is None else list(table.rows())
        if index == delta_atom:
            rows = [row for row in rows if row[2] >= since]
        per_atom.append([key + (value,) for key, value, _timestamp in rows])
    matches = []
    for combination in itertools.product(*per_atom):
        bindings = {}
        if all(
            _unify(bindings, column, value)
            for atom, row in zip(query.atoms, combination)
            for column, value in zip(atom.columns(), row)
        ) and _run_prims(query.prims, bindings, registry):
            matches.append(bindings)
    return matches


def _order(value):
    """Sort key of one column value: NaN after every other float, a set by
    its sorted elements."""
    data = value.data
    if isinstance(data, float):
        return (1, 0.0) if math.isnan(data) else (0, data)
    if isinstance(data, frozenset):
        return tuple(sorted((item.sort, _order(item)) for item in data))
    return data


def extract_reference(egraph, value):
    """``(cost, term)`` for the cheapest term of eq-sorted ``value``'s
    class, or None when the class has no extractable node.

    The engine must be rebuilt.  A node costs its function's cost plus its
    eq-sorted children's costs.  Class costs are iterated to a fixpoint over
    every row of every extractable table.  Then each class takes, among its
    nodes of least cost, the one of the earliest-declared table, and among
    those the one whose key is least column by column.
    """
    eq_sorts = {name for name, sort in egraph.sorts.items() if sort.is_eq_sort}
    find = egraph.uf.find
    nodes = [
        (rank, name, table.decl.cost, key, find(out.data))
        for rank, (name, table) in enumerate(egraph.tables.items())
        if not table.decl.unextractable and table.decl.out_sort in eq_sorts
        for key, out, _timestamp in table.rows()
    ]

    def node_cost(node, costs):
        total = node[2]
        for arg in node[3]:
            if arg.sort in eq_sorts:
                if find(arg.data) not in costs:
                    return None
                total += costs[find(arg.data)]
        return total

    costs = {}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            cost = node_cost(node, costs)
            if cost is not None and (node[4] not in costs or cost < costs[node[4]]):
                costs[node[4]] = cost
                changed = True

    best = {}
    for node in nodes:
        cost = node_cost(node, costs)
        if cost is None:
            continue
        order = (cost, node[0], tuple(_order(arg) for arg in node[3]))
        if node[4] not in best or order < best[node[4]][0]:
            best[node[4]] = (order, node[1], node[3])

    def term_of(arg):
        if arg.sort not in eq_sorts:
            return TermLit(arg)
        _order_, func, key = best[find(arg.data)]
        return TermApp(func, tuple(term_of(child) for child in key))

    cls = find(value.data)
    if cls not in best:
        return None
    return costs[cls], term_of(value)
