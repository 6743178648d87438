"""A deliberately naive reference evaluator for conjunctive queries.

The tests check every compiled executor in ``repro.core.compile`` against
this oracle.  It shares nothing with them except the query types and the
primitive registry: there is no join order, no index, no write log and no
slot assignment.  A match is a combination of one row per table atom,
taken from the cartesian product of every atom's rows, that agrees with
the atoms' constants and variables.  The primitive atoms then run to a
fixpoint over that match's bindings.
"""

import itertools

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
