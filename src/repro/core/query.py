"""Conjunctive queries over the egglog database.

A rule's query is a flat conjunction of:

* *table atoms* ``f(a1, ..., an) -> o`` over egglog functions, and
* *primitive atoms* — interpreted computations or guards such as
  ``(+ x y) -> z`` or ``(!= x y)``.

Because the database is kept canonical with respect to the built-in
equivalence relation, evaluating these queries with ordinary relational joins
is exactly e-matching (pattern matching modulo equality) — this is the
"relational e-matching" insight the paper builds on.

Two join strategies are provided:

* :func:`search_indexed` — an index-nested-loop join with a greedy atom
  ordering (bound-variables-first, then smallest table).  This is the default
  strategy.
* :func:`repro.core.genericjoin.search_generic` — a worst-case optimal
  variable-at-a-time generic join, as used by relational e-matching.

Both support *delta* searches for semi-naïve evaluation: one designated atom
is restricted to rows whose timestamp is at least ``since``.

These interpreted strategies serve one-off public queries (``query``,
``check``) and act as the reference implementation; the scheduler runs
compiled rules through the positional executors in
:mod:`repro.core.compile`, which enumerate matches in exactly the same
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .builtins import PrimitiveRegistry
from .database import Table
from .values import BOOL, UNIT, Value


@dataclass(frozen=True)
class QVar:
    """A query variable."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Arg = Union[QVar, Value]


@dataclass(frozen=True)
class TableAtom:
    """An atom ``func(args...) -> out`` over an egglog function table."""

    func: str
    args: Tuple[Arg, ...]
    out: Arg

    def columns(self) -> Tuple[Arg, ...]:
        return self.args + (self.out,)

    def variables(self) -> Iterator[str]:
        for col in self.columns():
            if isinstance(col, QVar):
                yield col.name


@dataclass(frozen=True)
class PrimAtom:
    """A primitive computation or guard.

    If ``out`` is None the primitive is a guard: it must evaluate to boolean
    true (or unit).  Otherwise the result is unified with ``out`` — binding it
    if it is an unbound variable, or comparing for equality otherwise.
    """

    op: str
    args: Tuple[Arg, ...]
    out: Optional[Arg] = None

    def variables(self) -> Iterator[str]:
        for col in self.args:
            if isinstance(col, QVar):
                yield col.name
        if isinstance(self.out, QVar):
            yield self.out.name

    def input_variables(self) -> Set[str]:
        return {a.name for a in self.args if isinstance(a, QVar)}


@dataclass
class Query:
    """A conjunctive query: table atoms plus primitive atoms."""

    atoms: List[TableAtom] = field(default_factory=list)
    prims: List[PrimAtom] = field(default_factory=list)

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for atom in self.atoms:
            result.update(atom.variables())
        for prim in self.prims:
            result.update(prim.variables())
        return result

    def table_variables(self) -> Set[str]:
        result: Set[str] = set()
        for atom in self.atoms:
            result.update(atom.variables())
        return result


Substitution = Dict[str, Value]


class PrimFailure(Exception):
    """Raised when a primitive guard cannot be evaluated in an action context."""


def apply_prims(
    prims: Sequence[PrimAtom],
    bindings: Substitution,
    registry: PrimitiveRegistry,
) -> Optional[Substitution]:
    """Evaluate primitive atoms against ``bindings``.

    Repeatedly applies every primitive whose inputs are fully bound; a
    primitive may bind its output variable.  Returns the extended bindings on
    success, or None if some guard fails.  Primitives whose inputs never
    become bound cause a failure as well (the query is unsafe).
    """
    bindings = dict(bindings)
    pending = list(prims)
    progress = True
    while pending and progress:
        progress = False
        still_pending: List[PrimAtom] = []
        for prim in pending:
            if not prim.input_variables() <= bindings.keys():
                still_pending.append(prim)
                continue
            args = tuple(
                bindings[a.name] if isinstance(a, QVar) else a for a in prim.args
            )
            result = registry.call(prim.op, args)
            if result is None:
                return None
            if prim.out is None:
                if result.sort == BOOL and not result.data:
                    return None
                if result.sort not in (BOOL, UNIT):
                    return None
            elif isinstance(prim.out, QVar):
                existing = bindings.get(prim.out.name)
                if existing is None:
                    bindings[prim.out.name] = result
                elif existing != result:
                    return None
            else:
                if prim.out != result:
                    return None
            progress = True
        pending = still_pending
    if pending:
        return None
    return bindings


def plan_order(
    atoms: Sequence[TableAtom],
    tables: Dict[str, Table],
    delta_index: Optional[int],
) -> List[int]:
    """Greedy join order: the delta atom first, then atoms that share the most
    already-bound variables, tie-broken by smallest table.

    Shared by the interpreted :func:`search_indexed` below and the compiled
    executor (:mod:`repro.core.compile`) so both enumerate matches in the
    same order for the same database state.
    """
    remaining = list(range(len(atoms)))
    order: List[int] = []
    bound: Set[str] = set()

    def take(index: int) -> None:
        order.append(index)
        remaining.remove(index)
        bound.update(atoms[index].variables())

    if delta_index is not None:
        take(delta_index)
    while remaining:
        best = None
        best_key = None
        for index in remaining:
            atom = atoms[index]
            atom_vars = set(atom.variables())
            n_bound = len(atom_vars & bound)
            size = len(tables[atom.func]) if atom.func in tables else 0
            key = (-n_bound, size)
            if best_key is None or key < best_key:
                best_key = key
                best = index
        take(best)  # type: ignore[arg-type]
    return order


def _bind_row(
    atom: TableAtom, row: Tuple[Value, ...], bindings: Substitution
) -> Optional[Substitution]:
    """Try to extend ``bindings`` so that ``atom`` matches the full ``row``."""
    new_bindings = bindings
    copied = False
    for col, value in zip(atom.columns(), row):
        if isinstance(col, QVar):
            existing = new_bindings.get(col.name)
            if existing is None:
                if not copied:
                    new_bindings = dict(new_bindings)
                    copied = True
                new_bindings[col.name] = value
            elif existing != value:
                return None
        else:
            if col != value:
                return None
    return new_bindings if copied else dict(new_bindings)


def search_indexed(
    tables: Dict[str, Table],
    registry: PrimitiveRegistry,
    query: Query,
    delta_atom: Optional[int] = None,
    since: int = 0,
) -> Iterator[Substitution]:
    """Index-nested-loop join over the query's table atoms.

    ``delta_atom``/``since`` implement the semi-naïve restriction: when given,
    the designated atom only matches rows with ``timestamp >= since``.
    """
    atoms = query.atoms
    if not atoms:
        result = apply_prims(query.prims, {}, registry)
        if result is not None:
            yield result
        return

    for atom in atoms:
        if atom.func not in tables:
            return
    order = plan_order(atoms, tables, delta_atom)

    def recurse(position: int, bindings: Substitution) -> Iterator[Substitution]:
        if position == len(order):
            final = apply_prims(query.prims, bindings, registry)
            if final is not None:
                yield final
            return
        atom_index = order[position]
        atom = atoms[atom_index]
        table = tables[atom.func]
        columns = atom.columns()
        is_delta = delta_atom is not None and atom_index == delta_atom

        bound_cols: List[int] = []
        bound_vals: List[Value] = []
        for col_index, col in enumerate(columns):
            if isinstance(col, QVar):
                value = bindings.get(col.name)
                if value is not None:
                    bound_cols.append(col_index)
                    bound_vals.append(value)
            else:
                bound_cols.append(col_index)
                bound_vals.append(col)

        n_args = len(atom.args)
        if is_delta:
            candidate_keys = table.new_keys(since)
        elif bound_cols[:n_args] == list(range(n_args)):
            # Every key column is bound: one dict probe, no index.  A bound
            # output is checked against the row by ``_bind_row`` below.
            key = tuple(bound_vals[:n_args])
            candidate_keys = [key] if key in table.data else []
        elif bound_cols:
            index = table.index(tuple(bound_cols))
            # Snapshot the entry: the index is live (incrementally maintained)
            # and this generator may outlive subsequent table writes.
            candidate_keys = list(index.get(tuple(bound_vals), ()))
        else:
            candidate_keys = list(table.data.keys())

        for key in candidate_keys:
            row = table.get_row(key)
            if row is None:
                continue
            if is_delta and row.timestamp < since:
                continue
            full = key + (row.value,)
            extended = _bind_row(atom, full, bindings)
            if extended is None:
                continue
            yield from recurse(position + 1, extended)

    yield from recurse(0, {})
