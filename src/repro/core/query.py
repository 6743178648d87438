"""Conjunctive queries over the egglog database.

A rule's query is a flat conjunction of:

* *table atoms* ``f(a1, ..., an) -> o`` over egglog functions, and
* *primitive atoms* — interpreted computations or guards such as
  ``(+ x y) -> z`` or ``(!= x y)``.

Because the database is kept canonical with respect to the built-in
equivalence relation, evaluating these queries with ordinary relational joins
is exactly e-matching (pattern matching modulo equality) — this is the
"relational e-matching" insight the paper builds on.

This module holds only the query data types.  The joins that
evaluate them — rule bodies and one-off ``query``/``check`` alike — are the
compiled executors in :mod:`repro.core.compile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .values import Value


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
