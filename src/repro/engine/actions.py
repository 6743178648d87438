"""Actions: the right-hand sides of egglog rules.

An egglog rule (Section 3.1 of the paper) pairs a query with a sequence of
*actions* that run once per match, under the match's substitution:

* :class:`Let` binds a new variable to the value of an expression,
* :class:`Union` merges two eq-sorted values into one e-class,
* :class:`Set` writes ``f(args...) = value``, repairing functional-dependency
  violations with the function's *merge expression* (Section 3.2),
* :class:`Delete` removes a function entry,
* :class:`Panic` aborts execution with a message, and
* :class:`Expr` evaluates an expression for its side effect (inserting the
  term, e.g. asserting a relation fact).

These records are data: :mod:`repro.engine.program` compiles them, for
rules and for :func:`run_actions` alike.  :func:`set_function_value` writes
one row through the function's merge and is shared with rebuilding
(``repro.engine.rebuild``), which must apply the same merge expressions when
canonicalized keys collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from ..core.schema import FunctionDecl
from ..core.terms import Term, TermApp
from ..core.values import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph

Substitution = Dict[str, Value]


class Action:
    """Base class for actions (Section 3.1)."""


@dataclass(frozen=True)
class Let(Action):
    """Bind ``name`` to the value of ``expr`` for the rest of the actions."""

    name: str
    expr: Term


@dataclass(frozen=True)
class Union(Action):
    """Merge the e-classes of two eq-sorted expressions (Section 3.3)."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Set(Action):
    """Write ``call.func(call.args...) = value``.

    If the (canonicalized) key is already mapped to a different output, the
    function's merge expression decides the stored value (Section 3.2).
    """

    call: TermApp
    value: Term


@dataclass(frozen=True)
class Delete(Action):
    """Remove the entry for ``call.func(call.args...)`` if present."""

    call: TermApp


@dataclass(frozen=True)
class Panic(Action):
    """Abort the run with ``message`` (used to signal impossible states)."""

    message: str


@dataclass(frozen=True)
class Expr(Action):
    """Evaluate an expression for effect — inserts the term into the database.

    This is how ground facts are asserted from rule bodies, e.g.
    ``Expr(App("edge", V("x"), V("z")))`` for a Unit-output relation.
    """

    expr: Term


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def set_function_value(
    egraph: "EGraph", decl: FunctionDecl, key: Tuple[Value, ...], new: Value
) -> bool:
    """Store ``decl.name(key) = new``, applying the merge expression on conflict.

    Shared by ``set`` actions and rebuilding, which resolves colliding
    canonical keys with the same merge.  ``key`` and ``new`` must already be
    canonical.  Returns True iff the database changed (new row, or the
    stored output changed).  Changed rows are stamped with the engine's
    current timestamp so semi-naïve evaluation (Section 4.3) sees them as
    new.
    """
    table = egraph.tables[decl.name]
    old = table.get(key)
    if old is None:
        table.put(key, new, egraph.timestamp)
        egraph.record_node(decl.name, key, new)
        egraph.note_update()
        return True
    if old == new or egraph.canonicalize(old) == egraph.canonicalize(new):
        return False
    merged = egraph.canonicalize(egraph.merge_fn(decl)(old, new))
    if merged == old:
        return False
    table.put(key, merged, egraph.timestamp)
    egraph.note_update()
    return True


def run_actions(
    egraph: "EGraph", actions: Sequence[Action], subst: Substitution
) -> Substitution:
    """Run ``actions`` under ``subst`` against ``egraph``; return final bindings.

    Compiles the actions through :mod:`repro.engine.program` with one
    register per binding of ``subst`` and runs them once; ``Let`` adds
    bindings.  Terms are evaluated get-or-default (Section 3.2): terms
    absent from the database are inserted with the owning function's
    default output.
    """
    from .program import compile_actions  # program imports the records above

    program = compile_actions(
        egraph, actions, {name: slot for slot, name in enumerate(subst)}, len(subst)
    )
    regs = program.execute(tuple(subst.values()))
    return {name: regs[reg] for name, reg in program.env.items()}  # type: ignore[misc]
