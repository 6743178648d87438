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

The merge-resolution logic (:func:`resolve_merge` / :func:`set_function_value`)
lives here and is shared with rebuilding (``repro.engine.rebuild``), which
must apply the same merge expressions when canonicalized keys collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from ..core.schema import FunctionDecl
from ..core.terms import Term, TermApp
from ..core.values import Value
from .errors import EGraphError, EGraphPanic

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
# Merge resolution (shared by Set actions and rebuilding)
# ---------------------------------------------------------------------------


def resolve_merge(egraph: "EGraph", decl: FunctionDecl, old: Value, new: Value) -> Value:
    """Combine conflicting outputs ``old`` and ``new`` per ``decl.merge``.

    ``decl.merge`` has been normalized by the engine at declaration time to
    ``"union"``, ``"error"``, or a callable ``(old, new) -> Value``.
    Returns the value that should be stored; raises :class:`MergeError` for
    ``"error"`` merges and for merge functions that fail.

    The dispatch lives in ``EGraph.merge_fn``, which compiles it once per
    function into a cached closure; this wrapper is the per-call spelling.
    """
    return egraph.merge_fn(decl)(old, new)


def set_function_value(
    egraph: "EGraph", decl: FunctionDecl, key: Tuple[Value, ...], new: Value
) -> bool:
    """Store ``decl.name(key) = new``, applying the merge expression on conflict.

    ``key`` and ``new`` must already be canonical.  Returns True iff the
    database changed (new row, or the stored output changed).  Changed rows
    are stamped with the engine's current timestamp so semi-naïve evaluation
    (Section 4.3) sees them as new.
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
    merged = resolve_merge(egraph, decl, old, new)
    merged = egraph.canonicalize(merged)
    if merged == old:
        return False
    table.put(key, merged, egraph.timestamp)
    egraph.note_update()
    return True


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _eval_call_key(
    egraph: "EGraph", call: TermApp, subst: Substitution
) -> Tuple[FunctionDecl, Tuple[Value, ...]]:
    """Evaluate the argument terms of a Set/Delete target into a canonical key."""
    decl = egraph.decls.get(call.func)
    if decl is None:
        raise EGraphError(f"action targets unknown function {call.func!r}")
    key = tuple(egraph.canonicalize(egraph.eval_term(a, subst)) for a in call.args)
    if len(key) != decl.arity:
        raise EGraphError(
            f"{call.func} expects {decl.arity} arguments, got {len(key)}"
        )
    return decl, key


def run_actions(
    egraph: "EGraph", actions: Sequence[Action], subst: Substitution
) -> Substitution:
    """Run ``actions`` under ``subst`` against ``egraph``; return final bindings.

    The substitution is copied; ``Let`` extends the copy.  Any expression
    evaluation uses get-or-default semantics (Section 3.2): terms absent from
    the database are inserted with the owning function's default output.
    """
    subst = dict(subst)
    for action in actions:
        if isinstance(action, Let):
            subst[action.name] = egraph.eval_term(action.expr, subst)
        elif isinstance(action, Union):
            lhs = egraph.eval_term(action.lhs, subst)
            rhs = egraph.eval_term(action.rhs, subst)
            egraph.union_values(lhs, rhs)
        elif isinstance(action, Set):
            decl, key = _eval_call_key(egraph, action.call, subst)
            value = egraph.canonicalize(egraph.eval_term(action.value, subst))
            set_function_value(egraph, decl, key, value)
        elif isinstance(action, Delete):
            decl, key = _eval_call_key(egraph, action.call, subst)
            egraph.remove_row(decl.name, key)
        elif isinstance(action, Panic):
            raise EGraphPanic(action.message)
        elif isinstance(action, Expr):
            egraph.eval_term(action.expr, subst)
        else:
            raise EGraphError(f"unknown action {action!r}")
    return subst
