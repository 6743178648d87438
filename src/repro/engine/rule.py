"""Rules: queries paired with actions, plus rewrite/birewrite sugar.

A rule (Section 3.1 of the paper) is ``facts => actions``: when the
conjunction of facts matches, the actions run under the match's
substitution.  Facts are written as *terms* (``repro.core.terms``) and
flattened here into the conjunctive queries the search engine executes
(``repro.core.query``) — each nested application gets a fresh variable for
its output column, which is exactly the term-flattening the paper describes
when lowering patterns to relational queries (Section 5.1, relational
e-matching).

``rewrite(lhs, rhs)`` is the equality-saturation sugar of Section 3.4: it
matches ``lhs``, binds its e-class to a root variable, and unions that class
with ``rhs``.  ``birewrite`` adds the symmetric rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union as TyUnion

from ..core.query import Arg, PrimAtom, Query, QVar, TableAtom
from ..core.terms import Term, TermApp, TermLit, TermLike, TermVar, as_term
from .actions import Action, Union
from .errors import EGraphError

DEFAULT_RULESET = ""

# The reserved variable a rewrite binds the matched e-class to.  The "$"
# prefix keeps generated names out of the user's namespace.
REWRITE_ROOT = "$root"


@dataclass(frozen=True)
class EqFact:
    """A body fact ``lhs = rhs`` equating two patterns (Section 3.1)."""

    lhs: Term
    rhs: Term


Fact = TyUnion[Term, EqFact]


def eq(lhs: TermLike, rhs: TermLike) -> EqFact:
    """Build an equality fact; plain Python scalars are lifted to literals."""
    return EqFact(as_term(lhs), as_term(rhs))


@dataclass
class Rule:
    """An uncompiled rule: term-level facts and actions.

    ``EGraph.add_rule`` compiles this into a :class:`CompiledRule` by
    flattening the facts into a conjunctive query (it needs the engine's
    declarations to tell table functions from primitives).
    """

    facts: Sequence[Fact]
    actions: Sequence[Action]
    name: Optional[str] = None
    ruleset: str = DEFAULT_RULESET


@dataclass
class CompiledRule:
    """A rule lowered to a flat query, ready for the scheduler.

    ``last_run`` is the semi-naïve watermark (Section 4.3): the next search
    only needs matches involving at least one row with
    ``timestamp >= last_run``.
    """

    name: str
    query: Query
    actions: Tuple[Action, ...]
    ruleset: str = DEFAULT_RULESET
    last_run: int = 0
    #: The compiled executor (``repro.engine.program.RuleExec``).  Owned
    #: by the engine: pinned to its compile epoch and rebuilt on mismatch;
    #: a replaced rule starts without one.
    cached_exec: Any = field(default=None, repr=False, compare=False)


class _Gensym:
    """Fresh query-variable supply for flattening ("$0", "$1", ...)."""

    def __init__(self) -> None:
        self._counter = 0

    def __call__(self) -> QVar:
        var = QVar(f"${self._counter}")
        self._counter += 1
        return var


def _flatten_term(
    term: Term,
    query: Query,
    is_table: Callable[[str], bool],
    gensym: _Gensym,
    out: Optional[Arg] = None,
) -> Arg:
    """Flatten ``term`` into atoms appended to ``query``; return its value arg.

    If ``out`` is given, the term's value is constrained to equal it: an
    application uses it as the output column, while a variable or literal
    emits an equality guard.
    """
    if isinstance(term, TermVar):
        arg: Arg = QVar(term.name)
        if out is not None and out != arg:
            query.prims.append(PrimAtom("value-eq", (arg, out), None))
        return out if out is not None else arg
    if isinstance(term, TermLit):
        if out is not None and out != term.value:
            query.prims.append(PrimAtom("value-eq", (term.value, out), None))
        return out if out is not None else term.value
    if isinstance(term, TermApp):
        args = tuple(_flatten_term(a, query, is_table, gensym) for a in term.args)
        result = out if out is not None else gensym()
        if is_table(term.func):
            query.atoms.append(TableAtom(term.func, args, result))
        else:
            query.prims.append(PrimAtom(term.func, args, result))
        return result
    raise EGraphError(f"cannot flatten {term!r} into a query")


def _flatten_fact(
    fact: Fact, query: Query, is_table: Callable[[str], bool], gensym: _Gensym
) -> None:
    if isinstance(fact, EqFact):
        lhs, rhs = fact.lhs, fact.rhs
        # Flatten the simpler side into an argument first, then constrain the
        # other side's value to it.
        if isinstance(lhs, (TermVar, TermLit)):
            anchor = _flatten_term(lhs, query, is_table, gensym)
            _flatten_term(rhs, query, is_table, gensym, out=anchor)
        elif isinstance(rhs, (TermVar, TermLit)):
            anchor = _flatten_term(rhs, query, is_table, gensym)
            _flatten_term(lhs, query, is_table, gensym, out=anchor)
        else:
            anchor = _flatten_term(lhs, query, is_table, gensym)
            _flatten_term(rhs, query, is_table, gensym, out=anchor)
        return
    if isinstance(fact, TermApp):
        if is_table(fact.func):
            _flatten_term(fact, query, is_table, gensym)
        else:
            # A top-level primitive fact is a guard: it must evaluate to true.
            args = tuple(_flatten_term(a, query, is_table, gensym) for a in fact.args)
            query.prims.append(PrimAtom(fact.func, args, None))
        return
    raise EGraphError(f"a fact must be an application or an equality, got {fact!r}")


def compile_facts(
    facts: Sequence[Fact], is_table: Callable[[str], bool]
) -> Query:
    """Flatten a sequence of facts into one conjunctive query."""
    query = Query()
    gensym = _Gensym()
    for fact in facts:
        _flatten_fact(fact, query, is_table, gensym)
    return query


def compile_rule(
    rule: Rule, is_table: Callable[[str], bool], default_name: str
) -> CompiledRule:
    """Lower a :class:`Rule` into a :class:`CompiledRule`."""
    query = compile_facts(list(rule.facts), is_table)
    return CompiledRule(
        name=rule.name or default_name,
        query=query,
        actions=tuple(rule.actions),
        ruleset=rule.ruleset,
    )


# ---------------------------------------------------------------------------
# Rewrite sugar (Section 3.4)
# ---------------------------------------------------------------------------


def rewrite(
    lhs: TermLike,
    rhs: TermLike,
    *,
    conditions: Sequence[Fact] = (),
    name: Optional[str] = None,
    ruleset: str = DEFAULT_RULESET,
) -> Rule:
    """``lhs => rhs``: wherever ``lhs`` matches, union its e-class with ``rhs``.

    ``conditions`` are extra body facts (guards) that must hold for the
    rewrite to fire.  The matched class is bound to a reserved root variable
    so the action can refer to it.
    """
    lhs_term, rhs_term = as_term(lhs), as_term(rhs)
    if not isinstance(lhs_term, TermApp):
        raise EGraphError(f"rewrite left-hand side must be an application, got {lhs_term!r}")
    root = TermVar(REWRITE_ROOT)
    facts: List[Fact] = [EqFact(root, lhs_term)]
    facts.extend(conditions)
    return Rule(
        facts=facts,
        actions=[Union(root, rhs_term)],
        name=name or f"rewrite {lhs_term} => {rhs_term}",
        ruleset=ruleset,
    )


def birewrite(
    lhs: TermLike,
    rhs: TermLike,
    *,
    conditions: Sequence[Fact] = (),
    name: Optional[str] = None,
    ruleset: str = DEFAULT_RULESET,
) -> Tuple[Rule, Rule]:
    """Bidirectional rewrite: both ``lhs => rhs`` and ``rhs => lhs``."""
    base = name or f"birewrite {as_term(lhs)} <=> {as_term(rhs)}"
    forward = rewrite(lhs, rhs, conditions=conditions, name=f"{base} (fwd)", ruleset=ruleset)
    backward = rewrite(rhs, lhs, conditions=conditions, name=f"{base} (bwd)", ruleset=ruleset)
    return forward, backward
