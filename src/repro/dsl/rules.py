"""Rules, rewrites, actions, and rulesets for the embedded DSL.

The DSL's rule layer is a thin, *validating* front over the engine's rule
IR (:mod:`repro.engine.rule` / :mod:`repro.engine.actions`):

* facts are :class:`~repro.dsl.expr.Expr` applications (relation atoms,
  primitive guards) or :class:`Eq` equalities built by ``lhs == rhs``;
* actions are built by :func:`union`, :func:`set_`, :func:`delete`,
  :func:`let`, :func:`panic`, or a bare expression (inserted for effect);
* ``rule(...).when(...).then(...)`` assembles a :class:`DslRule`;
  ``lhs.to(rhs)`` assembles a :class:`Rewrite`;
* :class:`Ruleset` groups registered rules under a name and yields
  schedule fragments (``rs.saturate()``, ``rs.run(n)``, ``rs.repeat(n)``)
  that compose with ``seq(...)`` and friends.

Validation happens at *construction* time: sort mismatches, non-application
facts, and right-hand-side variables the body never binds are all reported
before the engine sees the rule.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.terms import Term, TermApp
from ..engine.actions import Action
from ..engine.actions import Delete as DeleteAction
from ..engine.actions import Expr as ExprAction
from ..engine.actions import Let as LetAction
from ..engine.actions import Panic as PanicAction
from ..engine.actions import Set as SetAction
from ..engine.actions import Union as UnionAction
from ..engine.rule import EqFact, Fact
from ..engine.rule import Rule as EngineRule
from ..engine.rule import birewrite as engine_birewrite
from ..engine.rule import rewrite as engine_rewrite
from ..engine.schedule import Repeat, Run, Saturate
from .errors import DslError, SortMismatchError, UnboundVariableError
from .expr import Expr, Function, expr_repr, lift

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph


class Eq:
    """An equality fact ``lhs == rhs`` between same-sorted expressions."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Expr, rhs: Expr) -> None:
        if lhs.sort.name != rhs.sort.name:
            raise SortMismatchError(
                f"cannot equate sort {lhs.sort.name!r} with {rhs.sort.name!r}: "
                f"{lhs!r} == {rhs!r}"
            )
        self.lhs = lhs
        self.rhs = rhs

    def lower(self) -> EqFact:
        return EqFact(self.lhs.term, self.rhs.term)

    def variables(self):
        yield from self.lhs.variables()
        yield from self.rhs.variables()

    def __bool__(self) -> bool:
        raise DslError(
            f"an equality fact ({self!r}) has no truth value; pass it to "
            f"check()/when()/conditions instead of using it in a boolean context"
        )

    def __repr__(self) -> str:
        return f"{self.lhs!r} == {self.rhs!r}"


def eq(lhs: Expr, rhs: object) -> Eq:
    """Explicit spelling of ``lhs == rhs`` (useful in comprehensions)."""
    if not isinstance(lhs, Expr):
        raise DslError(f"eq() needs a DSL expression on the left, got {lhs!r}")
    return Eq(lhs, lift(rhs, lhs.sort, "eq right-hand side"))


FactLike = Union[Expr, Eq]


def lower_fact(fact: FactLike) -> Fact:
    """Lower a DSL fact to the engine's fact representation."""
    if isinstance(fact, Eq):
        return fact.lower()
    if isinstance(fact, Expr):
        if not isinstance(fact.term, TermApp):
            raise DslError(
                f"a fact must be a function application or an equality, "
                f"got {fact!r}"
            )
        return fact.term
    raise DslError(f"expected a DSL fact (expression or equality), got {fact!r}")


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _require_call(expr: Expr, what: str) -> TermApp:
    if not isinstance(expr, Expr) or not isinstance(expr.term, TermApp):
        raise DslError(f"{what} needs a function application, got {expr!r}")
    return expr.term


def union(lhs: Expr, rhs: object) -> UnionAction:
    """Action: merge the e-classes of two same-sorted eq expressions."""
    if not isinstance(lhs, Expr):
        raise DslError(f"union() needs a DSL expression on the left, got {lhs!r}")
    if not lhs.sort.is_eq_sort:
        raise SortMismatchError(
            f"union() needs eq-sorted expressions, got sort {lhs.sort.name!r} "
            f"in {lhs!r} [sort declared at {lhs.sort.decl_site}]"
        )
    rhs_expr = lift(rhs, lhs.sort, "union right-hand side")
    return UnionAction(lhs.term, rhs_expr.term)


def set_(call: Expr, value: object) -> SetAction:
    """Action: write ``f(args...) = value`` (merge resolves conflicts)."""
    app = _require_call(call, "set_()")
    value_expr = lift(value, call.sort, f"set_ value for {app.func}")
    return SetAction(app, value_expr.term)


def delete(call: Expr) -> DeleteAction:
    """Action: remove the row for ``f(args...)`` if present."""
    return DeleteAction(_require_call(call, "delete()"))


def let(name: str, expr: Expr) -> LetAction:
    """Action: bind ``name`` to ``expr``'s value for the following actions.

    Refer to the binding later in the same rule with ``var(name, sort)``.
    """
    if not isinstance(expr, Expr):
        raise DslError(f"let() needs a DSL expression, got {expr!r}")
    return LetAction(name, expr.term)


def panic(message: str) -> PanicAction:
    """Action: abort the run (signals an impossible state)."""
    return PanicAction(message)


ActionLike = Union[Action, Expr]


def lower_action(action: ActionLike) -> Action:
    if isinstance(action, Action):
        return action
    if isinstance(action, Expr):
        return ExprAction(_require_call(action, "an expression action"))
    raise DslError(f"expected a DSL action or expression, got {action!r}")


def _action_reads(action: Action) -> List[Term]:
    """Terms an action evaluates (whose variables must be bound)."""
    if isinstance(action, LetAction):
        return [action.expr]
    if isinstance(action, UnionAction):
        return [action.lhs, action.rhs]
    if isinstance(action, SetAction):
        return list(action.call.args) + [action.value]
    if isinstance(action, DeleteAction):
        return list(action.call.args)
    if isinstance(action, ExprAction):
        return [action.expr]
    return []


def _fact_variables(fact: Fact) -> Set[str]:
    if isinstance(fact, EqFact):
        return set(fact.lhs.variables()) | set(fact.rhs.variables())
    return set(fact.variables())


def check_bound_variables(
    context: str, facts: Sequence[Fact], actions: Sequence[Action]
) -> None:
    """Reject actions that read variables the rule body never binds.

    Every variable matched by the body facts is bound; ``let`` extends the
    bound set as actions execute in order.  Without this check the engine
    only fails at *fire* time — or never, if the body happens not to match.
    """
    bound: Set[str] = set()
    for fact in facts:
        bound |= _fact_variables(fact)
    for action in actions:
        for term in _action_reads(action):
            for name in term.variables():
                if name not in bound:
                    bound_desc = ", ".join(sorted(bound)) if bound else "nothing"
                    raise UnboundVariableError(
                        f"{context}: variable {name!r} is not bound by the rule "
                        f"body (the body binds: {bound_desc})"
                    )
        if isinstance(action, LetAction):
            bound.add(action.name)


# ---------------------------------------------------------------------------
# Rules and rewrites
# ---------------------------------------------------------------------------


class DslRule:
    """A validated rule, ready to be registered on an egraph or ruleset."""

    __slots__ = ("name", "facts", "actions")

    def __init__(
        self,
        name: Optional[str],
        facts: Tuple[Fact, ...],
        actions: Tuple[Action, ...],
    ) -> None:
        self.name = name
        self.facts = facts
        self.actions = actions

    def to_engine(self, *, ruleset: str, name: Optional[str] = None) -> List[EngineRule]:
        return [
            EngineRule(
                facts=list(self.facts),
                actions=list(self.actions),
                name=self.name or name,
                ruleset=ruleset,
            )
        ]

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"<Rule {label}: {len(self.facts)} fact(s) => {len(self.actions)} action(s)>"


class RuleBuilder:
    """Fluent rule assembly: ``rule(name=...).when(*facts).then(*actions)``."""

    __slots__ = ("_name", "_facts")

    def __init__(self, facts: Sequence[FactLike], name: Optional[str]) -> None:
        self._name = name
        self._facts: List[Fact] = [lower_fact(f) for f in facts]

    def when(self, *facts: FactLike) -> "RuleBuilder":
        """Add body facts; may be chained."""
        self._facts.extend(lower_fact(f) for f in facts)
        return self

    def then(self, *actions: ActionLike) -> DslRule:
        """Finish the rule with its actions (validates variable binding)."""
        if not actions:
            raise DslError("a rule needs at least one action")
        lowered = tuple(lower_action(a) for a in actions)
        context = f"rule {self._name!r}" if self._name else "rule"
        check_bound_variables(context, self._facts, lowered)
        return DslRule(self._name, tuple(self._facts), lowered)

    def __repr__(self) -> str:
        label = self._name or "<anonymous>"
        return f"<RuleBuilder {label}: {len(self._facts)} fact(s), awaiting .then()>"


def rule(*facts: FactLike, name: Optional[str] = None) -> RuleBuilder:
    """Start a rule. Facts may be given here or via ``.when(...)``."""
    return RuleBuilder(facts, name)


class Rewrite:
    """``lhs.to(rhs, *conditions)``: union the matched class with ``rhs``.

    Validated at construction: the left-hand side must be an eq-sorted
    application, the right-hand side must have the same sort, and every
    right-hand-side variable must be bound by the left-hand side or a
    condition.
    """

    __slots__ = ("lhs", "rhs", "conditions", "name", "bidirectional")

    def __init__(
        self,
        lhs: Expr,
        rhs: object,
        conditions: Sequence[FactLike] = (),
        *,
        name: Optional[str] = None,
        bidirectional: bool = False,
    ) -> None:
        if not isinstance(lhs, Expr) or not isinstance(lhs.term, TermApp):
            raise DslError(
                f"a rewrite's left-hand side must be a function application, "
                f"got {lhs!r}"
            )
        if not lhs.sort.is_eq_sort:
            raise SortMismatchError(
                f"a rewrite needs an eq-sorted left-hand side, got sort "
                f"{lhs.sort.name!r} in {lhs!r}"
            )
        self.lhs = lhs
        self.rhs = lift(rhs, lhs.sort, "rewrite right-hand side")
        self.conditions: Tuple[Fact, ...] = tuple(lower_fact(c) for c in conditions)
        self.name = name
        self.bidirectional = bidirectional

        bound = set(self.lhs.term.variables())
        for cond in self.conditions:
            bound |= _fact_variables(cond)
        for var_name in self.rhs.term.variables():
            if var_name not in bound:
                raise UnboundVariableError(
                    f"rewrite {self!r}: right-hand side variable {var_name!r} is "
                    f"not bound by the left-hand side or a condition "
                    f"(bound: {', '.join(sorted(bound)) or 'nothing'})"
                )
        if bidirectional:
            # The reverse direction swaps the binding roles.
            rbound = set(self.rhs.term.variables())
            for cond in self.conditions:
                rbound |= _fact_variables(cond)
            if not isinstance(self.rhs.term, TermApp):
                raise DslError(
                    f"a bidirectional rewrite needs applications on both sides, "
                    f"got {self.rhs!r}"
                )
            for var_name in self.lhs.term.variables():
                if var_name not in rbound:
                    raise UnboundVariableError(
                        f"birewrite {self!r}: left-hand side variable {var_name!r} "
                        f"is not bound when rewriting right-to-left"
                    )

    def to_engine(self, *, ruleset: str, name: Optional[str] = None) -> List[EngineRule]:
        label = self.name or name
        if self.bidirectional:
            return list(
                engine_birewrite(
                    self.lhs.term,
                    self.rhs.term,
                    conditions=self.conditions,
                    name=label,
                    ruleset=ruleset,
                )
            )
        return [
            engine_rewrite(
                self.lhs.term,
                self.rhs.term,
                conditions=self.conditions,
                name=label,
                ruleset=ruleset,
            )
        ]

    def __repr__(self) -> str:
        arrow = "<=>" if self.bidirectional else "->"
        return f"{expr_repr(self.lhs.term)} {arrow} {expr_repr(self.rhs.term)}"


RegistrableRule = Union[DslRule, Rewrite, EngineRule]


class Ruleset:
    """A named, first-class group of rules on one egraph.

    Obtained from :meth:`repro.dsl.EGraph.ruleset`.  Register rules either
    directly (``rs.register(rw1, rw2)``) or with the decorator form::

        @rs.register
        def mul_comm():
            x, y = vars_("x y", Math)
            return (x * y).to(y * x)

    The decorated function runs once; the rule(s) it returns are registered
    under the ruleset (an unnamed single rule inherits the function's
    name).  Schedule fragments compose with the engine's combinators:
    ``eg.run(seq(rs.saturate(), other.run(2)))``.
    """

    __slots__ = ("_egraph", "name", "decl_site")

    def __init__(self, egraph: "EGraph", name: str, decl_site: str) -> None:
        self._egraph = egraph
        self.name = name
        self.decl_site = decl_site

    @property
    def rule_names(self) -> List[str]:
        """Names of the rules the engine holds in this ruleset, in order."""
        return list(self._egraph.engine.rulesets.get(self.name, []))

    def register(self, *items):
        """Register rules/rewrites; usable directly or as a decorator."""
        if len(items) == 1 and callable(items[0]) and not isinstance(
            items[0], (DslRule, Rewrite, EngineRule, Function)
        ):
            fn = items[0]
            produced = fn()
            if produced is None:
                raise DslError(
                    f"@{self.name or 'ruleset'}.register: {fn.__name__!r} returned "
                    f"nothing — return a rule, a rewrite, or a list of them"
                )
            rules: Iterable[RegistrableRule] = (
                produced if isinstance(produced, (list, tuple)) else [produced]
            )
            self._egraph._register_items(
                rules, ruleset=self.name, default_name=fn.__name__
            )
            return fn
        return self._egraph._register_items(items, ruleset=self.name)

    def replace(self, item: RegistrableRule, *, name: Optional[str] = None) -> str:
        """Swap a registered rule of this ruleset with a new definition.

        ``name`` defaults to the item's own name; the item must lower to
        exactly one engine rule whose name is already registered here.  The
        engine recompiles the rule and drops every cached query plan and
        action program of the old definition (its semi-naïve watermark
        resets too: an edited body re-searches the full database).
        """
        if isinstance(item, (DslRule, Rewrite)):
            lowered = item.to_engine(ruleset=self.name, name=name)
        elif isinstance(item, EngineRule):
            # Copy rather than mutate: if the engine rejects the replace
            # (e.g. a ruleset move), the caller's rule object must be intact.
            lowered = [dataclasses.replace(item, ruleset=self.name)]
        else:
            raise DslError(
                f"cannot replace with {item!r}: expected a rule, a rewrite, "
                f"or an engine rule"
            )
        if len(lowered) != 1:
            raise DslError(
                "replace() needs exactly one rule; bidirectional rewrites "
                "lower to two — replace each direction separately"
            )
        engine_rule = lowered[0]
        if name is not None:
            engine_rule.name = name
        return self._egraph.engine.replace_rule(engine_rule)

    # -- schedule fragments --------------------------------------------------

    def run(self, limit: int = 1) -> Run:
        """Schedule fragment: up to ``limit`` iterations of this ruleset."""
        return Run(limit, self.name)

    def saturate(self) -> Saturate:
        """Schedule fragment: run this ruleset until nothing changes."""
        return Saturate((Run(1, self.name),))

    def repeat(self, times: int) -> Repeat:
        """Schedule fragment: run this ruleset as a pass, ``times`` times."""
        return Repeat(times, (Run(1, self.name),))

    def __len__(self) -> int:
        return len(self.rule_names)

    def __repr__(self) -> str:
        label = self.name or "<default>"
        return f"<Ruleset {label}: {len(self.rule_names)} rule(s)>"
