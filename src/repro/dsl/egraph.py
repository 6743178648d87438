"""The typed :class:`EGraph` facade — the DSL's entry point.

Wraps an engine :class:`repro.engine.EGraph` (always reachable as
``.engine``, the lowering target and interop escape hatch) and exposes the
handle-based surface:

* declarations return handles — :meth:`sort` -> :class:`~repro.dsl.Sort`,
  :meth:`function` / :meth:`relation` / :meth:`constructor` ->
  :class:`~repro.dsl.Function`;
* :meth:`ruleset` returns first-class :class:`~repro.dsl.Ruleset` objects,
  :meth:`register` takes rules and rewrites built by the DSL;
* :meth:`run` takes an iteration limit *or* schedule combinators and
  returns the engine's :class:`~repro.core.schema.RunReport`;
* :meth:`extract` returns a rich :class:`Extracted` value;
* :meth:`push` / :meth:`pop` / :meth:`scoped` are the engine's own —
  handles declared inside a popped scope go stale and say so when used.

The engine is the only copy of the state: the handle maps are a view of
its declarations, re-derived after every operation that replaces them
(:meth:`pop`, :meth:`load`, :meth:`from_snapshot`, :meth:`fork`).

Every mistake the DSL can catch locally raises a
:class:`~repro.dsl.errors.DslError` subclass whose message includes the
offending declaration site.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..core.builtins import PrimitiveRegistry
from ..core.schema import RunReport
from ..core.terms import Term, TermApp, TermLit, TermVar
from ..core.values import Value
from ..engine import EGraph as EngineEGraph
from ..engine.errors import EGraphError
from ..engine.rule import DEFAULT_RULESET
from ..engine.rule import Rule as EngineRule
from ..engine.schedule import Repeat, Run, Saturate, Schedule, Seq
from .errors import (
    ArityError,
    DslError,
    DuplicateDeclarationError,
    SortMismatchError,
    UnboundVariableError,
    UnknownSortError,
)
from .expr import (
    BUILTIN_SORT_HANDLES,
    SUPPORTED_OPERATORS,
    Expr,
    Function,
    Sort,
    SortLike,
    builtin_sort_handle,
    caller_site,
    lift,
)
from .rules import (
    DslRule,
    FactLike,
    RegistrableRule,
    Rewrite,
    Ruleset,
    lower_fact,
)

MergeLike = Union[None, str, object]


# eq=False: a generated __eq__ would compare the Expr field, whose own
# ``==`` builds an equality fact instead of returning a bool.
@dataclass(frozen=True, eq=False)
class Extracted:
    """Result of :meth:`EGraph.extract`: the cheapest equivalent term.

    ``term`` is the core term (s-expression ``str()``), ``cost`` its total
    extraction cost, and ``expr`` a typed DSL view rebuilt through the
    declaring handles — ``None`` when the term mixes in symbols the DSL
    cannot type (e.g. primitives applied to bare variables).
    """

    cost: int
    term: Term
    expr: Optional[Expr] = None

    def __str__(self) -> str:
        return str(self.term)


@dataclass(frozen=True)
class ExplainStep:
    """One step of an :class:`Explanation`: ``lhs`` ~ ``rhs`` because of a
    rule firing (``kind == "rule"``), a congruence repair
    (``kind == "congruence"``), or an explicit union (``kind == "union"``).

    ``lhs``/``rhs`` are eq-sorted engine values (e-node ids) and ``name``
    is the rule or function name (empty for explicit unions).
    """

    lhs: Value
    rhs: Value
    kind: str
    name: str = ""

    def __str__(self) -> str:
        return f"{self.kind} {self.name}".rstrip()


@dataclass(frozen=True, eq=False)
class Explanation:
    """Result of :meth:`EGraph.explain`: a minimal justified rewrite chain.

    ``steps`` is connected — each step's ``rhs`` is the next step's ``lhs``
    — and empty when both expressions denote the very same e-node.
    """

    sort: Sort
    lhs: Value
    rhs: Value
    steps: "tuple[ExplainStep, ...]"

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ExplainStep]:
        return iter(self.steps)

    def __str__(self) -> str:
        return " ; ".join(str(step) for step in self.steps) or "reflexivity"


class EGraph:
    """A typed egglog engine: the blessed embedded surface.

    ``registry`` and ``proofs`` pass through to the underlying
    :class:`repro.engine.EGraph`, which remains available as ``.engine``
    for the string-level API the DSL lowers onto.
    """

    def __init__(
        self,
        *,
        registry: Optional[PrimitiveRegistry] = None,
        proofs: bool = True,
    ) -> None:
        self.engine = EngineEGraph(registry=registry, proofs=proofs)
        self._sorts: Dict[str, Sort] = dict(BUILTIN_SORT_HANDLES)
        self._functions: Dict[str, Function] = {}
        self._rulesets: Dict[str, Ruleset] = {}

    # -- declarations ---------------------------------------------------------

    def sort(self, name: str) -> Sort:
        """Declare an uninterpreted (eq) sort; returns its handle."""
        if name in self.engine.sorts:
            prior = self._sorts.get(name)
            where = (
                f" (at {prior.decl_site})"
                if prior is not None and prior.owner is self
                else ""
            )
            raise DuplicateDeclarationError(f"sort {name!r} already declared{where}")
        site = caller_site()
        self.engine.declare_sort(name)
        handle = Sort(name, is_eq_sort=True, owner=self, decl_site=site)
        self._sorts[name] = handle
        return handle

    def _resolve_sort(self, sort: SortLike, context: str) -> Sort:
        if isinstance(sort, Sort):
            if sort.owner is not None and sort.owner is not self:
                raise UnknownSortError(
                    f"{context}: sort {sort.name!r} belongs to a different EGraph "
                    f"(declared at {sort.decl_site})"
                )
            if sort.name not in self.engine.sorts:
                raise UnknownSortError(
                    f"{context}: sort {sort.name!r} is no longer declared on this "
                    f"EGraph (declared at {sort.decl_site}; was it popped?)"
                )
            return sort
        if isinstance(sort, str):
            handle = self._sorts.get(sort)
            if handle is None and sort in self.engine.sorts:
                self._derive_handles()  # declared through the engine
                handle = self._sorts.get(sort)
            if handle is None or sort not in self.engine.sorts:
                known = ", ".join(sorted(self.engine.sorts))
                raise UnknownSortError(
                    f"{context}: unknown sort {sort!r} (known sorts: {known})"
                )
            return handle
        raise UnknownSortError(
            f"{context}: expected a Sort handle or sort name, got {sort!r}"
        )

    def function(
        self,
        name: str,
        arg_sorts: Sequence[SortLike],
        out_sort: SortLike,
        *,
        merge: MergeLike = None,
        default: object = None,
        cost: int = 1,
        unextractable: bool = False,
        constructor: bool = False,
        op: Optional[str] = None,
    ) -> Function:
        """Declare a function; returns a callable, sort-checking handle.

        ``op`` optionally binds an operator symbol (``"*"``, ``"+"``,
        ``"neg"``, ...) on the *first argument's* sort, so expressions of
        that sort can use the Python operator: ``x * y`` builds
        ``Mul(x, y)`` after ``eg.function("Mul", (Math, Math), Math,
        op="*")``.
        """
        site = caller_site()
        context = f"declaration of {name!r}"
        args = tuple(self._resolve_sort(s, context) for s in arg_sorts)
        out = self._resolve_sort(out_sort, context)
        if op is not None:
            # Validate the operator binding BEFORE declaring: a failure here
            # must not leave the function half-declared on the engine.
            if not args:
                raise DslError(
                    f"{context}: op={op!r} needs at least one argument sort to "
                    f"bind the operator on"
                )
            target = args[0]
            if not target.is_eq_sort or target.owner is not self:
                # Primitive handles are shared process-wide and their
                # operators always dispatch to the built-in primitives —
                # a binding there would be both global and unreachable.
                raise DslError(
                    f"{context}: op={op!r} must bind on an eq-sort declared on "
                    f"this EGraph; {target.name!r} is "
                    f"{'a built-in primitive sort' if not target.is_eq_sort else 'foreign'}"
                )
            if op not in SUPPORTED_OPERATORS:
                raise DslError(
                    f"{context}: cannot bind operator {op!r}; supported "
                    f"operators: {', '.join(sorted(SUPPORTED_OPERATORS))}"
                )
            existing = target.operator(op)
            if existing is not None:
                raise DuplicateDeclarationError(
                    f"{context}: sort {target.name!r} already binds operator "
                    f"{op!r} to {existing.name!r} (declared at "
                    f"{existing.decl_site})"
                )
        try:
            decl = self.engine.function(
                name,
                tuple(s.name for s in args),
                out.name,
                merge=merge,
                default=default,
                cost=cost,
                unextractable=unextractable,
                is_datatype_constructor=constructor,
                decl_site=site,
            )
        except EGraphError as exc:
            if "already declared" in str(exc) or "collides" in str(exc):
                raise DuplicateDeclarationError(str(exc)) from None
            raise DslError(str(exc)) from None
        handle = Function(self, decl, args, out, site)
        self._functions[name] = handle
        if op is not None:
            args[0].bind_operator(op, handle)
        return handle

    def relation(self, name: str, *arg_sorts: SortLike) -> Function:
        """Declare a Datalog-style relation (Unit output); returns its handle."""
        return self.function(name, arg_sorts, builtin_sort_handle("Unit"))

    def constructor(
        self,
        name: str,
        arg_sorts: Sequence[SortLike],
        out_sort: SortLike,
        *,
        cost: int = 1,
        op: Optional[str] = None,
    ) -> Function:
        """Declare a datatype constructor (eq-sorted output, union merge)."""
        out = self._resolve_sort(out_sort, f"declaration of {name!r}")
        if not out.is_eq_sort:
            raise SortMismatchError(
                f"constructor {name!r} needs an eq-sort output, got "
                f"{out.name!r}"
            )
        return self.function(
            name, arg_sorts, out, cost=cost, constructor=True, op=op
        )

    def function_handle(self, name: str) -> Function:
        """The handle of the function the engine declares under ``name``."""
        handle = self._live_function(name)
        if handle is None:
            raise DslError(f"no live function {name!r} declared on this EGraph")
        return handle

    def _live_function(self, name: str) -> Optional[Function]:
        """The handle of the engine's live ``name``, derived on a miss (the
        function was declared, or redeclared, through the engine)."""
        decl = self.engine.decls.get(name)
        handle = self._functions.get(name)
        if decl is not None and (handle is None or handle.decl is not decl):
            self._derive_handles()
            handle = self._functions.get(name)
        return handle if decl is not None else None

    # -- rules and rulesets ---------------------------------------------------

    def ruleset(self, name: str = DEFAULT_RULESET) -> Ruleset:
        """The first-class ruleset handle for ``name`` (created on demand)."""
        rs = self._rulesets.get(name)
        if rs is None:
            rs = Ruleset(self, name, caller_site())
            self._rulesets[name] = rs
            self.engine.rulesets.setdefault(name, [])
        return rs

    def register(
        self,
        *items: RegistrableRule,
        ruleset: Union[Ruleset, str, None] = None,
    ) -> List[str]:
        """Register rules/rewrites (default ruleset unless given); names back."""
        if isinstance(ruleset, Ruleset):
            return ruleset.register(*items)  # type: ignore[return-value]
        name = ruleset if ruleset is not None else DEFAULT_RULESET
        # The Ruleset handle also takes the decorator form.
        return self.ruleset(name).register(*items)  # type: ignore[return-value]

    def _register_items(
        self,
        items: Sequence[RegistrableRule],
        *,
        ruleset: str,
        default_name: Optional[str] = None,
    ) -> List[str]:
        names: List[str] = []
        for index, item in enumerate(items):
            label = default_name if default_name and len(items) == 1 else (
                f"{default_name}#{index}" if default_name else None
            )
            if isinstance(item, (DslRule, Rewrite)):
                engine_rules = item.to_engine(ruleset=ruleset, name=label)
            elif isinstance(item, EngineRule):
                item.ruleset = ruleset
                engine_rules = [item]
            else:
                raise DslError(
                    f"cannot register {item!r}: expected a rule "
                    f"(rule(...).when(...).then(...)), a rewrite (lhs.to(rhs)), "
                    f"or an engine Rule"
                )
            try:
                names.extend(self.engine.add_rule(r) for r in engine_rules)
            except EGraphError as exc:
                raise DslError(str(exc)) from None
        return names

    # -- ground facts ---------------------------------------------------------

    def _require_ground(self, expr: Expr, what: str) -> Term:
        if not isinstance(expr, Expr):
            raise DslError(f"{what} needs a DSL expression, got {expr!r}")
        free = sorted(set(expr.variables()))
        if free:
            raise UnboundVariableError(
                f"{what} needs a ground expression, but {expr!r} has free "
                f"variable(s): {', '.join(free)}"
            )
        return expr.term

    def add(self, expr: Expr) -> Value:
        """Insert a ground expression (and sub-terms); returns its value."""
        return self.engine.add(self._require_ground(expr, "add()"))

    def union(self, lhs: Expr, rhs: object) -> Value:
        """Assert that two ground eq-sorted expressions are equal."""
        if not isinstance(lhs, Expr):
            raise DslError(f"union() needs a DSL expression, got {lhs!r}")
        if not lhs.sort.is_eq_sort:
            raise SortMismatchError(
                f"union() needs eq-sorted expressions, got sort {lhs.sort.name!r}"
            )
        rhs_expr = lift(rhs, lhs.sort, "union right-hand side")
        return self.engine.union(
            self._require_ground(lhs, "union()"),
            self._require_ground(rhs_expr, "union()"),
        )

    def lookup(self, expr: Expr) -> Optional[Value]:
        """Pure lookup of a ground expression; None if absent."""
        return self.engine.lookup(self._require_ground(expr, "lookup()"))

    def are_equal(self, lhs: Expr, rhs: Expr) -> bool:
        """True iff both ground expressions are present and equal."""
        return self.engine.are_equal(
            self._require_ground(lhs, "are_equal()"),
            self._require_ground(rhs, "are_equal()"),
        )

    # -- running --------------------------------------------------------------

    def run(
        self,
        *what: Union[int, Schedule],
        limit: Optional[int] = None,
        ruleset: Union[Ruleset, str, None] = None,
        deadline_s: Optional[float] = None,
        max_nodes: Optional[int] = None,
    ) -> RunReport:
        """Run the engine; returns the engine's :class:`RunReport`.

        Three spellings::

            eg.run()                      # one iteration, default ruleset
            eg.run(10, ruleset=opt)       # up to 10 iterations of one ruleset
            eg.run(seq(opt.saturate(),    # schedule combinators
                       fold.run(2)))

        ``deadline_s`` / ``max_nodes`` budget the run (any spelling): the
        scheduler checks them between iterations and a budgeted run returns
        a clean partial report with ``stopped_reason`` set instead of
        running on.
        """
        schedules = tuple(
            w for w in what if isinstance(w, (Run, Seq, Repeat, Saturate))
        )
        if what and len(schedules) == len(what):
            if limit is not None or ruleset is not None:
                raise DslError(
                    "run(): pass either schedules or limit/ruleset, not both"
                )
            return self.engine.run_schedule(
                *schedules, deadline_s=deadline_s, max_nodes=max_nodes
            )
        if len(what) > 1:
            raise DslError(
                f"run() takes one iteration limit or schedules, got {what!r}"
            )
        if what and not isinstance(what[0], int):
            raise DslError(
                f"run() expects an iteration limit or schedule combinators, "
                f"got {what[0]!r}"
            )
        if what and limit is not None:
            raise DslError(
                "run(): pass the iteration limit positionally or as limit=, "
                "not both"
            )
        iterations = limit if limit is not None else (what[0] if what else 1)
        assert isinstance(iterations, int)
        name = ruleset.name if isinstance(ruleset, Ruleset) else (
            ruleset if ruleset is not None else DEFAULT_RULESET
        )
        return self.engine.run(
            iterations, ruleset=name, deadline_s=deadline_s, max_nodes=max_nodes
        )

    # -- queries --------------------------------------------------------------

    def check(self, *facts: FactLike) -> int:
        """Require at least one match for the facts; returns the match count.

        Raises :class:`repro.engine.errors.CheckError` on zero matches.
        """
        if not facts:
            raise DslError("check() needs at least one fact")
        return self.engine.check(*(lower_fact(f) for f in facts))

    def query(self, *facts: FactLike) -> List[Dict[str, Value]]:
        """All substitutions matching the facts (variable name -> value)."""
        return self.engine.query(*(lower_fact(f) for f in facts))

    # -- extraction -----------------------------------------------------------

    def extract(self, expr: Expr) -> Extracted:
        """The cheapest term equivalent to ``expr`` with its cost."""
        term = self._require_ground(expr, "extract()")
        cost, best = self.engine.extract_with_cost(term)
        try:
            typed: Optional[Expr] = self.expr_of(best)
        except DslError:
            typed = None
        return Extracted(cost, best, typed)

    # -- explanation ----------------------------------------------------------

    def explain(self, lhs: Expr, rhs: object) -> Explanation:
        """Why are two ground eq-sorted expressions equal?

        Returns a typed :class:`Explanation` whose steps name the rule,
        congruence function, or explicit union that merged their endpoints.
        Raises :class:`DslError` when proofs are disabled, an expression is
        absent from the e-graph, or the two are not equal.
        """
        if not isinstance(lhs, Expr):
            raise DslError(f"explain() needs a DSL expression, got {lhs!r}")
        if not lhs.sort.is_eq_sort:
            raise SortMismatchError(
                f"explain() needs eq-sorted expressions, got sort {lhs.sort.name!r}"
            )
        rhs_expr = lift(rhs, lhs.sort, "explain right-hand side")
        try:
            raw = self.engine.explain(
                self._require_ground(lhs, "explain()"),
                self._require_ground(rhs_expr, "explain()"),
            )
        except EGraphError as error:
            raise DslError(str(error)) from error
        sort_name = raw.sort
        steps = tuple(
            ExplainStep(
                Value(sort_name, step.lhs),
                Value(sort_name, step.rhs),
                step.justification.kind,
                step.justification.name,
            )
            for step in raw.steps
        )
        return Explanation(
            self._resolve_sort(sort_name, "explain()"),
            Value(sort_name, raw.lhs),
            Value(sort_name, raw.rhs),
            steps,
        )

    def expr_of(self, term: Term, expected: Optional[Sort] = None) -> Expr:
        """Re-type a core term through this egraph's handles.

        The inverse of lowering: applications are checked against their
        declarations (arity, literal sorts), variables adopt the expected
        sort from their position.  Raises :class:`DslError` when the term
        cannot be typed (unknown symbol, bare variable with no expected
        sort, sort clash).
        """
        if isinstance(term, TermLit):
            have = builtin_sort_handle(term.value.sort)
            if expected is not None and expected.name != have.name:
                raise SortMismatchError(
                    f"literal {term.value!r} has sort {have.name!r} where "
                    f"{expected.name!r} was expected"
                )
            return Expr(term, have)
        if isinstance(term, TermVar):
            if expected is None:
                raise DslError(
                    f"cannot infer the sort of bare variable {term.name!r}"
                )
            return Expr(term, expected)
        if isinstance(term, TermApp):
            handle = self._live_function(term.func)
            if handle is not None:
                if len(term.args) != handle.arity:
                    raise ArityError(
                        f"{term.func} expects {handle.arity} argument(s) — "
                        f"{handle.signature()} — got {len(term.args)} "
                        f"[declared at {handle.decl_site}]"
                    )
                for arg, sort in zip(term.args, handle.arg_sorts):
                    self.expr_of(arg, expected=sort)
                result = Expr(term, handle.out_sort)
            elif term.func in self.engine.registry:
                arg_sorts = tuple(
                    self.expr_of(a).sort.name for a in term.args
                )
                out_name = self.engine.registry.result_sort(term.func, arg_sorts)
                if out_name is None:
                    raise SortMismatchError(
                        f"primitive {term.func!r} is not defined on sorts "
                        f"{arg_sorts!r}"
                    )
                result = Expr(term, builtin_sort_handle(out_name))
            else:
                raise DslError(
                    f"unknown symbol {term.func!r}: neither a declared function "
                    f"nor a primitive on this EGraph"
                )
            if expected is not None and expected.name != result.sort.name:
                raise SortMismatchError(
                    f"{term.func} produces sort {result.sort.name!r} where "
                    f"{expected.name!r} was expected"
                )
            return result
        raise DslError(f"cannot type {term!r}")

    # -- snapshots ------------------------------------------------------------

    def push(self) -> int:
        """Snapshot the engine state; returns the new stack depth."""
        return self.engine.push()

    def pop(self, count: int = 1) -> int:
        """Restore the latest snapshot(s); returns the remaining depth.

        The handle maps are re-derived from the restored engine (see
        :meth:`_derive_handles`).  Handles declared since the matching
        :meth:`push` go *stale*: using them afterwards raises a precise
        :class:`~repro.dsl.errors.StaleHandleError` rather than corrupting
        the restored state.
        """
        try:
            depth = self.engine.pop(count)
        except EGraphError as exc:
            raise DslError(str(exc)) from None
        self._derive_handles()
        return depth

    @contextmanager
    def scoped(self) -> Iterator["EGraph"]:
        """``with eg.scoped(): ...`` — push on entry, pop on exit."""
        self.push()
        try:
            yield self
        finally:
            self.pop()

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> dict:
        """Snapshot the engine plus the DSL's handle metadata to a file.

        Sort declaration sites and operator bindings travel in the
        document's ``surfaces.dsl`` section so a later
        :meth:`from_snapshot` / :meth:`load` re-hydrates handles with their
        original provenance and ``x * y`` keeps dispatching.  Functions
        whose merge/default is an arbitrary Python callable are not
        serializable and raise :class:`DslError` naming the declaration.
        """
        from ..serialize import SnapshotError

        try:
            return self.engine.save(path, surfaces={"dsl": self._dsl_section()})
        except SnapshotError as error:
            raise DslError(str(error)) from error

    def _dsl_section(self) -> dict:
        """The ``surfaces.dsl`` section: handle provenance that the engine
        itself doesn't carry (declaration sites, operator bindings)."""
        return {
            "sorts": [
                [sort.name, sort.decl_site]
                for sort in self._sorts.values()
                if sort.owner is self
            ],
            "operators": [
                [sort.name, op, fn.name]
                for sort in self._sorts.values()
                if sort.owner is self
                for op, fn in sort._ops.items()
            ],
        }

    def fork(self) -> "EGraph":
        """An independent copy of this EGraph — engine state and handles.

        The engine forks through its capture path
        (:meth:`repro.engine.EGraph.fork`): tables are shared copy-on-write,
        so a fork costs O(tables + e-classes), and the primitive registry is
        shared, which keeps the process-level compiled-plan cache hot across
        forks.  The fork gets *fresh* handles carrying this EGraph's
        declaration sites and operator bindings, so declaring sorts, binding
        operators, or running rules on one never affects the other.
        Functions with a Python-callable merge or default fork too; only
        :meth:`save` refuses them.

        Handles from the parent do not work on the fork (they belong to a
        different EGraph and say so) — look up the fork's own via
        :meth:`function_handle` / :meth:`ruleset`.
        """
        forked = type(self)(registry=self.engine.registry)
        forked.engine = self.engine.fork()
        forked._derive_handles(self._dsl_section())
        return forked

    @classmethod
    def from_snapshot(
        cls,
        path: str,
        *,
        registry: Optional[PrimitiveRegistry] = None,
    ) -> "EGraph":
        """Construct a typed EGraph from a snapshot file.

        Handles (sorts, functions, rulesets, operator bindings) are
        re-hydrated from the engine state plus the snapshot's
        ``surfaces.dsl`` section; snapshots written by other surfaces load
        fine, with declaration sites defaulting to ``"<snapshot>"``.
        """
        self = cls(registry=registry)
        self.load(path)
        return self

    def load(self, path: str) -> None:
        """Replace this EGraph's state — engine and handles — in place.

        Handles whose declarations the load replaced go stale and say so
        when used, exactly as after :meth:`pop`.
        """
        from ..serialize import SnapshotError

        try:
            document = self.engine.load(path)
        except SnapshotError as error:
            raise DslError(str(error)) from error
        surfaces = document.get("surfaces")
        dsl = surfaces.get("dsl") if isinstance(surfaces, dict) else None
        self._derive_handles(dsl if isinstance(dsl, dict) else None)

    def _derive_handles(self, dsl: Optional[dict] = None) -> None:
        """Bring the handle maps in line with the engine, the one copy of
        the state.

        A handle stays while the engine holds its sort, its exact
        :class:`~repro.core.schema.FunctionDecl` or its ruleset; any other
        handle is dropped, a function's together with its operator
        bindings.  Every sort, function and ruleset that lacks a handle
        gets one, with its declaration site and operators taken from
        ``dsl`` (a ``surfaces.dsl`` section) when it names them.
        """
        dsl = dsl or {}
        engine = self.engine
        sites = {
            entry[0]: entry[1]
            for entry in dsl.get("sorts", [])
            if isinstance(entry, list) and len(entry) == 2
        }
        self._sorts = {
            name: sort for name, sort in self._sorts.items() if name in engine.sorts
        }
        for name, engine_sort in engine.sorts.items():
            if name not in self._sorts:
                self._sorts[name] = Sort(
                    name,
                    is_eq_sort=engine_sort.is_eq_sort,
                    owner=self,
                    decl_site=str(sites.get(name, "<snapshot>")),
                )
        self._functions = {
            name: fn
            for name, fn in self._functions.items()
            if engine.decls.get(name) is fn.decl
        }
        for sort in self._sorts.values():
            if sort.owner is self:
                sort._ops = {
                    op: fn
                    for op, fn in sort._ops.items()
                    if self._functions.get(fn.name) is fn
                }
        for name, decl in engine.decls.items():
            if name not in self._functions:
                self._functions[name] = Function(
                    self,
                    decl,
                    tuple(self._sorts[s] for s in decl.arg_sorts),
                    self._sorts[decl.out_sort],
                    decl.decl_site or "<snapshot>",
                )
        for entry in dsl.get("operators", []):
            if not isinstance(entry, list) or len(entry) != 3:
                continue
            sort_name, op, fn_name = entry
            target = self._sorts.get(sort_name)
            fn = self._functions.get(fn_name)
            if target is None or target.owner is not self or fn is None:
                continue
            if op in SUPPORTED_OPERATORS and target.operator(op) is None:
                target.bind_operator(op, fn)
        self._rulesets = {
            name: rs for name, rs in self._rulesets.items() if name in engine.rulesets
        }
        for name in engine.rulesets:
            if name not in self._rulesets:
                self._rulesets[name] = Ruleset(self, name, "<snapshot>")

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Engine-size snapshot (rows per table, classes, unions, rules)."""
        return self.engine.stats()

    def __repr__(self) -> str:
        n_sorts = sum(1 for s in self._sorts.values() if s.owner is self)
        return (
            f"<dsl.EGraph: {n_sorts} sort(s), {len(self.engine.decls)} "
            f"function(s), {len(self.engine.rules)} rule(s)>"
        )
