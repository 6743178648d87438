"""The user-facing ``EGraph``: the unified Datalog + equality-saturation engine.

This facade ties the whole reproduction together (Figure 1 of the paper:
egglog is both a Datalog engine whose relations are functions with merge
expressions and an e-graph engine whose rewrites are rules):

* **Declarations** — :meth:`declare_sort`, :meth:`function`,
  :meth:`relation`, :meth:`constructor` (Sections 3.2–3.3).
* **Ground facts** — :meth:`add` / :meth:`union` evaluate terms with
  get-or-default semantics: an application absent from the database is
  inserted with its function's default output (a fresh e-class id for
  eq-sorts), which is how e-nodes are hash-consed into the database.
* **Rules** — :meth:`add_rule` / :meth:`add_rewrite` compile term-level
  rules (``repro.engine.rule``) into flat conjunctive queries.
* **Running** — :meth:`run` drives the semi-naïve scheduler
  (``repro.engine.scheduler``, Section 4.3); :meth:`rebuild` restores
  congruence closure (``repro.engine.rebuild``, Section 4).
* **Queries** — :meth:`query`, :meth:`check`, :meth:`check_equal`
  (e-matching via relational joins, Section 5.1).
* **Extraction** — :meth:`extract` returns a minimum-cost term for an
  e-class, the standard equality-saturation cost extraction.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.builtins import PrimitiveRegistry, default_registry
from ..core.database import Table
from ..core.proofs import EXPLICIT, Explanation, Justification
from ..core.query import Query, Substitution
from ..core.schema import MERGE_ERROR, MERGE_UNION, FunctionDecl, RunReport
from ..core.terms import SupportsTerm, Term, TermApp, TermLit, TermLike, as_term
from ..core.unionfind import UnionFind
from ..core.values import BUILTIN_SORTS, UNIT, UNIT_VALUE, EqSort, Sort, Value, from_python
from .budget import Budget
from .compilecache import CompiledPlan
from .errors import CheckError, EGraphError, MergeError
from .extract import BestNodes
from .extract import extract as _extract
from .program import RuleExec, compile_actions, compile_term
from .rebuild import rebuild as _rebuild
from .rule import DEFAULT_RULESET, CompiledRule, Fact, Rule, compile_facts, compile_rule
from .rule import birewrite as _birewrite
from .rule import rewrite as _rewrite
from .schedule import Schedule, Seq
from .scheduler import Scheduler

Key = Tuple[Value, ...]

#: The registers of a term merge's two variables.
MERGE_SLOTS = {"old": 0, "new": 1}


def _call_with_pair(merge: Any, pair: Tuple[Value, Value]) -> Any:
    return merge(*pair)


class EGraph:
    """An egglog engine instance.

    Rule search and one-off queries run one join executor whose plan
    takes its shape from the query body (Section 5.1: any relational join
    algorithm implements e-matching over the canonical database):
    index-nested-loop for α-acyclic bodies, generic join for cyclic ones
    (see :mod:`repro.core.compile`).  Both read the tables' hash indexes,
    which are built on first use and kept exact on every write, so a body
    pays only for the indexes its search asks for.

    ``proofs`` (default True) keeps a proof forest alongside the union-find
    so :meth:`explain` can answer *why* two terms are equal; disable it to
    shave the per-union bookkeeping when explanations are never needed.
    """

    def __init__(
        self,
        *,
        registry: Optional[PrimitiveRegistry] = None,
        proofs: bool = True,
    ) -> None:
        self.uf = UnionFind(proofs=proofs)
        #: Ambient justification attached to unions whose call site doesn't
        #: pass one explicitly — the scheduler sets it to the firing rule
        #: around the apply phase and rebuilding sets it to the congruence
        #: step around each table repair (see :meth:`set_union_reason`).
        self._reason: Justification = EXPLICIT
        self.registry = registry if registry is not None else default_registry()
        self.sorts: Dict[str, Sort] = dict(BUILTIN_SORTS)
        #: Names of declared eq-sorts — the canonicalize fast path tests
        #: membership here instead of a dict lookup plus attribute access.
        self._eq_sorts: set = {
            name for name, sort in self.sorts.items() if sort.is_eq_sort
        }
        self.decls: Dict[str, FunctionDecl] = {}
        self.tables: Dict[str, Table] = {}
        self.rules: Dict[str, CompiledRule] = {}
        self.rulesets: Dict[str, List[str]] = {DEFAULT_RULESET: []}
        #: Current semi-naïve timestamp; rows written now carry this stamp.
        self.timestamp = 0
        self._updates = 0
        #: Bumped whenever compiled executors may hold stale references
        #: (every restore: pop, rollback, a fork's child); see :meth:`rule_exec`.
        self._compile_epoch = 0
        #: Per-function compiled merge-resolution closures (see merge_fn).
        self._merge_fns: Dict[str, Callable[[Value, Value], Value]] = {}
        #: Per-function eq-sorted column lists (see eq_columns).
        self._eq_cols: Dict[str, List[Tuple[int, str]]] = {}
        self._snapshots: List[dict] = []
        #: Extraction's best-node map: derived state, never snapshotted, and
        #: dropped whenever a class's cost can rise (see repro.engine.extract).
        self._extraction: Optional[BestNodes] = None

    @property
    def scheduler(self) -> Scheduler:
        """A scheduler over this engine.

        Built per call rather than kept: a kept scheduler would refer back
        to its engine, and that cycle would leave every dropped engine (a
        deleted session's fork) to the cyclic garbage collector.
        """
        return Scheduler(self)

    # -- compiled executors ---------------------------------------------------

    @property
    def compile_epoch(self) -> int:
        """Monotone counter invalidating compiled plans/programs.

        Every :meth:`restore_state` bumps it (pop, a rolled-back batch, a
        fork's child): compiled closures capture table and declaration
        objects a restore may swap out.  A capture (:meth:`push`,
        :meth:`snapshot_state`) swaps nothing and leaves it alone.
        """
        return self._compile_epoch

    def invalidate_compiled(self) -> None:
        """Invalidate every cached compiled executor and merge closure."""
        self._compile_epoch += 1
        self._merge_fns.clear()
        self._eq_cols.clear()

    def eq_columns(self, decl: FunctionDecl) -> List[Tuple[int, str]]:
        """The eq-sorted columns of ``decl`` as ``(column, sort)`` pairs.

        Column ``arity`` is the output.  Cached per function — rebuilding
        consults this once per repair round per table.
        """
        cached = self._eq_cols.get(decl.name)
        if cached is not None:
            return cached
        cols = [
            (i, s)
            for i, s in enumerate(decl.arg_sorts)
            if self.sorts[s].is_eq_sort
        ]
        if self.sorts[decl.out_sort].is_eq_sort:
            cols.append((decl.arity, decl.out_sort))
        self._eq_cols[decl.name] = cols
        return cols

    def rule_exec(self, rule: CompiledRule) -> RuleExec:
        """The compiled executor for ``rule``.

        Cached on the rule and pinned to the compile epoch; a stale or
        missing executor is recompiled on demand (lazily, so rules that
        never run cost nothing).
        """
        cached = rule.cached_exec
        if cached is not None and cached.epoch == self._compile_epoch:
            return cached
        built = RuleExec(self, rule)
        rule.cached_exec = built
        return built

    def merge_fn(self, decl: FunctionDecl) -> Callable[[Value, Value], Value]:
        """The merge-resolution closure for ``decl``, built once per function.

        The one place that turns ``decl.merge`` (see
        :class:`~repro.core.schema.FunctionDecl`) into code; shared by
        ``set`` actions and rebuilding, which both resolve conflicts
        through :func:`~repro.engine.actions.set_function_value`.  A term
        merge compiles through the one evaluator (``repro.engine.program``)
        with ``old`` and ``new`` in its two slots.
        """
        cached = self._merge_fns.get(decl.name)
        if cached is not None:
            return cached
        merge, name = decl.merge, decl.name
        fn: Callable[[Value, Value], Value]
        if merge == MERGE_UNION:
            fn = self.union_values
        elif merge == MERGE_ERROR:

            def error_merge(old: Value, new: Value) -> Value:
                raise MergeError(
                    f"merge conflict on {name}: {old!r} vs {new!r} "
                    f"(function declared with merge=\"error\")"
                )

            fn = error_merge
        else:
            apply: Callable[[Tuple[Value, Value]], Optional[Value]]
            if isinstance(merge, str):  # a primitive's name
                apply = partial(self.registry.call, merge)
            elif isinstance(merge, Term):
                apply = compile_term(self, merge, MERGE_SLOTS).value
            else:  # a Python callable
                apply = partial(_call_with_pair, merge)

            def call_merge(old: Value, new: Value) -> Value:
                merged = apply((old, new))
                if merged is None:
                    raise MergeError(
                        f"merge function of {name} failed on {old!r}, {new!r}"
                    )
                return merged

            fn = call_merge
        if merge != MERGE_UNION and self.sorts[decl.out_sort].is_eq_sort:
            resolve = fn

            def eq_merge(old: Value, new: Value) -> Value:
                # old and new are in different e-classes, and whichever value
                # is kept (or none, if the merge raises), the other class can
                # lose a node: a rebuild removed new's row before merging.
                self._extraction = None
                return resolve(old, new)

            fn = eq_merge
        self._merge_fns[decl.name] = fn
        return fn

    # -- change tracking ------------------------------------------------------

    @property
    def updates(self) -> int:
        """Monotone counter of database/union-find changes (saturation test)."""
        return self._updates

    def note_update(self) -> None:
        """Record that the database or equivalence relation changed."""
        self._updates += 1

    def remove_row(self, func: str, key: Key) -> bool:
        """Delete the row ``func(key)`` (the ``delete`` action); True iff
        there was one.

        A deleted node can raise its e-class's cost, so the best-node map
        is dropped.
        """
        if self.tables[func].remove(key) is None:
            return False
        self.note_update()
        self._extraction = None
        return True

    # -- declarations ---------------------------------------------------------

    def declare_sort(self, name: str) -> EqSort:
        """Declare an uninterpreted sort whose values can be unified (§3.3)."""
        if name in self.sorts:
            raise EGraphError(f"sort {name!r} already declared")
        sort = EqSort(name)
        self.sorts[name] = sort
        self._eq_sorts.add(name)
        return sort

    def function(
        self,
        name: str,
        arg_sorts: Sequence[str],
        out_sort: str,
        *,
        merge: object = None,
        default: object = None,
        cost: int = 1,
        unextractable: bool = False,
        is_datatype_constructor: bool = False,
        decl_site: str = "",
    ) -> FunctionDecl:
        """Declare a function symbol backed by a database table (§3.2).

        ``merge`` may be ``None`` (union for eq-sorted outputs, error
        otherwise — the paper's defaults), the strings ``"union"`` or
        ``"error"``, the name of a binary primitive (e.g. ``"min"``), a
        term over the variables ``old`` and ``new`` (e.g. ``(min old
        new)``), or a callable ``(old, new) -> Value``, kept as data on
        ``FunctionDecl.merge``.  ``cost`` is the per-node extraction cost, an
        integer ≥ 1.  ``decl_site`` is free-form provenance
        (``file:line``) echoed in later diagnostics.
        """
        if isinstance(cost, bool) or not isinstance(cost, int) or cost < 1:
            # A zero or negative cost lets a node cost no more than its
            # children: extraction could then loop forever or pick a cycle.
            raise EGraphError(
                f"function {name!r}: cost must be an integer >= 1, got {cost!r}"
            )
        if name in self.decls:
            existing = self.decls[name]
            where = f" (at {existing.decl_site})" if existing.decl_site else ""
            raise EGraphError(f"function {name!r} already declared{where}")
        if name in self.registry:
            raise EGraphError(f"function {name!r} collides with a primitive")
        for sort_name in tuple(arg_sorts) + (out_sort,):
            if sort_name not in self.sorts:
                raise EGraphError(f"unknown sort {sort_name!r} in declaration of {name!r}")
        decl = FunctionDecl(
            name=name,
            arg_sorts=tuple(arg_sorts),
            out_sort=out_sort,
            merge=self._normalize_merge(name, merge, out_sort),
            default=default,
            cost=cost,
            unextractable=unextractable,
            is_datatype_constructor=is_datatype_constructor,
            decl_site=decl_site,
        )
        self.decls[name] = decl
        self.tables[name] = Table(decl)
        return decl

    def relation(
        self, name: str, arg_sorts: Sequence[str], *, decl_site: str = ""
    ) -> FunctionDecl:
        """Declare a Datalog-style relation: a function with Unit output."""
        return self.function(name, arg_sorts, UNIT, decl_site=decl_site)

    def constructor(
        self,
        name: str,
        arg_sorts: Sequence[str],
        out_sort: str,
        *,
        cost: int = 1,
        decl_site: str = "",
    ) -> FunctionDecl:
        """Declare a datatype constructor (eq-sorted output, union merge)."""
        if not self.sorts.get(out_sort, EqSort("")).is_eq_sort or out_sort not in self.sorts:
            raise EGraphError(f"constructor {name!r} needs an eq-sort output, got {out_sort!r}")
        return self.function(
            name,
            arg_sorts,
            out_sort,
            cost=cost,
            is_datatype_constructor=True,
            decl_site=decl_site,
        )

    def _normalize_merge(self, name: str, merge: object, out_sort: str) -> object:
        """Check ``merge`` and return the declaration's form of it."""
        out_is_eq = self.sorts[out_sort].is_eq_sort
        if merge is None:
            return MERGE_UNION if out_is_eq else MERGE_ERROR
        if isinstance(merge, (Term, SupportsTerm)):
            term = as_term(merge)
            compile_term(self, term, MERGE_SLOTS)  # symbol and arity errors now
            return term
        if merge == MERGE_UNION and not out_is_eq:
            raise EGraphError(f"{name!r}: merge=\"union\" requires an eq-sort output")
        if isinstance(merge, str):
            if merge not in (MERGE_UNION, MERGE_ERROR) and merge not in self.registry:
                raise EGraphError(f"{name!r}: merge primitive {merge!r} is not registered")
            return merge
        if callable(merge):
            return merge
        raise EGraphError(f"{name!r}: cannot interpret merge {merge!r}")

    def is_table(self, name: str) -> bool:
        """True iff ``name`` is a declared function/relation (not a primitive)."""
        return name in self.decls

    # -- values ---------------------------------------------------------------

    def make_id(self, sort_name: str) -> Value:
        """Allocate a fresh e-class id of the given eq-sort (§3.3)."""
        sort = self.sorts.get(sort_name)
        if sort is None or not sort.is_eq_sort:
            raise EGraphError(f"make_id needs an eq-sort, got {sort_name!r}")
        return Value(sort_name, self.uf.make_set())

    def canonicalize(self, value: Value) -> Value:
        """Replace an eq-sorted value's id with its canonical representative."""
        # Index access: Value is a (sort, data) tuple and this is the
        # engine's hottest function — C-level indexing beats the property.
        sort = value[0]  # type: ignore[index]
        if sort not in self._eq_sorts:
            return value
        data = value[1]  # type: ignore[index]
        root = self.uf.find(data)
        return value if root == data else Value(sort, root)

    def union_values(
        self, a: Value, b: Value, reason: Optional[Justification] = None
    ) -> Value:
        """Merge two values: union e-class ids, require equality on primitives.

        ``reason`` justifies the union in the proof forest; when omitted the
        ambient reason applies (explicit union outside rule/rebuild scopes).
        The union-find receives the *original* ids, not their roots, so the
        proof forest records an edge between the e-nodes actually named.
        """
        sort = a[0]  # type: ignore[index]
        if sort != b[0]:  # type: ignore[index]
            raise EGraphError(f"cannot union values of different sorts: {a!r}, {b!r}")
        if sort not in self._eq_sorts:
            if a != b:
                raise EGraphError(f"cannot union distinct primitive values {a!r}, {b!r}")
            return a
        da, db = a[1], b[1]  # type: ignore[index]
        uf = self.uf
        before = uf.n_unions
        root = uf.union(da, db, reason if reason is not None else self._reason)
        if uf.n_unions != before:
            self.note_update()
        return Value(sort, root)

    def set_union_reason(self, reason: Justification) -> Justification:
        """Install the ambient union justification; returns the previous one.

        Callers must restore the previous reason in a ``finally`` block —
        the scheduler scopes it per applied rule and rebuilding scopes it
        per repaired table.
        """
        previous = self._reason
        self._reason = reason
        return previous

    # -- ground terms ---------------------------------------------------------

    def record_node(self, func: str, key: Key, value: Value) -> None:
        """Log an eq-sorted insertion's raw output id for proof production
        (the proof forest's node log, ``ProofForest.nodes``).

        No-op when proofs are disabled or the output is primitive.  The
        first recording wins: the log preserves the term's *original*
        e-node id even after rebuilding rewrites or merges its row.
        """
        forest = self.uf.proofs
        if forest is not None and value[0] in self._eq_sorts:  # type: ignore[index]
            forest.nodes.setdefault((func, key), value)

    def _default_value(self, decl: FunctionDecl, key: Key) -> Value:
        default = decl.default
        if default is None:
            out = self.sorts[decl.out_sort]
            if out.is_eq_sort:
                return self.make_id(decl.out_sort)
            if decl.out_sort == UNIT:
                return UNIT_VALUE
            raise EGraphError(
                f"function {decl.name!r} has a primitive output and no default; "
                f"use a `set` action or declare default="
            )
        if callable(default):
            value = default(key)
            if not isinstance(value, Value):
                value = from_python(value)
            return value
        if isinstance(default, Value):
            return default
        return from_python(default)

    def add(self, term: TermLike) -> Value:
        """Insert a ground term (and all sub-terms); return its value.

        Evaluation is get-or-default (§3.2): an application absent from
        its table is inserted with its function's default output — a fresh
        e-class id for eq-sorted outputs, which is how e-nodes are
        hash-consed into the database.
        """
        (value,) = self._evaluate(term)
        assert value is not None  # only a lookup answers None
        return value

    def lookup(self, term: TermLike) -> Optional[Value]:
        """Pure lookup of a ground term; None if any sub-term is absent."""
        return self._evaluate(term, lookup=True)[0]

    def _evaluate(self, *terms: TermLike, lookup: bool = False) -> List[Optional[Value]]:
        """The values of ground terms, all compiled before any runs; a
        lookup rebuilds first, writes nothing and answers None for an
        absent term."""
        if lookup:
            self._ensure_canonical()
        programs = [compile_term(self, as_term(term), lookup=lookup) for term in terms]
        return [program.value() for program in programs]

    def union(self, lhs: TermLike, rhs: TermLike) -> Value:
        """Assert that two ground terms denote the same e-class (§3.3)."""
        a, b = self._evaluate(lhs, rhs)
        assert a is not None and b is not None  # only a lookup answers None
        return self.union_values(a, b)

    def are_equal(self, lhs: TermLike, rhs: TermLike) -> bool:
        """True iff both terms are present and denote equal (canonical) values."""
        a, b = self._evaluate(lhs, rhs, lookup=True)
        if a is None or b is None:
            return False
        return self.canonicalize(a) == self.canonicalize(b)

    # -- rules ----------------------------------------------------------------

    def add_rule(self, rule: Rule) -> str:
        """Compile and register a rule; returns the rule's (unique) name."""
        compiled = compile_rule(rule, self.is_table, default_name=f"rule#{len(self.rules)}")
        if compiled.name in self.rules:
            raise EGraphError(f"rule {compiled.name!r} already registered")
        self._validate_rule(compiled)
        self.rules[compiled.name] = compiled
        self.rulesets.setdefault(compiled.ruleset, []).append(compiled.name)
        return compiled.name

    def add_rules(self, *rules: Rule) -> List[str]:
        """Register several rules; returns their names."""
        return [self.add_rule(rule) for rule in rules]

    def replace_rule(self, rule: Rule) -> str:
        """Recompile and swap a registered rule in place (same name).

        The rule keeps its position in its ruleset, but its semi-naïve
        watermark resets to zero — an edited body must re-search the full
        database, not just the delta since the old rule last ran.  The
        fresh :class:`CompiledRule` carries an empty executor cache, so any
        compiled plan or action program of the old definition is unreachable
        (no stale-slot reads).
        """
        if rule.name is None:
            raise EGraphError("replace_rule needs a named rule")
        existing = self.rules.get(rule.name)
        if existing is None:
            raise EGraphError(f"cannot replace unknown rule {rule.name!r}")
        if rule.ruleset != existing.ruleset:
            raise EGraphError(
                f"cannot move rule {rule.name!r} from ruleset "
                f"{existing.ruleset!r} to {rule.ruleset!r} while replacing it"
            )
        compiled = compile_rule(rule, self.is_table, default_name=rule.name)
        self._validate_rule(compiled)
        self.rules[compiled.name] = compiled
        return compiled.name

    def add_rewrite(
        self,
        lhs: TermLike,
        rhs: TermLike,
        *,
        conditions: Sequence[Fact] = (),
        name: Optional[str] = None,
        ruleset: str = DEFAULT_RULESET,
        bidirectional: bool = False,
    ) -> List[str]:
        """Register ``lhs => rhs`` (and the reverse when ``bidirectional``)."""
        if bidirectional:
            return self.add_rules(
                *_birewrite(lhs, rhs, conditions=conditions, name=name, ruleset=ruleset)
            )
        return self.add_rules(
            _rewrite(lhs, rhs, conditions=conditions, name=name, ruleset=ruleset)
        )

    # -- running --------------------------------------------------------------

    def run(
        self,
        limit: int = 1,
        *,
        ruleset: str = DEFAULT_RULESET,
        deadline_s: Optional[float] = None,
        max_nodes: Optional[int] = None,
    ) -> RunReport:
        """Run up to ``limit`` scheduler iterations (§4.3); see RunReport.

        ``deadline_s`` (wall-clock seconds from now) and ``max_nodes`` (cap
        on :meth:`node_count`) bound the run: the scheduler checks them
        between iterations and stops cleanly with the partial report's
        ``stopped_reason`` set to ``"deadline"`` or ``"max-nodes"``.
        """
        return self.scheduler.run(
            limit, ruleset, Budget.of(deadline_s=deadline_s, max_nodes=max_nodes)
        )

    def run_schedule(
        self,
        *schedules: Schedule,
        deadline_s: Optional[float] = None,
        max_nodes: Optional[int] = None,
    ) -> RunReport:
        """Run schedule combinators (``run-schedule``): saturate/seq/repeat.

        Multiple arguments run in sequence; see :mod:`repro.engine.schedule`.
        The optional budget spans the *whole* schedule (one deadline across
        every combinator), with the same between-iteration semantics as
        :meth:`run`.
        """
        return self.scheduler.run_schedule(
            Seq(tuple(schedules)),
            Budget.of(deadline_s=deadline_s, max_nodes=max_nodes),
        )

    def node_count(self) -> int:
        """Total rows across all tables — the size a ``max_nodes`` budget caps.

        Every e-node is one table row (§3.2: the e-graph *is* the database),
        so this is the natural "number of nodes" measure.
        """
        return sum(len(table) for table in self.tables.values())

    def rebuild(self) -> int:
        """Restore congruence closure (§4); returns the number of repair rounds."""
        return _rebuild(self)

    def _ensure_canonical(self) -> None:
        if self.uf.has_dirty:
            _rebuild(self)

    # -- push / pop -----------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture the full observable engine state as an opaque snapshot.

        Everything observable is captured: the union-find with its proof
        forest and proof-node log, every table's rows, declarations, rules
        and their semi-naïve watermarks, the timestamp, and the update
        counter.  A capture costs O(tables + rules), independent of rows
        and e-classes: tables are captured copy-on-write (see
        ``Table.snapshot``), and the union-find, proof forest and node log
        by their lengths and a position in the union-find's undo journal
        (``UnionFind.mark``), which records every overwrite while the
        capture is alive.  The snapshot is *out of band* — it does not
        touch the :meth:`push`/:meth:`pop` stack, so holders
        (transactional batches, :meth:`fork`) can roll back without
        disturbing client-visible push/pop pairing.  A capture replaces no
        table, declaration or rule, so compiled executors stay valid; only
        :meth:`restore_state` invalidates them.
        """
        return {
            "uf": self.uf.mark(),
            "sorts": dict(self.sorts),
            "decls": dict(self.decls),
            "tables": {name: table.snapshot() for name, table in self.tables.items()},
            "rules": dict(self.rules),
            "watermarks": {name: rule.last_run for name, rule in self.rules.items()},
            "rulesets": {name: list(rules) for name, rules in self.rulesets.items()},
            "timestamp": self.timestamp,
            "updates": self._updates,
        }

    def restore_state(self, snap: dict) -> None:
        """Reinstall a :meth:`snapshot_state` capture, discarding all changes
        made since.  E-class ids allocated after the capture become invalid.

        The capture survives the restore intact, so it can be restored
        again: tables share its rows copy-on-write, the small dicts are
        installed as copies, and the union-find rolls back through
        ``UnionFind.rollback``.  Restoring the newest live capture undoes
        the union-find's journal, in O(writes undone); any other restore
        (a batch that pops a push made before it) first turns every live
        capture into copies, then installs a copy.  A pinned transaction
        snapshot or push-stack entry stays pristine even when a ``pop``
        runs inside an aborted batch.
        """
        self.uf.rollback(snap["uf"])
        self.sorts = dict(snap["sorts"])
        self.decls = dict(snap["decls"])
        # Tables declared after the capture are dropped; surviving Table
        # objects are restored in place, so tables not written since the
        # capture keep their indexes.  A table that is missing now (a fresh
        # fork, an in-batch ``load``) or bound to another declaration (a
        # ``pop`` then a redeclaration) is recreated on the captured one.
        tables: Dict[str, Table] = {}
        for name, state in snap["tables"].items():
            table = self.tables.get(name)
            if table is None or table.decl is not self.decls[name]:
                table = Table(self.decls[name])
            table.restore(state)
            tables[name] = table
        self.tables = tables
        self.rules = dict(snap["rules"])
        for name, last_run in snap["watermarks"].items():
            self.rules[name].last_run = last_run
        self.rulesets = {name: list(rules) for name, rules in snap["rulesets"].items()}
        self.timestamp = snap["timestamp"]
        self._updates = snap["updates"]
        self._eq_sorts = {
            name for name, sort in self.sorts.items() if sort.is_eq_sort
        }
        self._extraction = None  # it describes rows and classes now gone
        self.invalidate_compiled()

    def push(self) -> int:
        """Save the full engine state on a stack (the ``push`` command, §3.1).

        Returns the new stack depth.  See :meth:`snapshot_state` for what
        is captured.
        """
        self._snapshots.append(self.snapshot_state())
        return len(self._snapshots)

    def pop(self, count: int = 1) -> int:
        """Restore the most recent :meth:`push` state(s); returns stack depth.

        Declarations, rules, rows, and unions made since the matching push
        all disappear.  E-class ids allocated since then become invalid.
        """
        if count < 1:
            raise EGraphError(f"pop count must be positive, got {count}")
        if count > len(self._snapshots):
            raise EGraphError(
                f"pop {count} without matching push (stack depth {len(self._snapshots)})"
            )
        for _ in range(count):
            self.restore_state(self._snapshots.pop())
        return len(self._snapshots)

    # -- querying / checking --------------------------------------------------

    def search(self, query: Query) -> List[Substitution]:
        """Every match of ``query``.

        The query runs through the executor a rule with the same body
        would get.  Its plan is built here rather than taken from the
        process-wide plan cache, which keeps single-use plans (e.g. ground
        checks) from crowding out rule plans.
        """
        plan = CompiledPlan(query, self.registry)
        matches: List[Tuple[Value, ...]] = []
        plan.query_exec.search(self.tables, None, 0, matches.append)  # type: ignore[attr-defined]
        names = plan.slot_names
        return [dict(zip(names, match)) for match in matches]

    def _validate_symbols(self, query: Query, context: str) -> None:
        """Reject symbols that are neither declared functions nor primitives,
        and table atoms of the wrong arity.

        Flattening routes unknown applications to the primitive path, where
        they would silently match nothing — a typo'd function name must be
        an error instead.
        """
        for table_atom in query.atoms:
            decl = self.decls.get(table_atom.func)
            if decl is not None:
                self._check_arity(decl, len(table_atom.args), context)
        for atom in query.prims:
            if atom.op not in self.registry:
                raise EGraphError(
                    f"{context} uses unknown symbol {atom.op!r} "
                    f"(neither a declared function nor a primitive)"
                )

    def _validate_rule(self, rule: CompiledRule) -> None:
        """Reject a rule whose body or actions use an unknown symbol or
        apply a function to the wrong number of arguments.

        Without this, a typo'd action symbol would only fail the first time
        the rule fires — or never, if its body never matches.  The actions
        are checked by compiling them: the compiler is the one place that
        resolves the symbols of action terms.
        """
        context = f"rule {rule.name!r}"
        self._validate_symbols(rule.query, context)
        try:
            compile_actions(self, rule.actions, {}, 0)
        except EGraphError as error:
            raise EGraphError(f"{context}: {error}") from None

    @staticmethod
    def _check_arity(decl: FunctionDecl, n_args: int, context: object) -> None:
        """Reject an application of ``decl`` to the wrong number of
        arguments; ``context`` (a description or the term itself) is only
        formatted on error."""
        if n_args != decl.arity:
            raise EGraphError(
                f"{context}: {decl.name!r} expects {decl.arity} argument(s), "
                f"got {n_args}"
            )

    def query(self, *facts: Fact) -> List[Substitution]:
        """Match term-level facts against the database; return substitutions."""
        self._ensure_canonical()
        compiled = compile_facts(list(facts), self.is_table)
        self._validate_symbols(compiled, "query")
        return self.search(compiled)

    def check(self, *facts: Fact) -> int:
        """Require at least one match for ``facts`` (the ``check`` command).

        Returns the number of matches; raises :class:`CheckError` on zero.
        """
        matches = self.query(*facts)
        if not matches:
            raise CheckError(f"check failed: no matches for {facts!r}")
        return len(matches)

    def check_equal(self, lhs: TermLike, rhs: TermLike) -> bool:
        """Require that two ground terms denote the same e-class."""
        if not self.are_equal(lhs, rhs):
            raise CheckError(f"check failed: {as_term(lhs)} is not equal to {as_term(rhs)}")
        return True

    # -- extraction -----------------------------------------------------------

    def extract(self, term: TermLike) -> Term:
        """Return a minimum-cost term equivalent to ``term``."""
        return self.extract_with_cost(term)[1]

    def extract_with_cost(self, term: TermLike) -> Tuple[int, Term]:
        """Extract the cheapest representative of ``term``'s e-class.

        The cost of a candidate node ``f(c1, ..., cn)`` is ``f``'s declared
        per-node cost plus the best costs of its eq-sorted children
        (primitive arguments are free).  Ties go to the earlier-declared
        function, then to the smaller canonical key.  The best-node map
        persists between calls and is brought up to date from the rows
        written since (see :mod:`repro.engine.extract`); primitive values
        are returned as literals of cost 0.
        """
        self._ensure_canonical()
        value = self.add(term)
        if value.sort not in self._eq_sorts:
            return 0, TermLit(value)
        return _extract(self, value)

    # -- explanation (proof production) ----------------------------------------

    def explain(self, lhs: TermLike, rhs: TermLike) -> Explanation:
        """Why are ``lhs`` and ``rhs`` equal?  A minimal justified chain.

        Both terms must already be in the database (pure lookup — explain
        never inserts) and denote the same e-class of an eq-sort.  The
        returned :class:`~repro.core.proofs.Explanation` is the unique proof
        forest path between the two e-nodes: each step names the rule,
        congruence function, or explicit union that merged its endpoints.
        Raises :class:`EGraphError` when proofs are disabled, a term is
        absent, or the terms are not equal.
        """
        if self.uf.proofs is None:
            raise EGraphError(
                "proofs are disabled on this EGraph (construct with proofs=True)"
            )
        lt, rt = as_term(lhs), as_term(rhs)
        a, b = self._evaluate(lt, rt, lookup=True)
        if a is None:
            raise EGraphError(f"explain: term {lt} is not in the e-graph")
        if b is None:
            raise EGraphError(f"explain: term {rt} is not in the e-graph")
        sort = a.sort
        if sort != b.sort:
            raise EGraphError(
                f"explain: terms have different sorts ({sort} vs {b.sort})"
            )
        if sort not in self._eq_sorts:
            raise EGraphError(
                f"explain: sort {sort!r} is primitive; only eq-sorted terms "
                f"carry proofs"
            )
        if self.uf.find(a.data) != self.uf.find(b.data):
            raise EGraphError(f"explain: {lt} and {rt} are not equal")
        # The lookups above are class-level (canonicalized); the chain runs
        # between the terms' original e-nodes, recovered from the node log.
        na, nb = self._node_of(lt), self._node_of(rt)
        assert na is not None and nb is not None  # both terms are present
        steps = self.uf.proofs.explain_path(na.data, nb.data)
        if steps is None:  # pragma: no cover - forest tracks every union
            raise EGraphError(
                f"explain: proof forest has no path between {lt} and {rt}"
            )
        return Explanation(sort, na.data, nb.data, tuple(steps))

    def _node_of(self, term: Term) -> Optional[Value]:
        """Resolve a ground term to its original e-node value (raw id).

        Children resolve, bottom-up, to raw node ids; the exact raw key hits
        the proof log when the term was inserted before its children were
        merged away.  Otherwise the current row under the canonical key
        supplies a (still class-correct) member id.  A primitive
        application is looked up like any term.
        """
        done: List[Optional[Value]] = []
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, TermLit):
                done.append(node.value)
            elif not isinstance(node, TermApp):
                raise EGraphError(f"explain requires a ground term, got {node!r}")
            elif node.func not in self.decls:
                done.append(self.lookup(node))
            elif not expanded:
                stack.append((node, True))
                stack.extend((arg, False) for arg in reversed(node.args))
            else:
                start = len(done) - len(node.args)
                raw_key = tuple(done[start:])
                del done[start:]
                done.append(self._raw_node(node.func, raw_key))  # type: ignore[arg-type]
        return done[0]

    def _raw_node(self, func: str, raw_key: Key) -> Optional[Value]:
        if any(value is None for value in raw_key):
            return None
        forest = self.uf.proofs
        if forest is not None:
            hit = forest.nodes.get((func, raw_key))
            if hit is not None:
                return hit
        return self.tables[func].get(tuple([self.canonicalize(v) for v in raw_key]))

    # -- persistence (repro.serialize) -----------------------------------------

    def save(
        self,
        path: str,
        *,
        surfaces: Optional[dict] = None,
        replay: Optional[dict] = None,
    ) -> dict:
        """Write the entire engine state to a ``repro.snapshot/v1`` file.

        Everything observable is captured — declarations, rows, the
        union-find with its proof forest, rules and their semi-naïve
        watermarks, the scheduler epoch — but no derived state (indexes,
        compiled executors) and not the push/pop stack.  ``surfaces`` and
        ``replay`` are optional frontend-owned sections passed through
        verbatim.  Returns the written document.
        """
        from ..serialize import save_engine

        return save_engine(self, path, surfaces=surfaces, replay=replay)

    @classmethod
    def from_snapshot(
        cls,
        path: str,
        *,
        registry: Optional[PrimitiveRegistry] = None,
    ) -> "EGraph":
        """Reconstruct an engine from a snapshot file.

        ``registry`` substitutes a custom primitive registry, which must
        provide every primitive the snapshot's rules and merges reference.
        """
        from ..serialize import load_engine

        engine, _document = load_engine(path, registry=registry)
        return engine

    def load(self, path: str) -> dict:
        """Replace this engine's state with a snapshot, in place.

        External references to this ``EGraph`` object stay valid and see
        the loaded state.  The push/pop stack empties (snapshots never
        include it) and the current registry is kept.  Returns the loaded
        document (callers can inspect its ``surfaces``/``replay`` sections).
        """
        from ..serialize import load_engine

        fresh, document = load_engine(path, registry=self.registry)
        # Every attribute is replaced, the best-node map (None on ``fresh``)
        # included.
        self.__dict__.update(fresh.__dict__)
        self._snapshots = []
        return document

    def fork(self) -> "EGraph":
        """An independent copy of this engine: a fresh engine restored from
        :meth:`snapshot_state`, the capture path push/pop and transactional
        batches use.

        Tables are shared copy-on-write, and the child builds its
        union-find, proof forest and node log from one copy of the
        parent's, so a fork costs O(tables + e-classes) and each engine
        copies a table only when it first writes it.  Semantically
        identical to round-tripping through a ``repro.snapshot/v1``
        document (``engine_document(fork)`` is byte-identical to
        ``engine_document(parent)``, which the test suite pins).
        Mutating either engine never affects the other.  The fork
        gets fresh rule objects, because a rule's watermark and executor
        cache belong to one engine; indexes and compiled executors are
        rebuilt lazily, and the push/pop stack does not carry over.

        The fork *shares* this engine's primitive registry, which keeps the
        process-level compiled-plan cache (``repro.engine.compilecache``)
        hot across sessions forked from one base.
        """
        child = EGraph(registry=self.registry, proofs=self.uf.proofs is not None)
        child.restore_state(self.snapshot_state())
        child.rules = {
            name: replace(rule, cached_exec=None) for name, rule in child.rules.items()
        }
        return child

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A snapshot of engine size: per-table row counts, classes, unions."""
        return {
            "timestamp": self.timestamp,
            "updates": self._updates,
            "n_unions": self.uf.n_unions,
            "n_ids": len(self.uf),
            "n_classes": self.uf.n_classes(),
            "tables": {name: len(table) for name, table in self.tables.items()},
            "rules": sorted(self.rules),
        }

    def table_rows(self, name: str) -> Iterable[Tuple[Key, Value]]:
        """Convenience iterator over one function's (key, output) pairs."""
        if name not in self.tables:
            raise EGraphError(f"unknown function {name!r}")
        for key, value, _ts in self.tables[name].rows():
            yield key, value
