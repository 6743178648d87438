"""Compiled action programs: the apply-phase hot path.

The interpreted :func:`repro.engine.actions.run_actions` walks the action
dataclasses with ``isinstance`` dispatch and re-evaluates every term tree
per match, copying a dict substitution as it goes.  A compiled rule fires
its actions once per match, potentially millions of times, against the same
action *structure* — so this module lowers a rule's action list once into a
flat program of closures over integer register indices:

* every query variable already has a slot (``repro.core.compile``); a
  match tuple *is* the initial register file;
* ``let`` bindings get registers of their own (re-using the variable's
  register when a let shadows a query variable, exactly like the
  interpreted dict overwrite);
* terms compile to nested closures — a variable read is ``regs[i]`` plus
  canonicalization, an application resolves its
  :class:`~repro.core.schema.FunctionDecl` and table once at compile time
  and performs the paper's get-or-default insertion inline.

The program shares the engine's compiled merge-resolution path
(``EGraph.merge_fn``) with rebuilding via
:func:`~repro.engine.actions.set_function_value`, so a ``set`` conflict and
a congruence repair resolve merges through the same cached closure.

Compiled programs are cached per rule and invalidated by the engine's
compile epoch, which every restore bumps (pop, rollback, a fork's child);
a replaced rule starts with none — see ``EGraph.rule_exec``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.compile import MatchTuple
from ..core.proofs import Justification, rule_justification
from ..core.terms import Term, TermApp, TermLit, TermVar
from ..core.values import UNIT, UNIT_VALUE, Value
from .actions import Action, Delete, Expr, Let, Panic, Set as SetAction, Union
from .actions import set_function_value
from .compilecache import CACHE
from .errors import EGraphError, EGraphPanic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph
    from .rule import CompiledRule

Regs = List[Optional[Value]]
TermFn = Callable[[Regs], Value]
OpFn = Callable[[Regs], None]


def _canon_args(egraph: "EGraph", arg_fns: Tuple[TermFn, ...]) -> Tuple[TermFn, ...]:
    """Wrap argument evaluators so every result is canonical.

    Evaluators whose results are canonical by construction (variable reads,
    constructor applications, non-eq literals — marked with a
    ``canonical`` attribute) pass through unwrapped, skipping the redundant
    canonicalize call the interpreter pays per argument per match.
    """
    canonicalize = egraph.canonicalize
    wrapped: List[TermFn] = []
    for fn in arg_fns:
        if getattr(fn, "canonical", False):
            wrapped.append(fn)
        else:
            wrapped.append(lambda regs, f=fn, c=canonicalize: c(f(regs)))
    return tuple(wrapped)


def compile_term(egraph: "EGraph", term: Term, env: Dict[str, int]) -> TermFn:
    """Lower ``term`` to a closure ``regs -> Value``.

    Mirrors ``EGraph.eval_term`` with ``insert=True`` (get-or-default,
    §3.2), but resolves declarations, tables, and register indices once.
    An unbound variable compiles to a closure raising the same error the
    interpreter raises at evaluation time — the rule may never fire.
    """
    if isinstance(term, TermLit):
        value = term.value

        def lit(regs: Regs) -> Value:
            return value

        lit.canonical = value.sort not in egraph._eq_sorts  # type: ignore[attr-defined]
        return lit
    if isinstance(term, TermVar):
        reg = env.get(term.name)
        if reg is None:
            name = term.name

            def unbound(regs: Regs) -> Value:
                raise EGraphError(f"unbound variable {name!r} in term evaluation")

            unbound.canonical = True  # type: ignore[attr-defined]
            return unbound
        canonicalize = egraph.canonicalize
        index = reg

        def var(regs: Regs) -> Value:
            return canonicalize(regs[index])  # type: ignore[arg-type]

        var.canonical = True  # type: ignore[attr-defined]
        return var
    if isinstance(term, TermApp):
        arg_fns = _canon_args(
            egraph, tuple(compile_term(egraph, arg, env) for arg in term.args)
        )
        canonicalize = egraph.canonicalize
        decl = egraph.decls.get(term.func)
        if decl is None:
            registry_call = egraph.registry.call
            op_name = term.func

            def prim(regs: Regs) -> Value:
                args = tuple([fn(regs) for fn in arg_fns])
                result = registry_call(op_name, args)
                if result is None:
                    raise EGraphError(
                        f"primitive {op_name!r} failed on {args!r}"
                    )
                return result

            return prim
        table = egraph.tables[decl.name]
        table_get = table.get
        table_put = table.put
        note_update = egraph.note_update
        out_is_eq = egraph.sorts[decl.out_sort].is_eq_sort

        if decl.default is None and decl.out_sort == UNIT:
            # Unit relation: the default is the unit value, which is its own
            # canonical form — no default dispatch, no canonicalization.
            def assert_fact(regs: Regs) -> Value:
                key = tuple([fn(regs) for fn in arg_fns])
                existing = table_get(key)
                if existing is not None:
                    return existing
                table_put(key, UNIT_VALUE, egraph.timestamp)
                note_update()
                return UNIT_VALUE

            assert_fact.canonical = True  # type: ignore[attr-defined]
            return assert_fact
        record_node = egraph.record_node
        func_name = decl.name
        if decl.default is None and out_is_eq:
            # Constructor/eq-sorted function: the default is a fresh e-class
            # id (the paper's make-set default), canonical by construction.
            make_id = egraph.make_id
            out_sort = decl.out_sort

            def construct(regs: Regs) -> Value:
                key = tuple([fn(regs) for fn in arg_fns])
                existing = table_get(key)
                if existing is not None:
                    return canonicalize(existing)
                value = make_id(out_sort)
                table_put(key, value, egraph.timestamp)
                record_node(func_name, key, value)
                note_update()
                return value

            construct.canonical = True  # type: ignore[attr-defined]
            return construct
        default_value = egraph._default_value

        def app(regs: Regs) -> Value:
            key = tuple([fn(regs) for fn in arg_fns])
            existing = table_get(key)
            if existing is not None:
                return canonicalize(existing) if out_is_eq else existing
            value = default_value(decl, key)
            table_put(key, canonicalize(value), egraph.timestamp)
            record_node(func_name, key, value)
            note_update()
            return value

        return app
    raise EGraphError(f"cannot evaluate {term!r}")


def _compile_call_key(
    egraph: "EGraph", call: TermApp, env: Dict[str, int]
) -> Tuple[object, Callable[[Regs], Tuple[Value, ...]]]:
    """Compile a Set/Delete target into (decl, canonical-key builder).

    Unknown functions and arity mismatches compile to closures raising the
    interpreter's fire-time errors (registration-time validation normally
    rules them out; stale rules after a pop are caught by the epoch).
    """
    decl = egraph.decls.get(call.func)
    if decl is None:
        func = call.func

        def missing(regs: Regs) -> Tuple[Value, ...]:
            raise EGraphError(f"action targets unknown function {func!r}")

        return None, missing
    if len(call.args) != decl.arity:
        func, expected, got = call.func, decl.arity, len(call.args)

        def bad_arity(regs: Regs) -> Tuple[Value, ...]:
            raise EGraphError(f"{func} expects {expected} arguments, got {got}")

        return None, bad_arity
    arg_fns = _canon_args(
        egraph, tuple(compile_term(egraph, arg, env) for arg in call.args)
    )

    def key_of(regs: Regs) -> Tuple[Value, ...]:
        return tuple([fn(regs) for fn in arg_fns])

    return decl, key_of


class ActionProgram:
    """A rule's actions lowered to straight-line register opcodes."""

    __slots__ = ("ops", "n_slots", "_pad")

    def __init__(self, ops: Tuple[OpFn, ...], n_slots: int, n_regs: int) -> None:
        self.ops = ops
        self.n_slots = n_slots
        self._pad: Regs = [None] * (n_regs - n_slots)

    def execute(self, match: MatchTuple) -> None:
        """Fire the compiled actions under ``match`` (one tuple, slot order)."""
        regs = list(match)
        if self._pad:
            regs.extend(self._pad)
        for op in self.ops:
            op(regs)


def compile_actions(
    egraph: "EGraph",
    actions: Sequence[Action],
    slot_of: Dict[str, int],
    n_slots: int,
    reason: Optional[Justification] = None,
) -> ActionProgram:
    """Lower ``actions`` into an :class:`ActionProgram` over rule slots.

    ``reason`` is baked into every compiled union op so the proof forest
    records fire-time rule identity even though the closure outlives the
    compilation — it shares the executor cache's lifetime (compile epoch),
    so a replaced rule's fresh executor carries the fresh justification.
    """
    env = dict(slot_of)
    n_regs = n_slots
    ops: List[OpFn] = []
    for action in actions:
        if isinstance(action, Let):
            reg = env.get(action.name)
            if reg is None:
                reg = n_regs
                n_regs += 1
            expr_fn = compile_term(egraph, action.expr, env)
            env[action.name] = reg
            index = reg

            def let_op(regs: Regs, fn: TermFn = expr_fn, i: int = index) -> None:
                regs[i] = fn(regs)

            ops.append(let_op)
        elif isinstance(action, Union):
            lhs_fn = compile_term(egraph, action.lhs, env)
            rhs_fn = compile_term(egraph, action.rhs, env)
            union_values = egraph.union_values

            def union_op(
                regs: Regs,
                lf: TermFn = lhs_fn,
                rf: TermFn = rhs_fn,
                why: Optional[Justification] = reason,
            ) -> None:
                union_values(lf(regs), rf(regs), why)

            ops.append(union_op)
        elif isinstance(action, SetAction):
            decl, key_fn = _compile_call_key(egraph, action.call, env)
            (value_fn,) = _canon_args(
                egraph, (compile_term(egraph, action.value, env),)
            )

            def set_op(
                regs: Regs,
                d: object = decl,
                kf: Callable[[Regs], Tuple[Value, ...]] = key_fn,
                vf: TermFn = value_fn,
            ) -> None:
                key = kf(regs)  # raises for unknown function / bad arity
                set_function_value(egraph, d, key, vf(regs))  # type: ignore[arg-type]

            ops.append(set_op)
        elif isinstance(action, Delete):
            _decl, key_fn = _compile_call_key(egraph, action.call, env)
            remove_row = egraph.remove_row

            def delete_op(
                regs: Regs,
                kf: Callable[[Regs], Tuple[Value, ...]] = key_fn,
                func: str = action.call.func,
            ) -> None:
                # kf raises first for an unknown function or a bad arity.
                remove_row(func, kf(regs))

            ops.append(delete_op)
        elif isinstance(action, Panic):
            message = action.message

            def panic_op(regs: Regs, msg: str = message) -> None:
                raise EGraphPanic(msg)

            ops.append(panic_op)
        elif isinstance(action, Expr):
            expr_fn = compile_term(egraph, action.expr, env)

            def expr_op(regs: Regs, fn: TermFn = expr_fn) -> None:
                fn(regs)

            ops.append(expr_op)
        else:
            bad = action

            def unknown_op(regs: Regs, a: Action = bad) -> None:
                raise EGraphError(f"unknown action {a!r}")

            ops.append(unknown_op)
    return ActionProgram(tuple(ops), n_slots, n_regs)


# ---------------------------------------------------------------------------
# Per-rule executor bundle
# ---------------------------------------------------------------------------


class RuleExec:
    """Everything one rule needs to run hot: plan, slots, action program.

    Built by ``EGraph.rule_exec`` and cached on the rule;
    ``epoch`` pins it to the engine state it was compiled against — the
    engine bumps its compile epoch on every restore (pop, a rolled-back
    batch, a fork's child), which invalidates every cached executor
    (closures capture tables and declarations a restore may replace).  A
    capture (push, a batch's transaction) keeps them, and a replaced rule
    is a fresh object with no executor.

    The engine-independent half — slot assignment and the compiled query
    search — comes from the process-level plan cache
    (:mod:`repro.engine.compilecache`), so engines sharing a primitive
    registry (e.g. sessions forked from one base) share query plans; only
    the action program, which captures this engine's tables and counters,
    is compiled fresh per executor.
    """

    __slots__ = (
        "epoch",
        "slot_of",
        "slot_names",
        "n_slots",
        "query_exec",
        "program",
        "reason",
    )

    def __init__(self, egraph: "EGraph", rule: "CompiledRule") -> None:
        self.epoch = egraph.compile_epoch
        #: Justification for unions this rule performs; baked into the
        #: compiled union ops and installed as the ambient reason while the
        #: scheduler applies this rule's matches.
        self.reason = rule_justification(rule.name)
        plan = CACHE.plan(rule.query, egraph.registry)
        self.slot_of = plan.slot_of
        self.slot_names = plan.slot_names
        self.n_slots = plan.n_slots
        self.query_exec = plan.query_exec
        self.program = compile_actions(
            egraph, rule.actions, plan.slot_of, plan.n_slots, self.reason
        )

    def search_full(self, tables: Dict[str, object]) -> List[MatchTuple]:
        """All matches of the query (no delta restriction), in plan order."""
        out: List[MatchTuple] = []
        self.query_exec.search(tables, None, 0, out.append)  # type: ignore[attr-defined]
        return out

    def search_delta(
        self,
        tables: Dict[str, object],
        delta_atom: int,
        since: int,
        seen: Set[MatchTuple],
        out: List[MatchTuple],
    ) -> None:
        """Semi-naïve delta search, deduplicating into ``seen``/``out``.

        Match tuples are canonical positional substitutions, so the
        cross-atom dedup is one tuple hash per match — no dict sorting.
        """
        seen_add = seen.add
        out_append = out.append

        def emit(match: MatchTuple) -> None:
            if match not in seen:
                seen_add(match)
                out_append(match)

        self.query_exec.search(tables, delta_atom, since, emit)  # type: ignore[attr-defined]

    def substitution(self, match: MatchTuple) -> Dict[str, Value]:
        """Re-inflate a match tuple into a name-keyed substitution dict."""
        return dict(zip(self.slot_names, match))
