"""JSON-encoded session programs: the DSL surface of the wire protocol.

A program is a JSON array of **ops** — each a ``{"op": ...}`` object — run
in order against one session's engine.  Terms, values, and actions reuse the
``repro.snapshot/v1`` wire shapes (:mod:`repro.serialize.encode`): a term is
``["v", name]`` / ``["l", [sort, payload]]`` / ``["a", func, [args...]]``,
an action is ``["let"|"union"|"set"|"delete"|"panic"|"expr", ...]``.  A fact
is a term (a truthy pattern) or ``["=", term, term]`` (an equality fact).

Ops::

    {"op": "sort",        "name": s}
    {"op": "relation",    "name": f, "args": [sorts...]}
    {"op": "function",    "name": f, "args": [...], "out": s,
                          "merge": "union"|"error"|<primitive>,   # optional
                          "default": [sort, payload],             # optional
                          "cost": n}                              # optional
    {"op": "constructor", "name": f, "args": [...], "out": s, "cost": n}
    {"op": "rule",        "facts": [...], "actions": [...],
                          "name": s, "ruleset": s}                # both optional
    {"op": "rewrite",     "lhs": t, "rhs": t, "conditions": [...],
                          "name": s, "ruleset": s, "bidirectional": b}
    {"op": "let",         "name": s, "term": t}
    {"op": "add",         "term": t}
    {"op": "union",       "lhs": t, "rhs": t}
    {"op": "run",         "limit": n, "ruleset": s,
                          "deadline_ms": n, "max_nodes": n}       # optional
    {"op": "run-schedule","schedules": [sched...],
                          "deadline_ms": n, "max_nodes": n}       # optional
    {"op": "check",       "facts": [...]}
    {"op": "extract",     "term": t}
    {"op": "explain",     "lhs": t, "rhs": t}
    {"op": "stats"}

A schedule is ``["run", limit, ruleset?]``, ``["saturate", sched...]``,
``["seq", sched...]``, or ``["repeat", n, sched...]``.

Programs share the session's global ``let`` environment with the ``.egg``
surface: a ``["v", name]`` naming a global is inlined as a literal wherever
it appears (same binding rule the evaluator applies), and ``{"op": "let"}``
adds a binding later ``.egg`` batches can see.

Each op produces one JSON result object (in program order).  ``check``
reports ``{"ok": false, "count": 0}`` instead of failing the program — a
query API wants to *ask*, not crash — while malformed ops and engine errors
raise :class:`~repro.session.errors.ProgramError` naming the op index
(HTTP 422 at the server).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..core.schema import RunReport
from ..core.terms import Term, TermApp, TermLit, TermVar, term_depth
from ..core.values import Value
from ..engine.actions import Action, Delete, Expr, Let, Set, Union
from ..engine.errors import CheckError, EGraphError
from ..engine.rule import EqFact, Fact, Rule
from ..engine.schedule import Repeat, Run, Saturate, Schedule, Seq
from ..frontend.printer import format_term
from ..serialize import SnapshotError
from ..serialize.encode import (
    decode_action,
    decode_term,
    decode_value,
    encode_term,
    encode_value,
)
from ..testing.faults import trip
from .errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine.egraph import EGraph

Json = Any


class _Ctx:
    """One program run: the target engine plus the session's global env."""

    __slots__ = ("engine", "env", "default_deadline_ms", "default_max_nodes")

    def __init__(
        self,
        engine: "EGraph",
        env: Dict[str, Value],
        default_deadline_ms: Optional[int] = None,
        default_max_nodes: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.env = env
        self.default_deadline_ms = default_deadline_ms
        self.default_max_nodes = default_max_nodes


def report_json(report: RunReport) -> Dict[str, Json]:
    """A :class:`RunReport` as the wire dict every run-style result carries."""
    return {
        "iterations": report.iterations,
        "matches": report.num_matches,
        "saturated": report.saturated,
        "stopped_reason": report.stopped_reason,
        "updated": report.updated,
        "search_s": report.search_time,
        "apply_s": report.apply_time,
        "rebuild_s": report.rebuild_time,
    }


def _str(op: Dict[str, Json], key: str, default: Optional[str] = None) -> str:
    value = op.get(key, default)
    if not isinstance(value, str):
        raise ProgramError(f"field {key!r} must be a string, got {value!r}")
    return value


def _opt_int(op: Dict[str, Json], key: str) -> Optional[int]:
    value = op.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProgramError(f"field {key!r} must be a non-negative integer, got {value!r}")
    return value


def _cost(op: Dict[str, Json]) -> int:
    """The optional ``cost`` field; the engine rejects values below 1."""
    cost = _opt_int(op, "cost")
    return 1 if cost is None else cost


def _sort_list(op: Dict[str, Json], key: str) -> List[str]:
    value = op.get(key, [])
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ProgramError(f"field {key!r} must be a list of sort names, got {value!r}")
    return value


def _inline(term: Term, env: Dict[str, Value]) -> Term:
    """Replace variables naming global bindings with literals (the .egg rule)."""
    if isinstance(term, TermVar) and term.name in env:
        return TermLit(env[term.name])
    if isinstance(term, TermApp):
        return TermApp(term.func, tuple(_inline(arg, env) for arg in term.args))
    return term


def _inline_action(action: Action, env: Dict[str, Value]) -> Action:
    if isinstance(action, Let):
        return Let(action.name, _inline(action.expr, env))
    if isinstance(action, Union):
        return Union(_inline(action.lhs, env), _inline(action.rhs, env))
    if isinstance(action, Set):
        call = _inline(action.call, env)
        assert isinstance(call, TermApp)
        return Set(call, _inline(action.value, env))
    if isinstance(action, Delete):
        call = _inline(action.call, env)
        assert isinstance(call, TermApp)
        return Delete(call)
    if isinstance(action, Expr):
        return Expr(_inline(action.expr, env))
    return action


def _term(ctx: _Ctx, obj: Json) -> Term:
    return _inline(decode_term(obj), ctx.env)


def _fact(ctx: _Ctx, obj: Json) -> Fact:
    if isinstance(obj, list) and len(obj) == 3 and obj[0] == "=":
        return EqFact(_term(ctx, obj[1]), _term(ctx, obj[2]))
    return _term(ctx, obj)


def _facts(ctx: _Ctx, op: Dict[str, Json], key: str = "facts") -> List[Fact]:
    value = op.get(key, [])
    if not isinstance(value, list):
        raise ProgramError(f"field {key!r} must be a list of facts, got {value!r}")
    return [_fact(ctx, obj) for obj in value]


def _schedule(obj: Json) -> Schedule:
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], str):
        raise ProgramError(f"malformed schedule {obj!r}")
    head, rest = obj[0], obj[1:]
    if head == "run":
        limit = rest[0] if rest else 1
        ruleset = rest[1] if len(rest) > 1 else ""
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ProgramError(f"schedule run limit must be a positive int, got {limit!r}")
        if not isinstance(ruleset, str):
            raise ProgramError(f"schedule ruleset must be a string, got {ruleset!r}")
        return Run(limit, ruleset)
    if head == "saturate":
        return Saturate(tuple(_schedule(s) for s in rest) or (Run(),))
    if head == "seq":
        return Seq(tuple(_schedule(s) for s in rest))
    if head == "repeat":
        if not rest or not isinstance(rest[0], int) or isinstance(rest[0], bool):
            raise ProgramError(f"schedule repeat needs an integer count, got {obj!r}")
        return Repeat(rest[0], tuple(_schedule(s) for s in rest[1:]) or (Run(),))
    raise ProgramError(f"unknown schedule head {head!r}")


def _budget_kwargs(ctx: _Ctx, op: Dict[str, Json]) -> Dict[str, Json]:
    """An op's run budgets, falling back to the request-level defaults."""
    deadline_ms = _opt_int(op, "deadline_ms")
    if deadline_ms is None:
        deadline_ms = ctx.default_deadline_ms
    max_nodes = _opt_int(op, "max_nodes")
    if max_nodes is None:
        max_nodes = ctx.default_max_nodes
    return {
        "deadline_s": deadline_ms / 1000.0 if deadline_ms is not None else None,
        "max_nodes": max_nodes,
    }


# -- op handlers --------------------------------------------------------------


def _op_sort(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    ctx.engine.declare_sort(_str(op, "name"))
    return {"declared": op["name"]}


def _op_relation(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    ctx.engine.relation(_str(op, "name"), _sort_list(op, "args"))
    return {"declared": op["name"]}


def _op_function(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    merge = op.get("merge")
    if merge is not None and not isinstance(merge, str):
        raise ProgramError(f"field 'merge' must be a string, got {merge!r}")
    default = op.get("default")
    ctx.engine.function(
        _str(op, "name"),
        _sort_list(op, "args"),
        _str(op, "out"),
        merge=merge,
        default=decode_value(default) if default is not None else None,
        cost=_cost(op),
        unextractable=bool(op.get("unextractable", False)),
    )
    return {"declared": op["name"]}


def _op_constructor(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    ctx.engine.constructor(
        _str(op, "name"),
        _sort_list(op, "args"),
        _str(op, "out"),
        cost=_cost(op),
    )
    return {"declared": op["name"]}


def _op_rule(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    actions = op.get("actions", [])
    if not isinstance(actions, list):
        raise ProgramError(f"field 'actions' must be a list, got {actions!r}")
    name = ctx.engine.add_rule(
        Rule(
            facts=_facts(ctx, op),
            actions=[_inline_action(decode_action(obj), ctx.env) for obj in actions],
            name=op.get("name"),
            ruleset=_str(op, "ruleset", ""),
        )
    )
    return {"rule": name}


def _op_rewrite(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    names = ctx.engine.add_rewrite(
        _term(ctx, op["lhs"]),
        _term(ctx, op["rhs"]),
        conditions=_facts(ctx, op, "conditions"),
        name=op.get("name"),
        ruleset=_str(op, "ruleset", ""),
        bidirectional=bool(op.get("bidirectional", False)),
    )
    return {"rules": names}


def _op_let(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    name = _str(op, "name")
    value = ctx.engine.add(_term(ctx, op["term"]))
    ctx.env[name] = value
    return {"let": name, "value": encode_value(value)}


def _op_add(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    return {"value": encode_value(ctx.engine.add(_term(ctx, op["term"])))}


def _op_union(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    value = ctx.engine.union(_term(ctx, op["lhs"]), _term(ctx, op["rhs"]))
    return {"value": encode_value(value)}


def _op_run(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    limit = _opt_int(op, "limit")
    report = ctx.engine.run(
        limit if limit is not None else 1,
        ruleset=_str(op, "ruleset", ""),
        **_budget_kwargs(ctx, op),
    )
    return {"report": report_json(report)}


def _op_run_schedule(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    schedules = op.get("schedules")
    if not isinstance(schedules, list) or not schedules:
        raise ProgramError("field 'schedules' must be a non-empty list")
    report = ctx.engine.run_schedule(
        *(_schedule(s) for s in schedules), **_budget_kwargs(ctx, op)
    )
    return {"report": report_json(report)}


def _op_check(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    facts = _facts(ctx, op)
    if not facts:
        raise ProgramError("check needs at least one fact")
    try:
        count = ctx.engine.check(*facts)
    except CheckError:
        return {"ok": False, "count": 0}
    return {"ok": True, "count": count}


def _op_extract(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    cost, best = ctx.engine.extract_with_cost(_term(ctx, op["term"]))
    try:
        encoded = encode_term(best)
        # The response carries ``encoded`` as JSON, and ``json.dumps``
        # refuses nesting past the recursion limit just as encoding does.
        json.dumps(encoded)
    except RecursionError:
        raise ProgramError(
            f"the extracted term is {term_depth(best)} levels deep, too deep "
            f"for the JSON wire form; /egg prints it"
        ) from None
    return {"cost": cost, "term": format_term(best), "encoded": encoded}


def _op_explain(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    explanation = ctx.engine.explain(_term(ctx, op["lhs"]), _term(ctx, op["rhs"]))
    return {
        "sort": explanation.sort,
        "lhs": explanation.lhs,
        "rhs": explanation.rhs,
        "steps": [
            {
                "lhs": step.lhs,
                "rhs": step.rhs,
                "kind": step.justification.kind,
                "name": step.justification.name,
            }
            for step in explanation.steps
        ],
    }


def _op_stats(ctx: _Ctx, op: Dict[str, Json]) -> Json:
    return ctx.engine.stats()


_OPS: Dict[str, Callable[[_Ctx, Dict[str, Json]], Json]] = {
    "sort": _op_sort,
    "relation": _op_relation,
    "function": _op_function,
    "constructor": _op_constructor,
    "rule": _op_rule,
    "rewrite": _op_rewrite,
    "let": _op_let,
    "add": _op_add,
    "union": _op_union,
    "run": _op_run,
    "run-schedule": _op_run_schedule,
    "check": _op_check,
    "extract": _op_extract,
    "explain": _op_explain,
    "stats": _op_stats,
}


def run_ops(
    engine: "EGraph",
    ops: Json,
    env: Optional[Dict[str, Value]] = None,
    *,
    default_deadline_ms: Optional[int] = None,
    default_max_nodes: Optional[int] = None,
) -> List[Json]:
    """Run a JSON program against ``engine``; one result object per op.

    ``env`` is the session's global ``let`` environment — shared with the
    ``.egg`` surface, mutated in place by ``let`` ops.
    ``default_deadline_ms``/``default_max_nodes`` are request-level budgets
    applied to ``run``/``run-schedule`` ops that carry none of their own.
    Raises :class:`ProgramError` on the first malformed or failing op,
    naming its index.  This function applies ops as it goes; the session
    layer's transactional batches (:meth:`Session.run_program`) roll a
    failed program back to its pre-batch state — call ``run_ops`` directly
    only when partial application is acceptable.
    """
    if not isinstance(ops, list):
        raise ProgramError(f"a program must be a JSON array of ops, got {ops!r}")
    ctx = _Ctx(
        engine, env if env is not None else {}, default_deadline_ms, default_max_nodes
    )
    results: List[Json] = []
    for index, op in enumerate(ops):
        if not isinstance(op, dict):
            raise ProgramError(f"op {index}: expected an object, got {op!r}")
        kind = op.get("op")
        handler = _OPS.get(kind) if isinstance(kind, str) else None
        if handler is None:
            known = ", ".join(sorted(_OPS))
            raise ProgramError(f"op {index}: unknown op {kind!r} (known: {known})")
        # Fault-injection point for the durability tests: an exception
        # "between ops" must behave exactly like a failing op.
        trip("batch.op", tag=index)
        try:
            results.append(handler(ctx, op))
        except ProgramError as error:
            raise ProgramError(f"op {index} ({kind}): {error}") from None
        except (EGraphError, SnapshotError, KeyError, TypeError, ValueError) as error:
            raise ProgramError(f"op {index} ({kind}): {error}") from error
    return results
