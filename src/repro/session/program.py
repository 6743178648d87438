"""JSON-encoded session programs: a second syntax for the `.egg` commands.

A program is a JSON array of **ops**, each a ``{"op": ...}`` object
(docs/SERVER.md § JSON programs lists them and their fields).  Each op
decodes into the command record its `.egg` twin parses into
(:mod:`repro.frontend.parser`), and each wire term into the s-expression
its `.egg` spelling reads as: ``["v", name]`` is a symbol,
``["l", [sort, payload]]`` a literal, ``["a", func, [args...]]`` a call.
The session's :class:`~repro.frontend.evaluator.Evaluator` then runs both
surfaces through one loop and one lowering, with the same checks, globals,
budgets and fault points; this module only decodes ops and encodes their
results.  ``check`` answers ``{"ok": false, "count": 0}`` instead of
failing — a query API wants to *ask*, not crash — while malformed ops and
failing commands raise :class:`~repro.session.errors.ProgramError` naming
the op index (HTTP 422 at the server).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..core.schema import RunReport
from ..core.terms import term_depth
from ..core.values import Value, f64, i64, string
from ..frontend import parser as egg
from ..frontend.errors import EvalError, FrontendError, ParseError
from ..frontend.printer import format_term
from ..frontend.sexp import Literal, Sexp, SList, Symbol
from ..serialize import SnapshotError
from ..serialize.encode import decode_value, encode_term, encode_value, malformed
from .errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..frontend.evaluator import Evaluator

Json = Any
Op = Dict[str, Json]


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


# -- decoding: fields ------------------------------------------------------------


def _str(op: Op, key: str, default: Optional[str] = None) -> str:
    value = op.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"field {key!r} must be a string, got {value!r}")
    return value


def _opt_str(op: Op, key: str) -> Optional[str]:
    return None if op.get(key) is None else _str(op, key)


def _opt_int(op: Op, key: str, default: Optional[int] = None) -> Optional[int]:
    value = op.get(key)
    if value is None:
        return default
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"field {key!r} must be a non-negative integer, got {value!r}")
    return value


def _sort_list(op: Op, key: str = "args") -> Tuple[str, ...]:
    value = op.get(key, [])
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"field {key!r} must be a list of sort names, got {value!r}")
    return tuple(value)


def _list(op: Op, key: str, what: str) -> List[Json]:
    value = op.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} must be {what}, got {value!r}")
    return value


# -- decoding: wire shapes to `.egg` s-expressions --------------------------------


def _call(head: str, *items: Sexp) -> SList:
    return SList(None, (Symbol(None, head), *items))


def _tagged(payload: Json, tag: str) -> bool:
    return type(payload) is dict and payload.keys() == {tag}


#: The payload shape of each primitive sort's wire literal.  Eq-sorts have
#: no literals: an e-class id on the wire could name any class of any sort.
_SHAPES: Dict[str, Callable[[Json], bool]] = {
    "i64": lambda payload: type(payload) is int,
    "f64": lambda payload: type(payload) in (int, float) or _tagged(payload, "f"),
    "String": lambda payload: type(payload) is str,
    "bool": lambda payload: type(payload) is bool,
    "Rational": lambda payload: _tagged(payload, "q"),
    "Unit": lambda payload: payload is None,
    "Set": lambda payload: _tagged(payload, "s")
    and all(item[0] in _SHAPES and _SHAPES[item[0]](item[1]) for item in payload["s"]),
}


def _literal(obj: Json) -> Value:
    """A wire literal ``[sort, payload]``, refused unless its sort is
    primitive and its payload has that sort's shape."""
    value = decode_value(obj)  # a malformed pair or tagged payload raises here
    shape = _SHAPES.get(value.sort)
    if shape is None:
        raise ParseError(
            f"no literals of sort {value.sort!r}: only {', '.join(_SHAPES)} have them; "
            f"e-class ids come only from terms and globals"
        )
    if not shape(obj[1]):
        raise ParseError(f"malformed {value.sort} literal {obj[1]!r}")
    # f64() collapses NaNs onto the engine's one NaN and -0.0 onto 0.0.
    return f64(value.data) if type(value.data) is float else value


def _sexp(obj: Json) -> Sexp:
    """A wire term as the s-expression its `.egg` spelling reads as."""
    if type(obj) is list and obj:
        tag = obj[0]
        if tag == "a" and len(obj) == 3 and type(obj[1]) is str and type(obj[2]) is list:
            return SList(None, (Symbol(None, obj[1]), *map(_sexp, obj[2])))
        if tag == "l" and len(obj) == 2:
            return Literal(None, _literal(obj[1]))
        if tag == "v" and len(obj) == 2 and type(obj[1]) is str:
            return Symbol(None, obj[1])
    raise malformed("term", obj)


def _fact(obj: Json) -> Sexp:
    if type(obj) is list and len(obj) == 3 and obj[0] == "=":
        return _call("=", _sexp(obj[1]), _sexp(obj[2]))
    return _sexp(obj)


def _facts(op: Op, key: str = "facts") -> Tuple[Sexp, ...]:
    return tuple(map(_fact, _list(op, key, "a list of facts")))


def _action(obj: Json) -> Sexp:
    if type(obj) is list and obj:
        tag = obj[0]
        size = len(obj)
        if tag == "let" and size == 3 and isinstance(obj[1], str):
            return _call("let", Symbol(None, obj[1]), _sexp(obj[2]))
        if tag in ("union", "set") and size == 3:
            return _call(tag, _sexp(obj[1]), _sexp(obj[2]))
        if tag == "delete" and size == 2:
            return _call("delete", _sexp(obj[1]))
        if tag == "panic" and size == 2 and isinstance(obj[1], str):
            return _call("panic", Literal(None, string(obj[1])))
        if tag == "expr" and size == 2:
            return _sexp(obj[1])
    raise malformed("action", obj)


def _schedule(obj: Json) -> Sexp:
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], str):
        raise ParseError(f"malformed schedule {obj!r}")
    head, rest = obj[0], obj[1:]
    if head == "run":
        limit = rest[0] if rest else 1
        ruleset = rest[1] if len(rest) > 1 else ""
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ParseError(f"schedule run limit must be a positive int, got {limit!r}")
        if not isinstance(ruleset, str):
            raise ParseError(f"schedule ruleset must be a string, got {ruleset!r}")
        option = (Symbol(None, ":ruleset"), Symbol(None, ruleset)) if ruleset else ()
        return _call("run", Literal(None, i64(limit)), *option)
    if head in ("saturate", "seq"):
        return _call(head, *map(_schedule, rest))
    if head == "repeat":
        if not rest or not isinstance(rest[0], int) or isinstance(rest[0], bool):
            raise ParseError(f"schedule repeat needs an integer count, got {obj!r}")
        return _call("repeat", Literal(None, i64(rest[0])), *map(_schedule, rest[1:]))
    raise ParseError(f"unknown schedule head {head!r}")


# -- decoding: ops to command records ---------------------------------------------


def _function(op: Op) -> egg.FunctionCmd:
    merge = op.get("merge")
    if merge is not None and not isinstance(merge, str):
        raise ParseError(f"field 'merge' must be a string, got {merge!r}")
    name = _str(op, "name")
    args = _sort_list(op)
    out = _str(op, "out")
    default = op.get("default")
    default_sexp = None if default is None else Literal(None, _literal(default))
    cost = _opt_int(op, "cost", 1)  # the engine rejects costs below 1
    unextractable = bool(op.get("unextractable", False))
    return egg.FunctionCmd(None, name, args, out, merge, default_sexp, cost, unextractable)


def _rule(op: Op) -> egg.RuleCmd:
    actions = _list(op, "actions", "a list")
    facts = _facts(op)
    decoded = tuple(map(_action, actions))
    return egg.RuleCmd(None, facts, decoded, _opt_str(op, "name"), _str(op, "ruleset", ""))


def _rewrite(op: Op) -> egg.RewriteCmd:
    lhs = _sexp(op["lhs"])
    rhs = _sexp(op["rhs"])
    conditions = _facts(op, "conditions")
    ruleset = _str(op, "ruleset", "")
    bidirectional = bool(op.get("bidirectional", False))
    return egg.RewriteCmd(None, lhs, rhs, conditions, _opt_str(op, "name"), ruleset, bidirectional)


def _run(op: Op) -> egg.RunCmd:
    limit = _opt_int(op, "limit", 1)
    return egg.RunCmd(None, limit, _str(op, "ruleset", ""), *_budget_fields(op))


def _run_schedule(op: Op) -> egg.RunScheduleCmd:
    schedules = op.get("schedules")
    if not isinstance(schedules, list) or not schedules:
        raise ParseError("field 'schedules' must be a non-empty list")
    return egg.RunScheduleCmd(None, tuple(map(_schedule, schedules)), *_budget_fields(op))


def _budget_fields(op: Op) -> Tuple[Optional[int], Optional[int]]:
    return _opt_int(op, "deadline_ms"), _opt_int(op, "max_nodes")


def _check(op: Op) -> egg.CheckCmd:
    facts = _facts(op)
    if not facts:
        raise ParseError("check needs at least one fact")
    return egg.CheckCmd(None, facts)


# -- encoding: command results to result objects ----------------------------------


def _extracted(_op: Op, result: Tuple[int, Any]) -> Json:
    cost, best = result
    try:
        encoded = encode_term(best)
        # The response carries ``encoded`` as JSON, and ``json.dumps``
        # refuses nesting past the recursion limit just as encoding does.
        json.dumps(encoded)
    except RecursionError:
        raise EvalError(
            f"the extracted term is {term_depth(best)} levels deep, too deep "
            f"for the JSON wire form; /egg prints it"
        ) from None
    return {"cost": cost, "term": format_term(best), "encoded": encoded}


def _explained(_op: Op, result: Tuple[Any, Any, Any]) -> Json:
    explanation = result[2]
    steps = [
        {"lhs": s.lhs, "rhs": s.rhs, "kind": s.justification.kind, "name": s.justification.name}
        for s in explanation.steps
    ]
    return {"sort": explanation.sort, "lhs": explanation.lhs, "rhs": explanation.rhs, "steps": steps}


def _declared(op: Op, _result: None) -> Json:
    return {"declared": op["name"]}


def _value(_op: Op, value: Value) -> Json:
    return {"value": encode_value(value)}


def _report(_op: Op, report: RunReport) -> Json:
    return {"report": report_json(report)}


#: Per op: its decoder (op object -> command record) and its encoder (op
#: object and the command's result -> result object).
_OPS: Dict[str, Tuple[Callable[[Op], egg.Command], Callable[[Op, Any], Json]]] = {
    "sort": (lambda op: egg.SortCmd(None, _str(op, "name")), _declared),
    "relation": (lambda op: egg.RelationCmd(None, _str(op, "name"), _sort_list(op)), _declared),
    "function": (_function, _declared),
    "constructor": (
        lambda op: egg.ConstructorCmd(
            None, _str(op, "name"), _sort_list(op), _str(op, "out"), _opt_int(op, "cost", 1)
        ),
        _declared,
    ),
    "rule": (_rule, lambda _op, name: {"rule": name}),
    "rewrite": (_rewrite, lambda _op, names: {"rules": names}),
    "let": (
        lambda op: egg.LetCmd(None, _str(op, "name"), _sexp(op["term"])),
        lambda op, value: {"let": op["name"], "value": encode_value(value)},
    ),
    "add": (lambda op: egg.AddCmd(None, _sexp(op["term"])), _value),
    "union": (lambda op: egg.UnionCmd(None, _sexp(op["lhs"]), _sexp(op["rhs"])), _value),
    "run": (_run, _report),
    "run-schedule": (_run_schedule, _report),
    "check": (_check, lambda _op, result: {"ok": result[0] > 0, "count": result[0]}),
    "extract": (lambda op: egg.ExtractCmd(None, _sexp(op["term"])), _extracted),
    "explain": (lambda op: egg.ExplainCmd(None, _sexp(op["lhs"]), _sexp(op["rhs"])), _explained),
    "stats": (lambda op: egg.StatsCmd(None), lambda _op, stats: stats),
}


def _kind(op: Json) -> Optional[str]:
    """The op's kind when it names a row of :data:`_OPS`, else None."""
    kind = op.get("op") if isinstance(op, dict) else None
    return kind if isinstance(kind, str) and kind in _OPS else None


def _decode(op: Json) -> egg.Command:
    if not isinstance(op, dict):
        raise ParseError(f"expected an object, got {op!r}")
    kind = _kind(op)
    if kind is None:
        raise ParseError(f"unknown op {op.get('op')!r} (known: {', '.join(sorted(_OPS))})")
    try:
        return _OPS[kind][0](op)
    except KeyError as error:  # a required field is missing
        raise ParseError(str(error)) from None


def run_ops(
    evaluator: "Evaluator",
    ops: Json,
    *,
    deadline_ms: Optional[int] = None,
    max_nodes: Optional[int] = None,
) -> List[Json]:
    """Run a JSON program through ``evaluator``; one result object per op.

    The program shares the evaluator's engine and global ``let``
    environment with the ``.egg`` surface.  ``deadline_ms``/``max_nodes``
    are request-level budgets for ``run``/``run-schedule`` ops that carry
    none of their own.  Raises :class:`ProgramError` on the first malformed
    or failing op, naming its index.  Ops apply as they run; the session
    layer's transactional batches (:meth:`Session.run_program`) roll a
    failed program back to its pre-batch state — call ``run_ops`` directly
    only when partial application is acceptable.
    """
    if not isinstance(ops, list):
        raise ProgramError(f"a program must be a JSON array of ops, got {ops!r}")
    results: List[Json] = []
    try:
        for _command, result in evaluator.run_commands(
            ops, "batch.op", _decode, deadline_ms=deadline_ms, max_nodes=max_nodes
        ):
            op = ops[len(results)]
            results.append(_OPS[op["op"]][1](op, result))
    except (FrontendError, SnapshotError) as error:
        index = len(results)
        kind = _kind(ops[index])
        raise ProgramError(f"op {index}{f' ({kind})' if kind else ''}: {error}") from error
    return results
