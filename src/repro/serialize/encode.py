"""Codecs between engine objects and snapshot JSON.

Every codec here is a pure bijection on the states the engine can actually
reach, which is what makes save→load→save byte-identical: ``encode(decode(x))
== x`` for every ``x`` a well-formed snapshot contains.

Encodings are deliberately *shape-driven* rather than sort-driven: a value
payload decodes by its JSON shape (int, bool, string, tagged dict), so the
codec needs no sort table and user-registered interpreted sorts serialize
without the core importing them.

Wire shapes:

* value — ``[sort, payload]``; payloads are plain JSON scalars, ``null``
  for Unit, or a tagged object (``{"f": "nan"}`` for non-finite floats,
  ``{"q": "3/2"}`` for rationals, ``{"s": [...]}`` for set values).
* term — ``["v", name]`` / ``["l", value]`` / ``["a", func, [terms...]]``.
* query arg — ``["v", name]`` (variable) or ``["l", value]`` (constant).
* justification — ``[kind, name]``, re-interned on decode.
* action — ``["let"|"union"|"set"|"delete"|"panic"|"expr", ...]``.
* schedule — ``["run", limit, ruleset]`` / ``["seq"|"saturate", [...]]`` /
  ``["repeat", times, [...]]``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Dict, List, Optional

from ..core.proofs import (
    CONGRUENCE,
    EXPLICIT_KIND,
    RULE,
    Justification,
    congruence_justification,
    rule_justification,
)
from ..core.query import Arg, PrimAtom, QVar, Query, TableAtom
from ..core.terms import Term, TermApp, TermLit, TermVar
from ..core.values import Value, f64
from ..engine.actions import Action, Delete, Expr, Let, Panic, Set, Union
from ..engine.schedule import Repeat, Run, Saturate, Schedule, Seq
from .errors import SnapshotError, SnapshotFormatError

Json = Any


def malformed(what: str, obj: Json) -> SnapshotFormatError:
    """The error for a wire shape this codec cannot read."""
    rendered = repr(obj)
    if len(rendered) > 120:
        rendered = rendered[:117] + "..."
    return SnapshotFormatError(f"malformed {what} in snapshot: {rendered}")


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def encode_value(value: Value) -> Json:
    """Encode a runtime value as ``[sort, payload]``."""
    return [value[0], _encode_payload(value[1])]  # type: ignore[index]


def _encode_payload(data: Any) -> Json:
    if data == () and isinstance(data, tuple):
        return None  # Unit
    if isinstance(data, bool):
        return data
    if isinstance(data, int):
        return data
    if isinstance(data, float):
        if math.isnan(data):
            return {"f": "nan"}
        if math.isinf(data):
            return {"f": "inf" if data > 0 else "-inf"}
        return data
    if isinstance(data, str):
        return data
    if isinstance(data, Fraction):
        return {"q": str(data)}
    if isinstance(data, frozenset):
        encoded = [encode_value(item) for item in data]
        # Sets are unordered in memory; a canonical element order makes the
        # encoding deterministic (and therefore digest/byte-identity safe).
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"s": encoded}
    raise SnapshotError(
        f"cannot serialize value payload {data!r} of type {type(data).__name__}"
    )


def decode_value(obj: Json) -> Value:
    """Decode a ``[sort, payload]`` pair back into a :class:`Value`."""
    if not isinstance(obj, list) or len(obj) != 2 or not isinstance(obj[0], str):
        raise malformed("value", obj)
    sort, payload = obj
    return Value(sort, _decode_payload(payload))


def _decode_payload(payload: Json) -> Any:
    if payload is None:
        return ()
    if isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, dict):
        if "f" in payload:
            special = payload["f"]
            if special == "nan":
                # Route through the f64 constructor: every NaN collapses
                # onto the engine's single canonical NaN object.
                return f64(float("nan")).data
            if special in ("inf", "-inf"):
                return float(special)
            raise malformed("float payload", payload)
        if "q" in payload:
            try:
                return Fraction(payload["q"])
            except (ValueError, ZeroDivisionError, TypeError):
                raise malformed("rational payload", payload) from None
        if "s" in payload:
            items = payload["s"]
            if not isinstance(items, list):
                raise malformed("set payload", payload)
            return frozenset(decode_value(item) for item in items)
    raise malformed("value payload", payload)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def encode_term(term: Term) -> Json:
    """Encode a core term (variables, literals, applications)."""
    if isinstance(term, TermVar):
        return ["v", term.name]
    if isinstance(term, TermLit):
        return ["l", encode_value(term.value)]
    if isinstance(term, TermApp):
        return ["a", term.func, [encode_term(arg) for arg in term.args]]
    raise SnapshotError(f"cannot serialize term {term!r}")


def decode_term(obj: Json) -> Term:
    if not isinstance(obj, list) or not obj:
        raise malformed("term", obj)
    tag = obj[0]
    if tag == "v" and len(obj) == 2 and isinstance(obj[1], str):
        return TermVar(obj[1])
    if tag == "l" and len(obj) == 2:
        return TermLit(decode_value(obj[1]))
    if tag == "a" and len(obj) == 3 and isinstance(obj[1], str) and isinstance(obj[2], list):
        return TermApp(obj[1], tuple(decode_term(arg) for arg in obj[2]))
    raise malformed("term", obj)


def decode_call(obj: Json) -> TermApp:
    """Decode a term that must be an application (set/delete targets)."""
    term = decode_term(obj)
    if not isinstance(term, TermApp):
        raise malformed("call term", obj)
    return term


# ---------------------------------------------------------------------------
# Query atoms
# ---------------------------------------------------------------------------


def encode_arg(arg: Arg) -> Json:
    if isinstance(arg, QVar):
        return ["v", arg.name]
    return ["l", encode_value(arg)]


def decode_arg(obj: Json) -> Arg:
    if not isinstance(obj, list) or len(obj) != 2:
        raise malformed("query argument", obj)
    if obj[0] == "v" and isinstance(obj[1], str):
        return QVar(obj[1])
    if obj[0] == "l":
        return decode_value(obj[1])
    raise malformed("query argument", obj)


def encode_query(query: Query) -> Json:
    return {
        "atoms": [
            {
                "func": atom.func,
                "args": [encode_arg(a) for a in atom.args],
                "out": encode_arg(atom.out),
            }
            for atom in query.atoms
        ],
        "prims": [
            {
                "op": prim.op,
                "args": [encode_arg(a) for a in prim.args],
                "out": encode_arg(prim.out) if prim.out is not None else None,
            }
            for prim in query.prims
        ],
    }


def decode_query(obj: Json) -> Query:
    if not isinstance(obj, dict):
        raise malformed("query", obj)
    atoms: List[TableAtom] = []
    for atom in obj.get("atoms", ()):
        if not isinstance(atom, dict) or not isinstance(atom.get("func"), str):
            raise malformed("table atom", atom)
        atoms.append(
            TableAtom(
                atom["func"],
                tuple(decode_arg(a) for a in atom.get("args", ())),
                decode_arg(atom["out"]),
            )
        )
    prims: List[PrimAtom] = []
    for prim in obj.get("prims", ()):
        if not isinstance(prim, dict) or not isinstance(prim.get("op"), str):
            raise malformed("primitive atom", prim)
        out = prim.get("out")
        prims.append(
            PrimAtom(
                prim["op"],
                tuple(decode_arg(a) for a in prim.get("args", ())),
                decode_arg(out) if out is not None else None,
            )
        )
    return Query(atoms=atoms, prims=prims)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def encode_action(action: Action) -> Json:
    if isinstance(action, Let):
        return ["let", action.name, encode_term(action.expr)]
    if isinstance(action, Union):
        return ["union", encode_term(action.lhs), encode_term(action.rhs)]
    if isinstance(action, Set):
        return ["set", encode_term(action.call), encode_term(action.value)]
    if isinstance(action, Delete):
        return ["delete", encode_term(action.call)]
    if isinstance(action, Panic):
        return ["panic", action.message]
    if isinstance(action, Expr):
        return ["expr", encode_term(action.expr)]
    raise SnapshotError(f"cannot serialize action {action!r}")


def decode_action(obj: Json) -> Action:
    if not isinstance(obj, list) or not obj:
        raise malformed("action", obj)
    tag = obj[0]
    if tag == "let" and len(obj) == 3 and isinstance(obj[1], str):
        return Let(obj[1], decode_term(obj[2]))
    if tag == "union" and len(obj) == 3:
        return Union(decode_term(obj[1]), decode_term(obj[2]))
    if tag == "set" and len(obj) == 3:
        return Set(decode_call(obj[1]), decode_term(obj[2]))
    if tag == "delete" and len(obj) == 2:
        return Delete(decode_call(obj[1]))
    if tag == "panic" and len(obj) == 2 and isinstance(obj[1], str):
        return Panic(obj[1])
    if tag == "expr" and len(obj) == 2:
        return Expr(decode_term(obj[1]))
    raise malformed("action", obj)


# ---------------------------------------------------------------------------
# Justifications (proof forest edges)
# ---------------------------------------------------------------------------


def encode_justification(just: Optional[Justification]) -> Json:
    if just is None:
        return None
    return [just.kind, just.name]


def decode_justification(obj: Json) -> Optional[Justification]:
    if obj is None:
        return None
    if not isinstance(obj, list) or len(obj) != 2 or not isinstance(obj[1], str):
        raise malformed("justification", obj)
    kind, name = obj
    # Re-intern through the same caches live unions use, so a loaded
    # forest and freshly recorded edges share objects.
    if kind == RULE:
        return rule_justification(name)
    if kind == CONGRUENCE:
        return congruence_justification(name)
    if kind == EXPLICIT_KIND:
        return Justification(EXPLICIT_KIND, name)
    raise malformed("justification", obj)


# ---------------------------------------------------------------------------
# Schedules (bench replay)
# ---------------------------------------------------------------------------


def encode_schedule(schedule: Schedule) -> Json:
    if isinstance(schedule, Run):
        return ["run", schedule.limit, schedule.ruleset]
    if isinstance(schedule, Seq):
        return ["seq", [encode_schedule(s) for s in schedule.schedules]]
    if isinstance(schedule, Repeat):
        return ["repeat", schedule.times, [encode_schedule(s) for s in schedule.schedules]]
    if isinstance(schedule, Saturate):
        return ["saturate", [encode_schedule(s) for s in schedule.schedules]]
    raise SnapshotError(f"cannot serialize schedule {schedule!r}")


def decode_schedule(obj: Json) -> Schedule:
    if not isinstance(obj, list) or not obj:
        raise malformed("schedule", obj)
    tag = obj[0]
    if tag == "run" and len(obj) == 3 and isinstance(obj[1], int) and isinstance(obj[2], str):
        return Run(obj[1], obj[2])
    if tag in ("seq", "saturate") and len(obj) == 2 and isinstance(obj[1], list):
        body = tuple(decode_schedule(s) for s in obj[1])
        return Seq(body) if tag == "seq" else Saturate(body)
    if tag == "repeat" and len(obj) == 3 and isinstance(obj[1], int) and isinstance(obj[2], list):
        return Repeat(obj[1], tuple(decode_schedule(s) for s in obj[2]))
    raise malformed("schedule", obj)


# ---------------------------------------------------------------------------
# Shared shape helpers
# ---------------------------------------------------------------------------


def require(obj: Json, key: str, kind: type, what: str) -> Any:
    """Fetch ``obj[key]`` checking its JSON type; located format errors."""
    if not isinstance(obj, dict) or key not in obj:
        raise SnapshotFormatError(f"snapshot {what} is missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise SnapshotFormatError(
            f"snapshot {what}: key {key!r} should be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def encode_values(values: Dict[str, Value]) -> Json:
    """Encode a name→value mapping as ordered ``[name, value]`` pairs."""
    return [[name, encode_value(value)] for name, value in values.items()]


def decode_values(obj: Json, what: str) -> Dict[str, Value]:
    if not isinstance(obj, list):
        raise malformed(what, obj)
    out: Dict[str, Value] = {}
    for pair in obj:
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise malformed(what, pair)
        out[pair[0]] = decode_value(pair[1])
    return out
