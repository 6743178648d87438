"""Built-in primitive sorts and operations.

egglog's base types (Section 5.2) are interpreted: their values are ordinary
constants that are only equal to themselves, and a library of primitive
operations computes over them.  Primitives appear both in rule queries (as
guards and binders, e.g. ``(!= x y)`` or ``(= z (+ x y))``) and in actions
(e.g. ``(set (path x z) (+ xy yz))``).

The registry supports overloading: a primitive name maps to a list of
candidate implementations tried in order; the first one that accepts the
argument sorts and succeeds wins.  A primitive returns ``None`` to signal
"not applicable / fails", which makes the enclosing query match fail (or the
enclosing action raise).  An arithmetic or value error inside a primitive
body, and an ``i64`` result outside the 64-bit range [-2^63, 2^63), count as
that primitive failing too.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .values import (
    BOOL,
    F64,
    I64,
    RATIONAL,
    STRING,
    UNIT,
    UNIT_VALUE,
    Value,
    boolean,
    f64,
    i64,
    rational_from_fraction,
    string,
)

SET = "Set"

#: The range of the paper's 64-bit ``i64``; results outside it fail.
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


@dataclass
class Primitive:
    """One overload of a primitive operation."""

    name: str
    arg_sorts: Optional[Tuple[str, ...]]  # None means "any arity / any sorts"
    out_sort: str
    fn: Callable[..., Optional[Value]]

    def accepts(self, args: Sequence[Value]) -> bool:
        if self.arg_sorts is None:
            return True
        if len(self.arg_sorts) != len(args):
            return False
        return all(
            expected in ("any", arg.sort) for expected, arg in zip(self.arg_sorts, args)
        )


class PrimitiveError(Exception):
    """Raised when a primitive is applied to unsupported arguments."""


def _binds(fn: Callable[..., object], n_args: int) -> bool:
    """True iff ``fn`` accepts ``n_args`` positional arguments."""
    try:
        inspect.signature(fn).bind(*([None] * n_args))
        return True
    except TypeError:
        return False


class PrimitiveRegistry:
    """Registry of primitive operations, supporting overloads."""

    def __init__(self) -> None:
        self._prims: Dict[str, List[Primitive]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone counter bumped on every :meth:`register`.

        Compiled query plans capture primitive lookups from this registry;
        the process-level plan cache (:mod:`repro.engine.compilecache`) keys
        on this counter so registering a new overload invalidates plans that
        might have scheduled the old resolution.
        """
        return self._version

    def register(
        self,
        name: str,
        fn: Callable[..., Optional[Value]],
        arg_sorts: Optional[Sequence[str]] = None,
        out_sort: str = "any",
    ) -> None:
        prim = Primitive(name, tuple(arg_sorts) if arg_sorts is not None else None, out_sort, fn)
        self._prims.setdefault(name, []).append(prim)
        self._version += 1

    def __contains__(self, name: str) -> bool:
        return name in self._prims

    def overloads(self, name: str) -> List[Primitive]:
        return self._prims.get(name, [])

    def call(self, name: str, args: Sequence[Value]) -> Optional[Value]:
        """Apply primitive ``name``; return None if no overload applies."""
        for prim in self._prims.get(name, []):
            if prim.accepts(args):
                try:
                    result = prim.fn(*args)
                except (ArithmeticError, ValueError):
                    continue  # overflow, division by zero, a bad conversion
                except TypeError:
                    # A sort-agnostic overload declares no arity; skip it as
                    # "not applicable" when the call itself cannot bind, but
                    # keep genuine TypeErrors from inside the body loud.
                    if prim.arg_sorts is None and not _binds(prim.fn, len(args)):
                        continue
                    raise
                if result is not None and (result[0] != I64 or I64_MIN <= result[1] <= I64_MAX):
                    return result
        return None

    def result_sort(self, name: str, arg_sorts: Sequence[str]) -> Optional[str]:
        """Best-effort output sort for typechecking in the language layer."""
        candidates = self._prims.get(name, [])
        for prim in candidates:
            if prim.arg_sorts is None:
                continue
            if len(prim.arg_sorts) == len(arg_sorts) and all(
                e in ("any", a) for e, a in zip(prim.arg_sorts, arg_sorts)
            ):
                return prim.out_sort if prim.out_sort != "any" else None
        if candidates:
            out = candidates[0].out_sort
            return out if out != "any" else None
        return None


# ---------------------------------------------------------------------------
# Implementations
# ---------------------------------------------------------------------------


def _numeric(value: Value):
    return value.data


def _wrap_like(sort: str, payload) -> Value:
    if sort == I64:
        return i64(int(payload))
    if sort == F64:
        return f64(float(payload))
    if sort == RATIONAL:
        return rational_from_fraction(Fraction(payload))
    raise PrimitiveError(f"cannot wrap {payload!r} as {sort}")


def _binop(op: Callable[[object, object], object]):
    def impl(a: Value, b: Value) -> Optional[Value]:
        if a.sort != b.sort:
            return None
        return _wrap_like(a.sort, op(_numeric(a), _numeric(b)))

    return impl


def _shift_left(x: int, count: int) -> int:
    # Refused before shifting: ``1 << 2**40`` would ask for a 2^40-bit int.
    if not 0 <= count < 64:
        raise ValueError(f"shift count {count} outside 0-63")
    return x << count


def _cmp(op: Callable[[object, object], bool]):
    def impl(a: Value, b: Value) -> Optional[Value]:
        if a.sort != b.sort:
            return None
        return boolean(op(a.data, b.data))

    return impl


def default_registry() -> PrimitiveRegistry:
    """Build the default primitive registry used by every engine."""
    reg = PrimitiveRegistry()
    numeric_sorts = (I64, F64, RATIONAL)

    # -- arithmetic ---------------------------------------------------------
    for sort in numeric_sorts:
        two = (sort, sort)
        reg.register("+", _binop(lambda x, y: x + y), two, sort)
        reg.register("-", _binop(lambda x, y: x - y), two, sort)
        reg.register("*", _binop(lambda x, y: x * y), two, sort)
        reg.register("min", _binop(min), two, sort)
        reg.register("max", _binop(max), two, sort)

    reg.register("/", _binop(lambda x, y: x // y), (I64, I64), I64)
    reg.register("/", _binop(lambda x, y: x / y), (F64, F64), F64)
    reg.register("/", _binop(lambda x, y: x / y), (RATIONAL, RATIONAL), RATIONAL)
    reg.register("%", _binop(lambda x, y: x % y), (I64, I64), I64)
    reg.register("<<", _binop(_shift_left), (I64, I64), I64)
    reg.register(">>", _binop(lambda x, y: x >> y), (I64, I64), I64)

    for sort in numeric_sorts:
        reg.register("neg", lambda a, s=sort: _wrap_like(s, -a.data), (sort,), sort)
        reg.register("abs", lambda a, s=sort: _wrap_like(s, abs(a.data)), (sort,), sort)

    # -- comparisons (numeric and string) ------------------------------------
    for sort in numeric_sorts + (STRING, BOOL):
        two = (sort, sort)
        reg.register("<", _cmp(lambda x, y: x < y), two, BOOL)
        reg.register("<=", _cmp(lambda x, y: x <= y), two, BOOL)
        reg.register(">", _cmp(lambda x, y: x > y), two, BOOL)
        reg.register(">=", _cmp(lambda x, y: x >= y), two, BOOL)

    # Equality / disequality are polymorphic ("any" sort) but strictly
    # binary: they compare canonical values of any single sort.
    any_pair = ("any", "any")
    reg.register("value-eq", lambda a, b: boolean(a == b), any_pair, BOOL)
    reg.register("=", lambda a, b: boolean(a == b), any_pair, BOOL)
    reg.register("!=", lambda a, b: boolean(a != b), any_pair, BOOL)

    # -- booleans ------------------------------------------------------------
    reg.register("and", lambda a, b: boolean(a.data and b.data), (BOOL, BOOL), BOOL)
    reg.register("or", lambda a, b: boolean(a.data or b.data), (BOOL, BOOL), BOOL)
    reg.register("not", lambda a: boolean(not a.data), (BOOL,), BOOL)
    reg.register("xor", lambda a, b: boolean(bool(a.data) != bool(b.data)), (BOOL, BOOL), BOOL)

    # -- conversions ---------------------------------------------------------
    reg.register("to-f64", lambda a: f64(float(a.data)), (I64,), F64)
    reg.register("to-f64", lambda a: f64(float(a.data)), (RATIONAL,), F64)
    reg.register("to-i64", lambda a: i64(int(a.data)), (F64,), I64)
    reg.register("to-rational", lambda a: rational_from_fraction(Fraction(a.data)), (I64,), RATIONAL)
    reg.register(
        "rational",
        lambda n, d: None if d.data == 0 else rational_from_fraction(Fraction(n.data, d.data)),
        (I64, I64),
        RATIONAL,
    )
    reg.register("numer", lambda a: i64(a.data.numerator), (RATIONAL,), I64)
    reg.register("denom", lambda a: i64(a.data.denominator), (RATIONAL,), I64)

    # -- strings -------------------------------------------------------------
    reg.register("+", lambda a, b: string(a.data + b.data), (STRING, STRING), STRING)
    reg.register("str-concat", lambda a, b: string(a.data + b.data), (STRING, STRING), STRING)
    reg.register("str-length", lambda a: i64(len(a.data)), (STRING,), I64)

    # -- sets -----------------------------------------------------------------
    reg.register("set-empty", lambda: Value(SET, frozenset()), (), SET)
    reg.register("empty", lambda: Value(SET, frozenset()), (), SET)
    reg.register("set-singleton", lambda v: Value(SET, frozenset([v])), ("any",), SET)
    reg.register(
        "set-insert", lambda s, v: Value(SET, s.data | frozenset([v])), (SET, "any"), SET
    )
    reg.register(
        "set-remove", lambda s, v: Value(SET, s.data - frozenset([v])), (SET, "any"), SET
    )
    reg.register("set-union", lambda a, b: Value(SET, a.data | b.data), (SET, SET), SET)
    reg.register("set-intersect", lambda a, b: Value(SET, a.data & b.data), (SET, SET), SET)
    reg.register("set-diff", lambda a, b: Value(SET, a.data - b.data), (SET, SET), SET)
    reg.register("set-contains", lambda s, v: boolean(v in s.data), (SET, "any"), BOOL)
    reg.register("set-not-contains", lambda s, v: boolean(v not in s.data), (SET, "any"), BOOL)
    reg.register("set-length", lambda s: i64(len(s.data)), (SET,), I64)

    # -- unit -----------------------------------------------------------------
    reg.register("unit", lambda: UNIT_VALUE, (), UNIT)

    return reg
