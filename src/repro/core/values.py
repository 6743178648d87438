"""Sorts and runtime values for the egglog core.

egglog distinguishes two kinds of sorts (Section 4.2 of the paper):

* *Uninterpreted sorts* (``EqSort``): their values are opaque integer ids
  drawn from a union-find, and the user may ``union`` them.  These play the
  role of e-class ids in equality saturation.
* *Primitive sorts* (``PrimitiveSort``): interpreted base types such as
  ``i64``, ``f64``, ``bool``, ``String``, ``Rational``, ``Unit`` and container
  sorts such as ``Set``.  Interpreted constants are only equal to themselves.

A runtime :class:`Value` pairs a sort name with a payload: an ``int`` id for
eq-sorts, or the corresponding Python object for primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Hashable

# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

I64 = "i64"
F64 = "f64"
BOOL = "bool"
STRING = "String"
UNIT = "Unit"
RATIONAL = "Rational"


@dataclass(frozen=True)
class Sort:
    """Base class for sorts.  ``name`` is globally unique within an engine."""

    name: str

    @property
    def is_eq_sort(self) -> bool:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class EqSort(Sort):
    """A user-declared uninterpreted sort whose values can be unified."""

    @property
    def is_eq_sort(self) -> bool:
        return True


@dataclass(frozen=True)
class PrimitiveSort(Sort):
    """An interpreted base sort (i64, String, ...)."""

    @property
    def is_eq_sort(self) -> bool:
        return False


BUILTIN_SORTS = {
    I64: PrimitiveSort(I64),
    F64: PrimitiveSort(F64),
    BOOL: PrimitiveSort(BOOL),
    STRING: PrimitiveSort(STRING),
    UNIT: PrimitiveSort(UNIT),
    RATIONAL: PrimitiveSort(RATIONAL),
}


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value(tuple):
    """A runtime value: a sort name plus a hashable payload.

    For eq-sorts the payload is an integer id into that engine's union-find.
    Note that two ``Value`` objects with different ids may still denote the
    same equivalence class; use ``engine.canonicalize`` before comparing.

    Values are immutable and are the single hottest object in the engine:
    database keys and index projections are tuples of Values used as
    dict keys, so they are hashed and compared millions of times per run.  The class is therefore a ``tuple``
    subclass ``(sort, data)`` with ``__slots__ = ()``: hashing and equality
    run entirely in C (the dataclass-generated ``__hash__`` this replaced —
    a Python-level call building a fresh tuple per invocation — alone
    accounted for ~15% of end-to-end run time on the transitive-closure
    benchmarks).  ``sort`` and ``data`` stay available as attributes via
    C-level item getters.
    """

    __slots__ = ()

    def __new__(cls, sort: str, data: Hashable) -> "Value":
        return tuple.__new__(cls, (sort, data))

    sort = property(itemgetter(0), doc="The value's sort name.")
    data = property(itemgetter(1), doc="The value's payload.")

    def __getnewargs__(self) -> "tuple[str, Hashable]":
        return (self[0], self[1])

    def __repr__(self) -> str:
        return f"{self[0]}#{self[1]!r}"


UNIT_VALUE = Value(UNIT, ())


def i64(value: int) -> Value:
    """Construct an ``i64`` value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"i64 payload must be an int, got {value!r}")
    return Value(I64, value)


# All NaN payloads collapse onto this single object.  ``NaN != NaN`` would
# otherwise defeat hash-consed equality (dict probes compare by identity
# first, then ``==``), so distinct NaN objects used as table keys or interned
# values would silently never match.  Sharing one object restores reflexive
# key equality and a stable hash without special-casing the hot Value paths.
_CANONICAL_NAN = float("nan")


def f64(value: float) -> Value:
    """Construct an ``f64`` value.

    Payloads are canonicalized: every NaN maps to one shared NaN object
    (restoring key equality, since containers match identical objects before
    calling ``==``) and ``-0.0`` collapses to ``0.0`` (the two compare equal
    but print differently, which would leak nondeterminism into output).
    """
    data = float(value)
    if data != data:
        data = _CANONICAL_NAN
    elif data == 0.0:
        data = 0.0  # Collapse -0.0.
    return Value(F64, data)


def boolean(value: bool) -> Value:
    """Construct a ``bool`` value."""
    return Value(BOOL, bool(value))


def string(value: str) -> Value:
    """Construct a ``String`` value."""
    if not isinstance(value, str):
        raise TypeError(f"String payload must be a str, got {value!r}")
    return Value(STRING, value)


def rational(numer: int, denom: int = 1) -> Value:
    """Construct a ``Rational`` value (exact fraction)."""
    return Value(RATIONAL, Fraction(numer, denom))


def rational_from_fraction(frac: Fraction) -> Value:
    """Wrap an existing :class:`fractions.Fraction` as a Rational value."""
    return Value(RATIONAL, frac)


def from_python(obj: Any) -> Value:
    """Best-effort conversion of a plain Python object into a Value.

    This is a convenience for the library API and tests; the language layer
    always constructs values with explicit sorts.
    """
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        return boolean(obj)
    if isinstance(obj, int):
        return i64(obj)
    if isinstance(obj, float):
        return f64(obj)
    if isinstance(obj, str):
        return string(obj)
    if isinstance(obj, Fraction):
        return rational_from_fraction(obj)
    raise TypeError(f"cannot convert {obj!r} to an egglog value")


# ---------------------------------------------------------------------------
# Literal parsing / coercion per sort (used by the text frontend)
# ---------------------------------------------------------------------------

# Widening conversions the language applies to literals: an integer literal
# may be written where an f64 or Rational is expected (the paper's examples
# write ``(f 1)`` for f64-sorted arguments).  Narrowing is never implicit.
_LITERAL_COERCIONS = {
    (I64, F64): lambda data: f64(float(data)),
    (I64, RATIONAL): lambda data: rational_from_fraction(Fraction(data)),
}


def register_literal_coercion(from_sort: str, to_sort: str, convert) -> None:
    """Register a widening literal coercion ``from_sort -> to_sort``.

    ``convert`` receives the literal's payload and returns a :class:`Value`
    of ``to_sort``.  The registered pair extends the widening table that
    :func:`coerce_literal` consults — which both the .egg evaluator and the
    embedded DSL's literal lifting go through — so surface layers can teach
    the core new interpreted sorts without the core importing them.
    Re-registering a pair overwrites the previous conversion; coercions
    between the same sort are rejected (they would shadow the exact-match
    fast path).
    """
    if from_sort == to_sort:
        raise ValueError(f"literal coercion {from_sort!r} -> itself is not allowed")
    _LITERAL_COERCIONS[(from_sort, to_sort)] = convert


def literal_coercion_pairs() -> "list[tuple[str, str]]":
    """The registered coercion pairs, sorted — stable for serialization.

    Snapshots record these so a loader can verify the running process has
    every coercion the saved session relied on (surface layers register
    extras for their interpreted sorts).
    """
    return sorted(_LITERAL_COERCIONS)


def coerce_literal(value: Value, sort_name: str) -> "Value | None":
    """Adapt a literal value to ``sort_name``; None if no sound coercion.

    An exact sort match is returned unchanged; otherwise only the widening
    coercions in :data:`_LITERAL_COERCIONS` apply.  Eq-sorted values never
    coerce (their ids are meaningless under any other sort).
    """
    if value.sort == sort_name:
        return value
    convert = _LITERAL_COERCIONS.get((value.sort, sort_name))
    if convert is None:
        return None
    try:
        return convert(value.data)
    except OverflowError:  # an integer too large for a double
        return None


def parse_literal(sort_name: str, text: str) -> Value:
    """Parse the text of a literal under an expected sort.

    A library utility for embedders that receive sort-annotated text
    (config values, tool arguments) and need a :class:`Value`.  The .egg
    reader does *not* use this: it types literals by lexical shape and
    relies on :func:`coerce_literal` at use sites.
    """
    if sort_name == I64:
        return i64(int(text, 0))
    if sort_name == F64:
        return f64(float(text))
    if sort_name == BOOL:
        if text in ("true", "false"):
            return boolean(text == "true")
        raise ValueError(f"bool literal must be true/false, got {text!r}")
    if sort_name == STRING:
        return string(text)
    if sort_name == RATIONAL:
        return rational_from_fraction(Fraction(text))
    if sort_name == UNIT:
        return UNIT_VALUE
    raise ValueError(f"sort {sort_name!r} has no literal syntax")
