"""Terms and patterns.

Terms are the tree-shaped surface syntax of egglog expressions (the exprs of
Section 3.1 of the paper): nested
applications of function symbols to literals and variables.  The core engine
works on *flattened* conjunctive queries (see ``repro.core.query``), but the
library API, the rewrite/rule sugar, the extraction results, and the text
language all speak in terms.

A term containing no variables is *ground*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Protocol, Tuple, Union, runtime_checkable

from .values import Value, from_python

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


@dataclass(frozen=True)
class Term:
    """Base class for terms (patterns); ``str()`` prints .egg syntax."""

    def __str__(self) -> str:
        return format_term(self)

    def is_ground(self) -> bool:
        return not any(True for _ in self.variables())

    def variables(self) -> Iterator[str]:
        raise NotImplementedError

    def substitute(self, mapping: Dict[str, "Term"]) -> "Term":
        raise NotImplementedError


@dataclass(frozen=True)
class TermVar(Term):
    """A pattern variable."""

    name: str

    def variables(self) -> Iterator[str]:
        yield self.name

    def substitute(self, mapping: Dict[str, Term]) -> Term:
        return mapping.get(self.name, self)


@dataclass(frozen=True)
class TermLit(Term):
    """A literal (primitive constant) wrapped as a term."""

    value: Value

    def variables(self) -> Iterator[str]:
        return iter(())

    def substitute(self, mapping: Dict[str, Term]) -> Term:
        return self


@dataclass(frozen=True)
class TermApp(Term):
    """An application ``f(t1, ..., tn)`` of a function symbol to sub-terms."""

    func: str
    args: Tuple[Term, ...] = ()

    def variables(self) -> Iterator[str]:
        for arg in self.args:
            yield from arg.variables()

    def substitute(self, mapping: Dict[str, Term]) -> Term:
        return TermApp(self.func, tuple(a.substitute(mapping) for a in self.args))


@runtime_checkable
class SupportsTerm(Protocol):
    """Anything that can lower itself to a :class:`Term`.

    This is the coercion hook embedded surface languages plug into: an
    object exposing ``__term__`` (e.g. a ``repro.dsl`` expression handle) is
    accepted anywhere the engine takes a term — ``add``, ``union``,
    ``rewrite``, action/fact constructors — without the engine depending on
    the surface layer.
    """

    def __term__(self) -> "Term": ...


TermLike = Union[Term, SupportsTerm, Value, int, float, str, bool]


def V(name: str) -> TermVar:
    """Shorthand for a pattern variable."""
    return TermVar(name)


def L(value: TermLike) -> TermLit:
    """Shorthand for a literal term (accepts plain Python scalars)."""
    if isinstance(value, TermLit):
        return value
    if isinstance(value, Value):
        return TermLit(value)
    return TermLit(from_python(value))


def App(func: str, *args: TermLike) -> TermApp:
    """Shorthand for an application term; scalar args are lifted to literals."""
    return TermApp(func, tuple(as_term(a) for a in args))


def as_term(obj: TermLike) -> Term:
    """Coerce a Python scalar, Value, ``__term__`` provider, or Term to a Term."""
    if isinstance(obj, Term):
        return obj
    lower = getattr(obj, "__term__", None)
    if lower is not None:
        term = lower()
        if not isinstance(term, Term):
            raise TypeError(f"__term__ of {obj!r} returned non-Term {term!r}")
        return term
    if isinstance(obj, Value):
        return TermLit(obj)
    return TermLit(from_python(obj))


def term_size(term: Term) -> int:
    """Number of function applications and literals in a term (AST size)."""
    if isinstance(term, TermApp):
        return 1 + sum(term_size(a) for a in term.args)
    return 1


def term_depth(term: Term) -> int:
    """Depth of the term tree (literals and variables have depth 1).

    Iterative, so it measures terms deeper than the recursion limit.
    """
    depth = 0
    level = [term]
    while level:
        depth += 1
        level = [arg for node in level if isinstance(node, TermApp) for arg in node.args]
    return depth


# ---------------------------------------------------------------------------
# Printing: the inverse of the .egg reader
# ---------------------------------------------------------------------------


def format_value(value: Value) -> str:
    """Render a runtime value as .egg literal (or constructor) syntax."""
    data = value.data
    if value.sort == "String":
        body = "".join(_STRING_ESCAPES.get(char, char) for char in str(data))
        return f'"{body}"'
    if value.sort == "bool":
        return "true" if data else "false"
    if value.sort == "Unit":
        return "()"
    if isinstance(data, Fraction):
        return f"(rational {data.numerator} {data.denominator})"
    if isinstance(data, frozenset):
        items = " ".join(sorted(format_value(item) for item in data))
        return f"(set-of {items})" if items else "(set-empty)"
    return str(data)


def format_term(term: Term) -> str:
    """Render a term as .egg surface syntax.

    Every printed form parses back to an equal term under the same
    declarations: strings are re-escaped, booleans print as
    ``true``/``false``, rationals as a ``(rational n d)`` call, and nullary
    applications keep their parentheses.  Iterative, so a term may be
    deeper than the recursion limit.
    """
    parts: List[str] = []
    stack: List[Union[Term, str]] = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, TermVar):
            parts.append(item.name)
        elif isinstance(item, TermLit):
            parts.append(format_value(item.value))
        elif isinstance(item, TermApp):
            parts.append("(" + item.func)
            stack.append(")")
            for arg in reversed(item.args):
                stack.append(arg)
                stack.append(" ")
        else:
            raise TypeError(f"cannot format {item!r}")
    return "".join(parts)
