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
from typing import Dict, Iterator, Tuple, Union

from typing import Protocol, runtime_checkable

from .values import Value, from_python


@dataclass(frozen=True)
class Term:
    """Base class for terms (patterns)."""

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

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TermLit(Term):
    """A literal (primitive constant) wrapped as a term."""

    value: Value

    def variables(self) -> Iterator[str]:
        return iter(())

    def substitute(self, mapping: Dict[str, Term]) -> Term:
        return self

    def __str__(self) -> str:
        return repr(self.value.data)


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

    def __str__(self) -> str:
        if not self.args:
            return f"({self.func})"
        return "(" + self.func + " " + " ".join(str(a) for a in self.args) + ")"


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
