"""Re-readable printing of terms and values in .egg surface syntax.

The inverse of the reader, used by ``extract``/``query-extract`` output:
every printed form parses back to an equal term under the same
declarations (strings are re-escaped, booleans print as ``true``/``false``,
rationals as a ``(rational n d)`` call, nullary applications keep their
parentheses).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Union

from ..core.terms import Term, TermApp, TermLit, TermVar
from ..core.values import Value
from ..engine.rule import EqFact, Fact

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


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

    Iterative, so an extracted term may be deeper than the recursion limit.
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


def format_fact(fact: Fact) -> str:
    """Render a body fact — an application or an ``(= a b)`` equality."""
    if isinstance(fact, EqFact):
        return f"(= {format_term(fact.lhs)} {format_term(fact.rhs)})"
    return format_term(fact)
