"""Re-readable printing of facts in .egg surface syntax.

Terms and values print through :func:`repro.core.terms.format_term` and
:func:`repro.core.terms.format_value`, re-exported here; this module adds
body facts, used by ``check`` failure messages.
"""

from __future__ import annotations

from ..core.terms import format_term, format_value
from ..engine.rule import EqFact, Fact

__all__ = ["format_fact", "format_term", "format_value"]


def format_fact(fact: Fact) -> str:
    """Render a body fact — an application or an ``(= a b)`` equality."""
    if isinstance(fact, EqFact):
        return f"(= {format_term(fact.lhs)} {format_term(fact.rhs)})"
    return format_term(fact)
