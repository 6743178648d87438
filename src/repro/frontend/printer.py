"""Re-readable printing in .egg surface syntax.

Terms and values print through :func:`repro.core.terms.format_term` and
:func:`repro.core.terms.format_value`, and body facts (``check`` failure
messages) through :func:`repro.engine.rule.format_fact`; all three are
re-exported here.
"""

from __future__ import annotations

from ..core.terms import format_term, format_value
from ..engine.rule import format_fact

__all__ = ["format_fact", "format_term", "format_value"]
