"""The .egg text frontend: reader, parser, evaluator, and CLI.

This package implements the paper's textual s-expression language on top
of the engine:

* :mod:`repro.frontend.sexp` — s-expression reader with source locations
* :mod:`repro.frontend.parser` — the core egglog command set (Figure 4)
* :mod:`repro.frontend.evaluator` — lowering onto :class:`repro.engine.EGraph`
* :mod:`repro.frontend.printer` — re-readable term/value printing
* :mod:`repro.frontend.cli` — the ``python -m repro`` entry point
"""

from .errors import (
    ArityError,
    EvalError,
    FileAccessError,
    FrontendError,
    Loc,
    ParseError,
    SortError,
    UnboundSymbolError,
    UnknownCommandError,
)
from .evaluator import Evaluator, run_program
from .parser import Parser, parse_program
from .printer import format_term, format_value
from .sexp import Literal, Sexp, SList, Symbol, parse_sexps

__all__ = [
    "ArityError",
    "EvalError",
    "Evaluator",
    "FileAccessError",
    "FrontendError",
    "Literal",
    "Loc",
    "ParseError",
    "Parser",
    "Sexp",
    "SList",
    "SortError",
    "Symbol",
    "UnboundSymbolError",
    "UnknownCommandError",
    "format_term",
    "format_value",
    "parse_program",
    "parse_sexps",
    "run_program",
]
