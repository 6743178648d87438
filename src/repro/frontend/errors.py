"""Errors raised by the .egg text frontend.

Every frontend error carries a source location (1-based line and column)
and, when known, the file name, so the CLI can print
``file.egg:3:7: message`` and tests can assert on positions.  All of them
are :class:`repro.errors.ReproError` subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError


@dataclass(frozen=True)
class Loc:
    """A 1-based source position."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class FrontendError(ReproError):
    """Base class for text-language errors; knows its source location."""

    def __init__(
        self,
        message: str,
        loc: Optional[Loc] = None,
        filename: Optional[str] = None,
    ) -> None:
        self.message = message
        self.loc = loc
        self.filename = filename
        self.line = loc.line if loc is not None else None
        self.col = loc.col if loc is not None else None
        prefix = ""
        if filename is not None:
            prefix += f"{filename}:"
        if loc is not None:
            prefix += f"{loc}: "
        elif prefix:
            prefix += " "
        super().__init__(prefix + message)


class ParseError(FrontendError):
    """Malformed surface syntax: unbalanced parens, bad literals, bad shapes."""


class UnknownCommandError(ParseError):
    """A top-level form whose head is neither a command nor a known symbol."""


class EvalError(FrontendError):
    """A well-formed command that fails against the engine's declarations."""


class ArityError(EvalError):
    """An application with the wrong number of arguments for its function."""


class SortError(EvalError):
    """A sort that is undeclared, or a literal of the wrong sort."""


class UnboundSymbolError(EvalError):
    """A bare symbol used where no binding (global or variable) exists."""


class FileAccessError(EvalError):
    """``(save)`` or ``(load)`` in an evaluator that may not touch files."""
