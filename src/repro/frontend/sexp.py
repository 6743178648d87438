"""S-expression reader for the .egg text language.

The reader turns program text into a sequence of located s-expressions:
symbols, typed literals, and lists.  Literals are typed by lexical shape —
integers become ``i64``, decimals become ``f64``, double-quoted strings
become ``String``, and ``true``/``false`` become ``bool`` — matching the
literal grammar of the paper's Figure 4.  ``;`` starts a comment that runs
to end of line.  ``[...]`` is accepted as a synonym for ``(...)`` as long
as delimiters match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.terms import format_value
from ..core.values import Value, boolean, f64, i64, string
from .errors import Loc, ParseError


@dataclass(eq=False)
class Sexp:
    """Base class for s-expression nodes; a node read from text knows its
    location, one decoded from a JSON term has none.

    Nodes are slotted, and nothing mutates them after construction: the
    reader and the JSON decoder build one per token, and a frozen dataclass
    costs twice as much to construct.  They compare by identity.
    """

    __slots__ = ("loc",)
    loc: Optional[Loc]


@dataclass(eq=False)
class Symbol(Sexp):
    """A bare identifier: command names, function symbols, variables."""

    __slots__ = ("name",)
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(eq=False)
class Literal(Sexp):
    """A self-evaluating constant, already typed as a runtime Value."""

    __slots__ = ("value",)
    value: Value

    def __str__(self) -> str:
        return format_value(self.value)


@dataclass(eq=False)
class SList(Sexp):
    """A parenthesized list of sub-expressions."""

    __slots__ = ("items",)
    items: Tuple[Sexp, ...]

    def __str__(self) -> str:
        return "(" + " ".join(str(item) for item in self.items) + ")"


_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\Z|[+-]?[0-9]+[eE][+-]?[0-9]+\Z")
_DELIMITERS = "()[]\";"
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_CLOSER_OF = {"(": ")", "[": "]"}


class _Reader:
    """Single-pass tokenizer + tree builder with line/column tracking."""

    def __init__(self, text: str, filename: Optional[str]) -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, loc: Optional[Loc] = None) -> ParseError:
        return ParseError(message, loc or self.loc(), self.filename)

    def loc(self) -> Loc:
        return Loc(self.line, self.col)

    def peek(self) -> Optional[str]:
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def advance(self) -> str:
        char = self.text[self.pos]
        self.pos += 1
        if char == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return char

    def skip_blank(self) -> None:
        while True:
            char = self.peek()
            if char is None:
                return
            if char == ";":
                while self.peek() not in (None, "\n"):
                    self.advance()
                continue
            if char.isspace():
                self.advance()
                continue
            return

    def read_all(self) -> List[Sexp]:
        out: List[Sexp] = []
        while True:
            self.skip_blank()
            if self.peek() is None:
                return out
            loc = self.loc()
            try:
                out.append(self.read_one())
            except RecursionError:
                raise self.error("s-expression nested too deeply", loc) from None

    def read_one(self) -> Sexp:
        self.skip_blank()
        char = self.peek()
        loc = self.loc()
        if char is None:
            raise self.error("unexpected end of input", loc)
        if char in "([":
            return self.read_list()
        if char in ")]":
            raise self.error(f"unmatched {char!r}", loc)
        if char == '"':
            return self.read_string()
        return self.read_atom()

    def read_list(self) -> SList:
        open_loc = self.loc()
        opener = self.advance()
        closer = _CLOSER_OF[opener]
        items: List[Sexp] = []
        while True:
            self.skip_blank()
            char = self.peek()
            if char is None:
                raise self.error(
                    f"unclosed {opener!r} opened at {open_loc}", open_loc
                )
            if char in ")]":
                close_loc = self.loc()
                self.advance()
                if char != closer:
                    raise self.error(
                        f"mismatched delimiter: {opener!r} opened at {open_loc} "
                        f"closed by {char!r}",
                        close_loc,
                    )
                return SList(open_loc, tuple(items))
            items.append(self.read_one())

    def read_string(self) -> Literal:
        open_loc = self.loc()
        self.advance()  # opening quote
        chars: List[str] = []
        while True:
            char = self.peek()
            if char is None or char == "\n":
                raise self.error(f"unterminated string opened at {open_loc}", open_loc)
            if char == '"':
                self.advance()
                return Literal(open_loc, string("".join(chars)))
            if char == "\\":
                escape_loc = self.loc()
                self.advance()
                escaped = self.peek()
                if escaped is None or escaped not in _ESCAPES:
                    raise self.error(f"bad string escape \\{escaped or ''}", escape_loc)
                chars.append(_ESCAPES[self.advance()])
                continue
            chars.append(self.advance())

    def read_atom(self) -> Sexp:
        loc = self.loc()
        chars: List[str] = []
        while True:
            char = self.peek()
            if char is None or char.isspace() or char in _DELIMITERS:
                break
            chars.append(self.advance())
        text = "".join(chars)
        if _INT_RE.match(text):
            try:
                return Literal(loc, i64(int(text)))
            except ValueError:
                # CPython caps str->int conversion (sys.int_info.str_digits_
                # check_threshold); a longer literal must surface as a
                # located parse error, not a raw ValueError.
                raise self.error(
                    f"integer literal too large ({len(text)} digits)", loc
                ) from None
        if _FLOAT_RE.match(text):
            return Literal(loc, f64(float(text)))
        if text in ("true", "false"):
            return Literal(loc, boolean(text == "true"))
        return Symbol(loc, text)


def parse_sexps(text: str, filename: Optional[str] = None) -> List[Sexp]:
    """Read every s-expression in ``text``; raise :class:`ParseError` on bad syntax."""
    return _Reader(text, filename).read_all()
