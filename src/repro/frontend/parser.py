"""Parser for the core egglog command set (Figure 4 of the paper).

The parser turns read s-expressions into :class:`Command` records.  It
checks *shape* — each command's positional structure and keyword options —
but leaves expressions, facts, and actions as raw s-expressions: lowering
them into engine terms needs the engine's declarations and is the
evaluator's job (:mod:`repro.frontend.evaluator`).  Top-level forms whose
head is not a command keyword are kept as :class:`TopAction` so ground
facts like ``(edge 1 2)`` can be asserted directly, as in egglog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .errors import Loc, ParseError
from .sexp import Literal, Sexp, SList, Symbol, parse_sexps


@dataclass(frozen=True)
class Command:
    """Base class for parsed commands; a command read from text knows its
    location, one decoded from a JSON op has none."""

    loc: Optional[Loc]


@dataclass(frozen=True)
class SortCmd(Command):
    name: str


@dataclass(frozen=True)
class ConstructorCmd(Command):
    """One constructor: a ``datatype`` variant, or a JSON ``constructor`` op."""

    name: str
    arg_sorts: Tuple[str, ...]
    out_sort: str
    cost: int = 1


@dataclass(frozen=True)
class DatatypeCmd(Command):
    name: str
    variants: Tuple[ConstructorCmd, ...]


@dataclass(frozen=True)
class FunctionCmd(Command):
    """``(function name (sorts) out ...)``.

    ``merge`` is a ``:merge`` expression over ``old``/``new``, or the JSON
    surface's merge name: ``"union"``, ``"error"`` or a binary primitive.
    """

    name: str
    arg_sorts: Tuple[str, ...]
    out_sort: str
    merge: Union[Sexp, str, None] = None
    default: Optional[Sexp] = None
    cost: int = 1
    unextractable: bool = False


@dataclass(frozen=True)
class RelationCmd(Command):
    name: str
    arg_sorts: Tuple[str, ...]


@dataclass(frozen=True)
class RuleCmd(Command):
    facts: Tuple[Sexp, ...]
    actions: Tuple[Sexp, ...]
    name: Optional[str] = None
    ruleset: str = ""


@dataclass(frozen=True)
class RewriteCmd(Command):
    lhs: Sexp
    rhs: Sexp
    conditions: Tuple[Sexp, ...] = ()
    name: Optional[str] = None
    ruleset: str = ""
    bidirectional: bool = False


@dataclass(frozen=True)
class LetCmd(Command):
    name: str
    expr: Sexp


@dataclass(frozen=True)
class UnionCmd(Command):
    lhs: Sexp
    rhs: Sexp


@dataclass(frozen=True)
class SetCmd(Command):
    call: SList
    value: Sexp


@dataclass(frozen=True)
class DeleteCmd(Command):
    call: SList


@dataclass(frozen=True)
class RunCmd(Command):
    """``(run n [:ruleset r] [:deadline-ms n] [:max-nodes n])``.

    ``deadline_ms``/``max_nodes`` are optional run budgets, checked by the
    scheduler between iterations; ``None`` means unlimited.
    """

    limit: int
    ruleset: str = ""
    deadline_ms: Optional[int] = None
    max_nodes: Optional[int] = None


@dataclass(frozen=True)
class RunScheduleCmd(Command):
    """``(run-schedule sched...)``: schedule combinators, left as s-exprs.

    Schedules nest arbitrarily (``saturate``/``seq``/``repeat``/``run`` and
    bare ruleset names); lowering them needs the engine's rulesets, so the
    parser keeps them raw and the evaluator interprets.  The budgets span
    the whole schedule, as :class:`RunCmd`'s span its run.
    """

    schedules: Tuple[Sexp, ...]
    deadline_ms: Optional[int] = None
    max_nodes: Optional[int] = None


@dataclass(frozen=True)
class CheckCmd(Command):
    facts: Tuple[Sexp, ...]


@dataclass(frozen=True)
class ExtractCmd(Command):
    expr: Sexp


@dataclass(frozen=True)
class QueryExtractCmd(Command):
    expr: Sexp
    facts: Tuple[Sexp, ...]


@dataclass(frozen=True)
class ExplainCmd(Command):
    """``(explain <e1> <e2>)``: print why two ground terms are equal."""

    lhs: Sexp
    rhs: Sexp


@dataclass(frozen=True)
class PushCmd(Command):
    count: int = 1


@dataclass(frozen=True)
class PopCmd(Command):
    count: int = 1


@dataclass(frozen=True)
class SaveCmd(Command):
    """``(save "path")``: snapshot the full engine + globals to a file."""

    path: str


@dataclass(frozen=True)
class LoadCmd(Command):
    """``(load "path")``: replace the session state with a snapshot."""

    path: str


@dataclass(frozen=True)
class AddCmd(Command):
    """The JSON ``add`` op: insert a ground term and answer its value."""

    expr: Sexp


@dataclass(frozen=True)
class StatsCmd(Command):
    """The JSON ``stats`` op: the engine's size counters."""


@dataclass(frozen=True)
class TopAction(Command):
    """A non-command top-level form, run as a ground action (e.g. a fact)."""

    sexp: SList


@dataclass
class _Form:
    """A command s-expression split into positional args and keyword options."""

    head: Symbol
    args: List[Sexp] = field(default_factory=list)
    options: Dict[str, Sexp] = field(default_factory=dict)
    flags: Dict[str, Loc] = field(default_factory=dict)
    filename: Optional[str] = None

    @property
    def loc(self) -> Loc:
        return self.head.loc

    def error(self, message: str, loc: Optional[Loc] = None) -> ParseError:
        return ParseError(message, loc or self.loc, self.filename)


class Parser:
    """Parses .egg program text into :class:`Command` records."""

    #: Option spec per command: option name -> "value" or "flag".
    _OPTIONS = {
        "function": {":merge": "value", ":default": "value", ":cost": "value",
                     ":unextractable": "flag"},
        "rule": {":name": "value", ":ruleset": "value"},
        "rewrite": {":when": "value", ":name": "value", ":ruleset": "value"},
        "birewrite": {":when": "value", ":name": "value", ":ruleset": "value"},
        "run": {":ruleset": "value", ":deadline-ms": "value", ":max-nodes": "value"},
    }

    #: Command keyword -> parse method.  Heads outside this table fall
    #: through to :class:`TopAction`.
    _COMMANDS = {
        "sort": "_parse_sort",
        "datatype": "_parse_datatype",
        "function": "_parse_function",
        "relation": "_parse_relation",
        "rule": "_parse_rule",
        "rewrite": "_parse_rewrite",
        "birewrite": "_parse_birewrite",
        "let": "_parse_let",
        "union": "_parse_union",
        "set": "_parse_set",
        "delete": "_parse_delete",
        "run": "_parse_run",
        "run-schedule": "_parse_run_schedule",
        "check": "_parse_check",
        "extract": "_parse_extract",
        "query-extract": "_parse_query_extract",
        "explain": "_parse_explain",
        "push": "_parse_push",
        "pop": "_parse_pop",
        "save": "_parse_save",
        "load": "_parse_load",
    }

    def __init__(self, filename: Optional[str] = None) -> None:
        self.filename = filename

    def error(self, message: str, loc: Loc) -> ParseError:
        return ParseError(message, loc, self.filename)

    def parse_program(self, text: str) -> List[Command]:
        commands = []
        for sexp in parse_sexps(text, self.filename):
            try:
                commands.append(self.parse_command(sexp))
            except RecursionError:
                # Error messages quote the offending form, and printing a
                # deep one takes more stack than reading it did.
                raise self.error("s-expression nested too deeply", sexp.loc) from None
        return commands

    def parse_command(self, sexp: Sexp) -> Command:
        if not isinstance(sexp, SList):
            raise self.error(f"expected a command, got {sexp}", sexp.loc)
        if not sexp.items or not isinstance(sexp.items[0], Symbol):
            raise self.error("a command must start with a symbol", sexp.loc)
        head = sexp.items[0]
        if head.name not in self._COMMANDS:
            # Not a command keyword: a ground action like (edge 1 2); the
            # evaluator checks the head against declarations and primitives.
            return TopAction(sexp.loc, sexp)
        handler = getattr(self, self._COMMANDS[head.name])
        return handler(self._split(head, sexp))

    # -- shape helpers --------------------------------------------------------

    def _split(self, head: Symbol, sexp: SList) -> _Form:
        """Separate positional arguments from trailing ``:keyword`` options."""
        spec = self._OPTIONS.get(head.name, {})
        form = _Form(head=head, filename=self.filename)
        items = list(sexp.items[1:])
        index = 0
        while index < len(items):
            item = items[index]
            if isinstance(item, Symbol) and item.name.startswith(":"):
                kind = spec.get(item.name)
                if kind is None:
                    raise form.error(
                        f"'{head.name}' does not take option {item.name}", item.loc
                    )
                if item.name in form.options or item.name in form.flags:
                    raise form.error(f"duplicate option {item.name}", item.loc)
                if kind == "flag":
                    form.flags[item.name] = item.loc
                    index += 1
                    continue
                if index + 1 >= len(items):
                    raise form.error(f"option {item.name} needs a value", item.loc)
                form.options[item.name] = items[index + 1]
                index += 2
                continue
            if form.options or form.flags:
                raise form.error(
                    f"positional argument after options in '{head.name}'", item.loc
                )
            form.args.append(item)
            index += 1
        return form

    def _exact(self, form: _Form, count: int, usage: str) -> None:
        if len(form.args) != count:
            raise form.error(
                f"'{form.head.name}' expects {usage}, got {len(form.args)} argument(s)"
            )

    def _symbol(self, form: _Form, sexp: Sexp, what: str) -> str:
        if not isinstance(sexp, Symbol):
            raise form.error(f"expected {what}, got {sexp}", sexp.loc)
        return sexp.name

    def _sort_list(self, form: _Form, sexp: Sexp) -> Tuple[str, ...]:
        if not isinstance(sexp, SList):
            raise form.error(f"expected a sort list like (i64 i64), got {sexp}", sexp.loc)
        return tuple(self._symbol(form, item, "a sort name") for item in sexp.items)

    def _int(self, form: _Form, sexp: Sexp, what: str) -> int:
        if isinstance(sexp, Literal) and sexp.value.sort == "i64":
            return int(sexp.value.data)
        raise form.error(f"expected {what} (an integer), got {sexp}", sexp.loc)

    def _name_option(self, form: _Form) -> Optional[str]:
        sexp = form.options.get(":name")
        if sexp is None:
            return None
        if isinstance(sexp, Literal) and sexp.value.sort == "String":
            return str(sexp.value.data)
        return self._symbol(form, sexp, "a rule name")

    def _ruleset_option(self, form: _Form) -> str:
        sexp = form.options.get(":ruleset")
        if sexp is None:
            return ""
        return self._symbol(form, sexp, "a ruleset name")

    def _fact_list(self, form: _Form, sexp: Sexp, what: str) -> Tuple[Sexp, ...]:
        if not isinstance(sexp, SList):
            raise form.error(f"expected {what} (a parenthesized list), got {sexp}", sexp.loc)
        return sexp.items

    def _call(self, form: _Form, sexp: Sexp) -> SList:
        if not isinstance(sexp, SList) or not sexp.items or not isinstance(
            sexp.items[0], Symbol
        ):
            raise form.error(
                f"expected a function call like (f x ...), got {sexp}", sexp.loc
            )
        return sexp

    # -- command parsers ------------------------------------------------------

    def _parse_sort(self, form: _Form) -> SortCmd:
        self._exact(form, 1, "a sort name")
        return SortCmd(form.loc, self._symbol(form, form.args[0], "a sort name"))

    def _parse_datatype(self, form: _Form) -> DatatypeCmd:
        if not form.args:
            raise form.error("'datatype' expects a sort name and variants")
        name = self._symbol(form, form.args[0], "a sort name")
        variants = tuple(self._parse_variant(form, sexp, name) for sexp in form.args[1:])
        return DatatypeCmd(form.loc, name, variants)

    def _parse_variant(self, form: _Form, sexp: Sexp, sort: str) -> ConstructorCmd:
        call = self._call(form, sexp)
        name = call.items[0].name  # type: ignore[union-attr]
        arg_sorts: List[str] = []
        cost = 1
        items = list(call.items[1:])
        index = 0
        while index < len(items):
            item = items[index]
            if isinstance(item, Symbol) and item.name == ":cost":
                if index + 1 >= len(items):
                    raise form.error("option :cost needs a value", item.loc)
                cost = self._int(form, items[index + 1], "a cost")
                index += 2
                continue
            arg_sorts.append(self._symbol(form, item, "a sort name"))
            index += 1
        return ConstructorCmd(call.loc, name, tuple(arg_sorts), sort, cost)

    def _parse_function(self, form: _Form) -> FunctionCmd:
        self._exact(form, 3, "a name, a sort list, and an output sort")
        return FunctionCmd(
            form.loc,
            name=self._symbol(form, form.args[0], "a function name"),
            arg_sorts=self._sort_list(form, form.args[1]),
            out_sort=self._symbol(form, form.args[2], "an output sort"),
            merge=form.options.get(":merge"),
            default=form.options.get(":default"),
            cost=(
                self._int(form, form.options[":cost"], "a cost")
                if ":cost" in form.options
                else 1
            ),
            unextractable=":unextractable" in form.flags,
        )

    def _parse_relation(self, form: _Form) -> RelationCmd:
        self._exact(form, 2, "a name and a sort list")
        return RelationCmd(
            form.loc,
            name=self._symbol(form, form.args[0], "a relation name"),
            arg_sorts=self._sort_list(form, form.args[1]),
        )

    def _parse_rule(self, form: _Form) -> RuleCmd:
        self._exact(form, 2, "a fact list and an action list")
        return RuleCmd(
            form.loc,
            facts=self._fact_list(form, form.args[0], "the rule's facts"),
            actions=self._fact_list(form, form.args[1], "the rule's actions"),
            name=self._name_option(form),
            ruleset=self._ruleset_option(form),
        )

    def _parse_rewrite(self, form: _Form, bidirectional: bool = False) -> RewriteCmd:
        self._exact(form, 2, "a left-hand side and a right-hand side")
        conditions: Tuple[Sexp, ...] = ()
        if ":when" in form.options:
            conditions = self._fact_list(form, form.options[":when"], "the conditions")
        return RewriteCmd(
            form.loc,
            lhs=form.args[0],
            rhs=form.args[1],
            conditions=conditions,
            name=self._name_option(form),
            ruleset=self._ruleset_option(form),
            bidirectional=bidirectional,
        )

    def _parse_birewrite(self, form: _Form) -> RewriteCmd:
        return self._parse_rewrite(form, bidirectional=True)

    def _parse_let(self, form: _Form) -> LetCmd:
        self._exact(form, 2, "a name and an expression")
        return LetCmd(form.loc, self._symbol(form, form.args[0], "a name"), form.args[1])

    def _parse_union(self, form: _Form) -> UnionCmd:
        self._exact(form, 2, "two expressions")
        return UnionCmd(form.loc, form.args[0], form.args[1])

    def _parse_set(self, form: _Form) -> SetCmd:
        self._exact(form, 2, "a call and a value")
        return SetCmd(form.loc, self._call(form, form.args[0]), form.args[1])

    def _parse_delete(self, form: _Form) -> DeleteCmd:
        self._exact(form, 1, "a call")
        return DeleteCmd(form.loc, self._call(form, form.args[0]))

    def _parse_run(self, form: _Form) -> RunCmd:
        self._exact(form, 1, "an iteration limit")
        limit = self._int(form, form.args[0], "an iteration limit")
        if limit < 1:
            raise form.error(f"'run' limit must be positive, got {limit}")
        return RunCmd(
            form.loc,
            limit,
            self._ruleset_option(form),
            self._budget_option(form, ":deadline-ms"),
            self._budget_option(form, ":max-nodes"),
        )

    def _budget_option(self, form: _Form, key: str) -> Optional[int]:
        sexp = form.options.get(key)
        if sexp is None:
            return None
        value = self._int(form, sexp, f"a {key[1:]} budget")
        if value < 0:
            raise form.error(f"'{key[1:]}' must be >= 0, got {value}", sexp.loc)
        return value

    def _parse_run_schedule(self, form: _Form) -> RunScheduleCmd:
        if not form.args:
            raise form.error("'run-schedule' expects at least one schedule")
        return RunScheduleCmd(form.loc, tuple(form.args))

    def _parse_check(self, form: _Form) -> CheckCmd:
        if not form.args:
            raise form.error("'check' expects at least one fact")
        return CheckCmd(form.loc, tuple(form.args))

    def _parse_extract(self, form: _Form) -> ExtractCmd:
        self._exact(form, 1, "an expression")
        return ExtractCmd(form.loc, form.args[0])

    def _parse_query_extract(self, form: _Form) -> QueryExtractCmd:
        if len(form.args) < 2:
            raise form.error(
                "'query-extract' expects an expression and at least one fact"
            )
        return QueryExtractCmd(form.loc, form.args[0], tuple(form.args[1:]))

    def _parse_explain(self, form: _Form) -> ExplainCmd:
        self._exact(form, 2, "two expressions")
        return ExplainCmd(form.loc, form.args[0], form.args[1])

    def _parse_push(self, form: _Form) -> PushCmd:
        return PushCmd(form.loc, self._count(form))

    def _parse_pop(self, form: _Form) -> PopCmd:
        return PopCmd(form.loc, self._count(form))

    def _parse_save(self, form: _Form) -> SaveCmd:
        self._exact(form, 1, "a file path string")
        return SaveCmd(form.loc, self._path(form, form.args[0]))

    def _parse_load(self, form: _Form) -> LoadCmd:
        self._exact(form, 1, "a file path string")
        return LoadCmd(form.loc, self._path(form, form.args[0]))

    def _path(self, form: _Form, sexp: Sexp) -> str:
        if isinstance(sexp, Literal) and sexp.value.sort == "String":
            return str(sexp.value.data)
        raise form.error(f"expected a file path string, got {sexp}", sexp.loc)

    def _count(self, form: _Form) -> int:
        if not form.args:
            return 1
        self._exact(form, 1, "an optional count")
        count = self._int(form, form.args[0], "a count")
        if count < 1:
            raise form.error(f"'{form.head.name}' count must be positive, got {count}")
        return count


def parse_program(text: str, filename: Optional[str] = None) -> List[Command]:
    """Parse .egg program text into a list of commands."""
    return Parser(filename).parse_program(text)
