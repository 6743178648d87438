"""Evaluator: runs `.egg` commands, from either surface, against the engine.

The evaluator owns the pieces the parser cannot know: the engine's
declarations.  It lowers raw s-expressions into engine terms (checking
arities, sorts, and symbol bindings with source locations), maintains the
global ``let`` environment and mirrors the engine's ``push``/``pop`` stack
for it.

One loop, :meth:`Evaluator.run_commands`, runs the commands of both wire
surfaces: the ``.egg`` text that :meth:`run_program` parses and the JSON
ops that :mod:`repro.session.program` decodes into the same command
records.  For each command it trips the surface's fault point, applies the
batch's run budgets, lowers every term through the one lowering below and
hands the handler's result back to the surface, which formats it: ``.egg``
prints lines (:meth:`_lines`, the text the golden-file tests diff), JSON
encodes result objects.

Binding rules, following the paper's language:

* In *pattern* positions (rule facts, ``check`` facts, rewrite sides, rule
  actions) a bare symbol is a variable — unless it names a global ``let``
  binding, which is inlined as a literal at lowering time.
* In *ground* positions (top-level ``let``/``union``/``set``/``delete``/
  ``extract`` and ground facts) a bare symbol must name a global binding.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.builtins import I64_MAX
from ..core.schema import RunReport
from ..core.terms import Term, TermApp, TermLit, TermVar
from ..core.values import Value, coerce_literal
from ..engine import EGraph, Rule
from ..engine.actions import Action, Delete, Expr, Let, Panic, Set, Union, run_actions
from ..engine.errors import EGraphError
from ..engine.program import compile_term
from ..engine.rule import EqFact, Fact
from ..engine.schedule import Repeat, Run, Saturate, Schedule, Seq
from .errors import (
    ArityError,
    EvalError,
    FileAccessError,
    Loc,
    SortError,
    UnboundSymbolError,
    UnknownCommandError,
)
from ..serialize import SnapshotError
from ..serialize.encode import decode_values, encode_values
from ..testing.faults import trip
from .parser import (
    AddCmd,
    CheckCmd,
    Command,
    ConstructorCmd,
    DatatypeCmd,
    DeleteCmd,
    ExplainCmd,
    ExtractCmd,
    FunctionCmd,
    LetCmd,
    LoadCmd,
    PopCmd,
    PushCmd,
    QueryExtractCmd,
    RelationCmd,
    RewriteCmd,
    RuleCmd,
    RunCmd,
    RunScheduleCmd,
    SaveCmd,
    SetCmd,
    SortCmd,
    StatsCmd,
    TopAction,
    UnionCmd,
    parse_program,
)
from .printer import format_fact, format_term
from .sexp import Literal, Sexp, SList, Symbol


class Evaluator:
    """Executes `.egg` commands against one engine instance.

    With ``file_io=False`` the ``(save)`` and ``(load)`` commands raise
    :class:`FileAccessError` instead of touching the file system; the
    session service creates every evaluator that way.  ``sink`` receives
    each printed line as soon as its command has run (the CLI prints it).
    """

    def __init__(
        self,
        egraph: Optional[EGraph] = None,
        *,
        sink: Optional[Callable[[str], None]] = None,
        file_io: bool = True,
    ) -> None:
        self.egraph = egraph if egraph is not None else EGraph()
        self.file_io = file_io
        self.globals: Dict[str, Value] = {}
        self._globals_stack: List[Dict[str, Value]] = []
        self._sink = sink
        self.filename: Optional[str] = None
        #: Accumulated statistics over every run/run-schedule this session
        #: executed (per-rule match counts, phase timings); see ``--stats``.
        self.report = RunReport()

    # -- entry points ---------------------------------------------------------

    def run_program(
        self,
        text: str,
        filename: Optional[str] = None,
        *,
        deadline_ms: Optional[int] = None,
        max_nodes: Optional[int] = None,
    ) -> List[str]:
        """Parse and execute a whole program; returns the lines it printed.

        ``deadline_ms``/``max_nodes`` are the batch's budgets for every
        ``run``/``run-schedule`` that carries none of its own.
        """
        previous = self.filename
        self.filename = filename
        lines: List[str] = []
        try:
            commands = parse_program(text, filename)
            for command, result in self.run_commands(
                commands, "egg.command", deadline_ms=deadline_ms, max_nodes=max_nodes
            ):
                for line in self._lines(command, result):
                    lines.append(line)
                    if self._sink is not None:
                        self._sink(line)
        finally:
            self.filename = previous
        return lines

    def run_commands(
        self,
        items: Iterable[Any],
        fault: str,
        decode: Optional[Callable[[Any], Command]] = None,
        *,
        deadline_ms: Optional[int] = None,
        max_nodes: Optional[int] = None,
    ) -> Iterator[Tuple[Command, Any]]:
        """Run commands in order, yielding each with its handler's result.

        Before item *k* the fault point ``fault`` trips with tag *k*;
        ``decode`` (the JSON surface's) turns each item into its command
        record inside the loop, so a malformed item *k* leaves the commands
        before it applied.  ``deadline_ms``/``max_nodes`` are the batch's
        budgets for every ``run``/``run-schedule`` without its own.  Engine
        errors, and input nested too deeply for the lowering's stack,
        surface as :class:`EvalError` located at the command.
        """
        for index, item in enumerate(items):
            trip(fault, tag=index)
            command = item
            try:
                if decode is not None:
                    command = decode(item)
                if isinstance(command, (RunCmd, RunScheduleCmd)):
                    command = replace(
                        command,
                        deadline_ms=_first(command.deadline_ms, deadline_ms),
                        max_nodes=_first(command.max_nodes, max_nodes),
                    )
                result = self._HANDLERS[type(command)](self, command)
            except EGraphError as error:
                raise EvalError(str(error), command.loc, self.filename) from error
            except RecursionError:
                raise EvalError(
                    "input nested too deeply", getattr(command, "loc", None), self.filename
                ) from None
            yield command, result

    # -- lowering: s-expressions to terms -------------------------------------

    def _lower_expr(self, sexp: Sexp, pattern: bool) -> Term:
        if isinstance(sexp, Literal):
            return TermLit(sexp.value)
        if isinstance(sexp, Symbol):
            value = self.globals.get(sexp.name)
            if value is not None:
                return TermLit(self.egraph.canonicalize(value))
            if pattern:
                return TermVar(sexp.name)
            raise UnboundSymbolError(
                f"unbound symbol {sexp.name!r} (not a global let binding)",
                sexp.loc,
                self.filename,
            )
        if isinstance(sexp, SList):
            return self._lower_call(sexp, pattern)
        raise EvalError(f"cannot evaluate {sexp}", sexp.loc, self.filename)

    def _lower_call(self, sexp: SList, pattern: bool) -> TermApp:
        if not sexp.items or not isinstance(sexp.items[0], Symbol):
            raise EvalError(
                f"expected a function application, got {sexp}", sexp.loc, self.filename
            )
        items = sexp.items
        head = items[0]
        # Literal arguments, the bulk of ground facts, skip the dispatch.
        args = [
            TermLit(item.value) if type(item) is Literal else self._lower_expr(item, pattern)
            for item in items[1:]
        ]
        decl = self.egraph.decls.get(head.name)
        if decl is not None:
            if len(args) != decl.arity:
                raise ArityError(
                    f"{head.name!r} expects {decl.arity} argument(s), got {len(args)}",
                    sexp.loc,
                    self.filename,
                )
            for index, sort in enumerate(decl.arg_sorts):
                arg = args[index]
                if isinstance(arg, TermLit) and arg.value[0] != sort:
                    args[index] = self._coerce(arg, sort, items[1 + index])
            return TermApp(head.name, tuple(args))
        if head.name in self.egraph.registry:
            return TermApp(head.name, tuple(args))
        raise UnboundSymbolError(
            f"unknown function or primitive {head.name!r}", head.loc, self.filename
        )

    def _coerce(self, term: Term, sort_name: str, origin: Sexp) -> Term:
        """Adapt a literal argument to the declared sort; reject mismatches."""
        if not isinstance(term, TermLit):
            return term  # variables and applications are checked by the engine
        coerced = coerce_literal(term.value, sort_name)
        if coerced is None:
            raise SortError(
                f"expected a {sort_name} here, got a {term.value.sort}",
                origin.loc,
                self.filename,
            )
        return TermLit(coerced)

    def _lower_fact(self, sexp: Sexp) -> Fact:
        if (
            isinstance(sexp, SList)
            and len(sexp.items) == 3
            and isinstance(sexp.items[0], Symbol)
            and sexp.items[0].name == "="
        ):
            return EqFact(
                self._lower_expr(sexp.items[1], pattern=True),
                self._lower_expr(sexp.items[2], pattern=True),
            )
        term = self._lower_expr(sexp, pattern=True)
        if not isinstance(term, TermApp):
            raise EvalError(
                f"a fact must be an application or (= a b), got {sexp}",
                sexp.loc,
                self.filename,
            )
        return term

    def _lower_action(self, sexp: Sexp, pattern: bool) -> Action:
        if isinstance(sexp, SList) and sexp.items and isinstance(sexp.items[0], Symbol):
            head = sexp.items[0].name
            items = sexp.items
            if head == "let":
                self._need(sexp, 3, "(let name expr)")
                name = self._need_symbol(items[1], "a name")
                return Let(name, self._lower_expr(items[2], pattern))
            if head == "union":
                self._need(sexp, 3, "(union a b)")
                return Union(
                    self._lower_expr(items[1], pattern),
                    self._lower_expr(items[2], pattern),
                )
            if head == "set":
                self._need(sexp, 3, "(set (f args) value)")
                target = self._lower_target(items[1], pattern)
                value = self._lower_expr(items[2], pattern)
                # Output position gets the same literal widening as arguments.
                out_sort = self.egraph.decls[target.func].out_sort
                return Set(target, self._coerce(value, out_sort, items[2]))
            if head == "delete":
                self._need(sexp, 2, "(delete (f args))")
                return Delete(self._lower_target(items[1], pattern))
            if head == "panic":
                self._need(sexp, 2, '(panic "message")')
                if not isinstance(items[1], Literal) or items[1].value.sort != "String":
                    raise EvalError(
                        "panic expects a string message", items[1].loc, self.filename
                    )
                return Panic(str(items[1].value.data))
        term = self._lower_expr(sexp, pattern)
        if not isinstance(term, TermApp):
            raise EvalError(
                f"an action must be let/union/set/delete/panic or an application, "
                f"got {sexp}",
                sexp.loc,
                self.filename,
            )
        return Expr(term)

    def _lower_target(self, sexp: Sexp, pattern: bool) -> TermApp:
        """Lower the ``(f args...)`` target of a set/delete; must be a table."""
        if not isinstance(sexp, SList):
            raise EvalError(
                f"expected a function call like (f x ...), got {sexp}",
                sexp.loc,
                self.filename,
            )
        call = self._lower_call(sexp, pattern)
        if call.func not in self.egraph.decls:
            raise EvalError(
                f"{call.func!r} is a primitive; set/delete need a declared function",
                sexp.loc,
                self.filename,
            )
        return call

    def _need(self, sexp: SList, count: int, usage: str) -> None:
        if len(sexp.items) != count:
            raise EvalError(f"malformed action, want {usage}", sexp.loc, self.filename)

    def _need_symbol(self, sexp: Sexp, what: str) -> str:
        if not isinstance(sexp, Symbol):
            raise EvalError(f"expected {what}, got {sexp}", sexp.loc, self.filename)
        return sexp.name

    def _check_sorts(self, sorts: Sequence[str], loc: Loc) -> None:
        for name in sorts:
            if name not in self.egraph.sorts:
                raise SortError(f"undeclared sort {name!r}", loc, self.filename)

    # -- merge / default expressions ------------------------------------------

    def _lower_merge(self, sexp: Sexp) -> Term:
        """Lower a ``:merge`` expression over ``old``/``new``; the engine
        compiles it."""
        # ``old``/``new`` are reserved here: a global of the same name must
        # not be inlined in their place, so mask the globals while lowering.
        masked = {
            name: self.globals.pop(name) for name in ("old", "new") if name in self.globals
        }
        try:
            term = self._lower_expr(sexp, pattern=True)
        finally:
            self.globals.update(masked)
        self._require_primitive_term(
            term, sexp, allowed_vars=("old", "new"), context=":merge"
        )
        return term

    def _lower_default(self, sexp: Sexp, out_sort: str) -> Value:
        """Evaluate a ``:default`` expression (ground, primitives only)."""
        term = self._lower_expr(sexp, pattern=True)
        self._require_primitive_term(term, sexp, allowed_vars=(), context=":default")
        value = self.egraph.add(term)
        coerced = coerce_literal(value, out_sort)
        if coerced is None:
            raise SortError(
                f":default must produce a {out_sort}, got a {value.sort}",
                sexp.loc,
                self.filename,
            )
        return coerced

    def _require_primitive_term(
        self, term: Term, origin: Sexp, allowed_vars: Tuple[str, ...], context: str
    ) -> None:
        """Merge/default expressions may only use primitives and allowed vars."""
        if isinstance(term, TermVar):
            if term.name not in allowed_vars:
                allowed = " and ".join(repr(v) for v in allowed_vars) or "no variables"
                raise EvalError(
                    f"{context} expressions may reference {allowed}, "
                    f"not {term.name!r}",
                    origin.loc,
                    self.filename,
                )
            return
        if isinstance(term, TermApp):
            if term.func in self.egraph.decls:
                raise EvalError(
                    f"{context} expressions may only call primitives, "
                    f"not the function {term.func!r}",
                    origin.loc,
                    self.filename,
                )
            for arg in term.args:
                self._require_primitive_term(arg, origin, allowed_vars, context)

    # -- command handlers -----------------------------------------------------

    def _do_sort(self, cmd: SortCmd) -> None:
        self.egraph.declare_sort(cmd.name)

    def _do_datatype(self, cmd: DatatypeCmd) -> None:
        self.egraph.declare_sort(cmd.name)
        for variant in cmd.variants:
            self._do_constructor(variant)

    def _do_constructor(self, cmd: ConstructorCmd) -> None:
        self._check_sorts(cmd.arg_sorts, cmd.loc)
        self.egraph.constructor(cmd.name, cmd.arg_sorts, cmd.out_sort, cost=cmd.cost)

    def _do_function(self, cmd: FunctionCmd) -> None:
        self._check_sorts(cmd.arg_sorts + (cmd.out_sort,), cmd.loc)
        merge = cmd.merge
        if isinstance(merge, Sexp):
            merge = self._lower_merge(merge)
        default = (
            self._lower_default(cmd.default, cmd.out_sort)
            if cmd.default is not None
            else None
        )
        self.egraph.function(
            cmd.name,
            cmd.arg_sorts,
            cmd.out_sort,
            merge=merge,
            default=default,
            cost=cmd.cost,
            unextractable=cmd.unextractable,
        )

    def _do_relation(self, cmd: RelationCmd) -> None:
        self._check_sorts(cmd.arg_sorts, cmd.loc)
        self.egraph.relation(cmd.name, cmd.arg_sorts)

    def _do_rule(self, cmd: RuleCmd) -> str:
        facts = [self._lower_fact(sexp) for sexp in cmd.facts]
        actions = [self._lower_action(sexp, pattern=True) for sexp in cmd.actions]
        return self.egraph.add_rule(
            Rule(facts=facts, actions=actions, name=cmd.name, ruleset=cmd.ruleset)
        )

    def _do_rewrite(self, cmd: RewriteCmd) -> List[str]:
        lhs = self._lower_expr(cmd.lhs, pattern=True)
        rhs = self._lower_expr(cmd.rhs, pattern=True)
        conditions = [self._lower_fact(sexp) for sexp in cmd.conditions]
        self._check_rewrite_vars(lhs, rhs, conditions, cmd)
        if cmd.bidirectional:
            self._check_rewrite_vars(rhs, lhs, conditions, cmd)
        return self.egraph.add_rewrite(
            lhs,
            rhs,
            conditions=conditions,
            name=cmd.name,
            ruleset=cmd.ruleset,
            bidirectional=cmd.bidirectional,
        )

    def _check_rewrite_vars(
        self, lhs: Term, rhs: Term, conditions: List[Fact], cmd: RewriteCmd
    ) -> None:
        bound = set(lhs.variables())
        for fact in conditions:
            if isinstance(fact, EqFact):
                bound.update(fact.lhs.variables())
                bound.update(fact.rhs.variables())
            else:
                bound.update(fact.variables())
        free = sorted(set(rhs.variables()) - bound)
        if free:
            raise EvalError(
                f"rewrite right-hand side uses unbound variable(s): {', '.join(free)}",
                cmd.loc,
                self.filename,
            )

    def _do_let(self, cmd: LetCmd) -> Value:
        if cmd.name in self.globals:
            raise EvalError(
                f"global {cmd.name!r} is already bound", cmd.loc, self.filename
            )
        term = self._lower_expr(cmd.expr, pattern=False)
        self.globals[cmd.name] = value = self.egraph.add(term)
        return value

    def _do_add(self, cmd: AddCmd) -> Value:
        return self.egraph.add(self._lower_expr(cmd.expr, pattern=False))

    def _do_union(self, cmd: UnionCmd) -> Value:
        return self.egraph.union(
            self._lower_expr(cmd.lhs, pattern=False),
            self._lower_expr(cmd.rhs, pattern=False),
        )

    def _do_set(self, cmd: SetCmd) -> None:
        target = self._lower_target(cmd.call, pattern=False)
        value = self._lower_expr(cmd.value, pattern=False)
        out_sort = self.egraph.decls[target.func].out_sort
        action = Set(target, self._coerce(value, out_sort, cmd.value))
        run_actions(self.egraph, [action], {})

    def _do_delete(self, cmd: DeleteCmd) -> None:
        action = Delete(self._lower_target(cmd.call, pattern=False))
        run_actions(self.egraph, [action], {})

    def _do_top_action(self, cmd: TopAction) -> None:
        head = cmd.sexp.items[0]
        assert isinstance(head, Symbol)
        if head.name not in self.egraph.decls and head.name not in self.egraph.registry:
            raise UnknownCommandError(
                f"unknown command or function {head.name!r}", head.loc, self.filename
            )
        action = self._lower_action(cmd.sexp, pattern=False)
        run_actions(self.egraph, [action], {})

    def _do_run(self, cmd: RunCmd) -> RunReport:
        report = self.egraph.run(
            cmd.limit,
            ruleset=cmd.ruleset,
            deadline_s=_seconds(cmd.deadline_ms),
            max_nodes=cmd.max_nodes,
        )
        self.report.merge_with(report)
        return report

    # -- run-schedule ---------------------------------------------------------

    def _do_run_schedule(self, cmd: RunScheduleCmd) -> RunReport:
        schedules = tuple(self._lower_schedule(sexp) for sexp in cmd.schedules)
        report = self.egraph.run_schedule(
            *schedules, deadline_s=_seconds(cmd.deadline_ms), max_nodes=cmd.max_nodes
        )
        self.report.merge_with(report)
        return report

    def _lower_schedule(self, sexp: Sexp) -> Schedule:
        """Lower a schedule s-expression into engine combinators.

        Grammar (mirroring egglog's surface language):
        ``sched ::= ruleset-name | (run [n] [:ruleset r]) | (saturate sched...)
        | (seq sched...) | (repeat n sched...)``
        """
        if isinstance(sexp, Symbol):
            # A bare ruleset name runs that ruleset for one iteration.
            self._check_ruleset(sexp.name, sexp.loc)
            return Run(1, sexp.name)
        if not isinstance(sexp, SList) or not sexp.items or not isinstance(
            sexp.items[0], Symbol
        ):
            raise EvalError(
                f"expected a schedule like (saturate ...) or a ruleset name, "
                f"got {sexp}",
                sexp.loc,
                self.filename,
            )
        head = sexp.items[0]
        rest = sexp.items[1:]
        if head.name == "saturate":
            return Saturate(tuple(self._lower_schedule(s) for s in rest) or (Run(),))
        if head.name == "seq":
            return Seq(tuple(self._lower_schedule(s) for s in rest))
        if head.name == "repeat":
            if not rest:
                raise EvalError(
                    "'repeat' expects a count and sub-schedules", sexp.loc, self.filename
                )
            times = self._schedule_int(rest[0], "a repeat count")
            body = tuple(self._lower_schedule(s) for s in rest[1:]) or (Run(),)
            return Repeat(times, body)
        if head.name == "run":
            limit = 1
            ruleset = ""
            items = list(rest)
            if items and isinstance(items[0], Literal):
                limit = self._schedule_int(items[0], "an iteration limit")
                items = items[1:]
            if items:
                if (
                    len(items) != 2
                    or not isinstance(items[0], Symbol)
                    or items[0].name != ":ruleset"
                ):
                    raise EvalError(
                        "malformed schedule, want (run [n] [:ruleset r])",
                        sexp.loc,
                        self.filename,
                    )
                ruleset = self._need_symbol(items[1], "a ruleset name")
                self._check_ruleset(ruleset, items[1].loc)
            return Run(limit, ruleset)
        raise EvalError(
            f"unknown schedule combinator {head.name!r} "
            f"(want saturate/seq/repeat/run)",
            head.loc,
            self.filename,
        )

    def _schedule_int(self, sexp: Sexp, what: str) -> int:
        if not isinstance(sexp, Literal) or sexp.value.sort != "i64":
            raise EvalError(
                f"expected {what} (an integer), got {sexp}", sexp.loc, self.filename
            )
        count = int(sexp.value.data)
        if count < 1:
            raise EvalError(f"{what} must be positive, got {count}", sexp.loc, self.filename)
        return count

    def _check_ruleset(self, name: str, loc: Loc) -> None:
        if name not in self.egraph.rulesets:
            raise EvalError(f"unknown ruleset {name!r}", loc, self.filename)

    def _do_check(self, cmd: CheckCmd) -> Tuple[int, List[Fact]]:
        """The facts' match count, 0 when they fail, with the lowered facts.

        A miss is an answer here, not an error: counting the matches builds
        no :class:`CheckError`, whose message would render the facts.
        """
        self.egraph.rebuild()  # globals must be inlined at canonical ids
        facts = [self._lower_fact(sexp) for sexp in cmd.facts]
        return len(self.egraph.query(*facts)), facts

    def _do_extract(self, cmd: ExtractCmd) -> Tuple[int, Term]:
        self.egraph.rebuild()
        return self.egraph.extract_with_cost(self._lower_expr(cmd.expr, pattern=False))

    def _do_query_extract(self, cmd: QueryExtractCmd) -> List[str]:
        """``.egg`` only: returns its printed lines."""
        self.egraph.rebuild()
        expr = self._lower_expr(cmd.expr, pattern=True)
        facts = [self._lower_fact(sexp) for sexp in cmd.facts]
        matches = self.egraph.query(*facts)
        slot_of = {name: slot for slot, name in enumerate(matches[0])} if matches else {}
        program = compile_term(self.egraph, expr, slot_of, lookup=True)
        results = set()
        for match in matches:
            value = program.value(tuple(match.values()))
            if value is None:
                continue
            _cost, best = self.egraph.extract_with_cost(value)
            results.add(format_term(best))
        return [f"query-extract: {len(results)} result(s)"] + [
            f"  {line}" for line in sorted(results)
        ]

    def _do_explain(self, cmd: ExplainCmd) -> Tuple[Term, Term, Any]:
        """The proof chain for ``(explain <e1> <e2>)``, with the two terms."""
        self.egraph.rebuild()
        lhs = self._lower_expr(cmd.lhs, pattern=False)
        rhs = self._lower_expr(cmd.rhs, pattern=False)
        return lhs, rhs, self.egraph.explain(lhs, rhs)

    def _do_stats(self, cmd: StatsCmd) -> Dict[str, object]:
        return self.egraph.stats()

    def _do_push(self, cmd: PushCmd) -> None:
        for _ in range(cmd.count):
            self.egraph.push()
            self._globals_stack.append(dict(self.globals))

    def _do_pop(self, cmd: PopCmd) -> None:
        if cmd.count > len(self._globals_stack):
            raise EvalError(
                f"pop {cmd.count} without matching push "
                f"(stack depth {len(self._globals_stack)})",
                cmd.loc,
                self.filename,
            )
        self.egraph.pop(cmd.count)
        for _ in range(cmd.count):
            self.globals = self._globals_stack.pop()

    # -- persistence ----------------------------------------------------------

    def session_snapshot(self) -> tuple:
        """Capture the evaluator-owned session state (the global ``let``
        environment and its push/pop stack) for a later
        :meth:`session_restore`.  The engine is *not* captured — pair this
        with :meth:`EGraph.snapshot_state` for a full transactional
        snapshot (the session layer's atomic batches do exactly that).
        """
        return (
            dict(self.globals),
            [dict(scope) for scope in self._globals_stack],
        )

    def session_restore(self, snap: tuple) -> None:
        """Reinstall a :meth:`session_snapshot` capture."""
        self.globals = dict(snap[0])
        self._globals_stack = [dict(scope) for scope in snap[1]]

    def save_snapshot(self, path: str) -> None:
        """Snapshot the engine plus this session's global ``let`` bindings.

        The bindings travel in the document's ``surfaces.egg`` section
        (insertion order preserved); engines loaded by other surfaces
        simply ignore it.
        """
        surfaces = {"egg": {"globals": encode_values(self.globals)}}
        self.egraph.save(path, surfaces=surfaces)

    def load_snapshot(self, path: str) -> None:
        """Replace the session state — engine and globals — with a snapshot.

        The push/pop stack empties: pops cannot cross a load (there is no
        earlier in-session state to return to).
        """
        document = self.egraph.load(path)
        surfaces = document.get("surfaces")
        egg = surfaces.get("egg", {}) if isinstance(surfaces, dict) else {}
        self.globals = decode_values(egg.get("globals", []), "egg globals")
        self._globals_stack.clear()

    def _refuse_file_io(self, cmd: Command, name: str) -> None:
        if not self.file_io:
            raise FileAccessError(
                f"({name}) is refused in a served session: it would touch the "
                f"server's files; persist the session with "
                f"POST /sessions/<id>/checkpoint instead",
                cmd.loc,
                self.filename,
            )

    def _do_save(self, cmd: SaveCmd) -> List[str]:
        self._refuse_file_io(cmd, "save")
        try:
            self.save_snapshot(cmd.path)
        except (OSError, SnapshotError) as error:
            raise EvalError(f"save failed: {error}", cmd.loc, self.filename) from error
        return [f"save: {cmd.path}"]

    def _do_load(self, cmd: LoadCmd) -> List[str]:
        self._refuse_file_io(cmd, "load")
        try:
            self.load_snapshot(cmd.path)
        except (OSError, SnapshotError) as error:
            raise EvalError(f"load failed: {error}", cmd.loc, self.filename) from error
        return [f"load: {cmd.path}"]

    # -- `.egg` output --------------------------------------------------------

    def _lines(self, cmd: Command, result: Any) -> List[str]:
        """The lines ``.egg`` prints for one command's result."""
        if isinstance(cmd, (RunCmd, RunScheduleCmd)):
            counts = f"{result.iterations} iteration(s), {result.num_matches} match(es)"
            if isinstance(cmd, RunScheduleCmd):
                return [f"run-schedule: {counts}, {'saturated' if result.saturated else 'done'}"]
            if result.stopped_reason:
                return [f"run: {counts}, stopped: {result.stopped_reason}"]
            return [f"run: {counts}, {'saturated' if result.saturated else 'iteration limit'}"]
        if isinstance(cmd, CheckCmd):
            count, facts = result
            if not count:
                rendered = " ".join(format_fact(fact) for fact in facts)
                raise EvalError(
                    f"check failed: no matches for {rendered}", cmd.loc, self.filename
                )
            return [f"check: ok ({count} match(es))"]
        if isinstance(cmd, ExtractCmd):
            return [f"extract: {format_term(result[1])} (cost {result[0]})"]
        if isinstance(cmd, ExplainCmd):
            # One line per step naming its justification (``rule <name>``,
            # ``congruence <func>``, or ``union``); terms hash-consed to the
            # same e-node print a zero-step reflexive chain.
            lhs, rhs, explanation = result
            steps = explanation.steps
            return [f"explain: {format_term(lhs)} = {format_term(rhs)}: {len(steps)} step(s)"] + [
                f"  {index}. {step.justification.describe()}"
                for index, step in enumerate(steps, start=1)
            ]
        if isinstance(cmd, (QueryExtractCmd, SaveCmd, LoadCmd)):
            return result
        return []

    _HANDLERS = {
        SortCmd: _do_sort,
        DatatypeCmd: _do_datatype,
        ConstructorCmd: _do_constructor,
        FunctionCmd: _do_function,
        RelationCmd: _do_relation,
        RuleCmd: _do_rule,
        RewriteCmd: _do_rewrite,
        LetCmd: _do_let,
        AddCmd: _do_add,
        UnionCmd: _do_union,
        SetCmd: _do_set,
        DeleteCmd: _do_delete,
        TopAction: _do_top_action,
        RunCmd: _do_run,
        RunScheduleCmd: _do_run_schedule,
        CheckCmd: _do_check,
        ExtractCmd: _do_extract,
        QueryExtractCmd: _do_query_extract,
        ExplainCmd: _do_explain,
        StatsCmd: _do_stats,
        PushCmd: _do_push,
        PopCmd: _do_pop,
        SaveCmd: _do_save,
        LoadCmd: _do_load,
    }


def run_program(text: str, filename: Optional[str] = None) -> List[str]:
    """Run one .egg program on a fresh engine; return its output lines."""
    return Evaluator().run_program(text, filename)


def _first(own: Optional[int], batch: Optional[int]) -> Optional[int]:
    """A command's own budget, else the batch's."""
    return own if own is not None else batch


def _seconds(milliseconds: Optional[int]) -> Optional[float]:
    """A budget in seconds.  Deadlines past the largest i64 (about 292
    million years) wait that long, so that every integer converts."""
    if milliseconds is None:
        return None
    return min(milliseconds, I64_MAX) / 1000.0
