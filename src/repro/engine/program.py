"""The one term evaluator: terms and actions compiled to flat register ops.

Every term the engine evaluates runs here: a rule's actions once per match,
top-level ``add``/``union``/``set``/``delete`` (through
:func:`~repro.engine.actions.run_actions`), ``lookup``/``are_equal``/
``explain``, the input of ``extract``, ``query-extract`` once per match, and
``:merge`` expressions (``EGraph.merge_fn``).  A term has one meaning
wherever it appears: get-or-default evaluation (§3.2), where an application
absent from its table is inserted with its function's default output.

Compilation walks each term with an explicit stack and emits one op per
application, so neither compiling nor running recurses once per term level:

* the registers start with the match tuple — every query variable already
  has a slot (``repro.core.compile``) — followed by one register per
  literal, pre-filled with its value, and one per op result;
* an op is an instruction and two operands, ``(fn, a, b)``: an application
  reads its argument registers through a key getter ``a`` and writes its
  result to the fresh register ``b``.  An instruction closes over the
  engine and one function's table; a program makes it once and shares it
  among its ops.  There is no engine-wide cache of instructions, so a
  one-shot program and its instructions are freed together;
* a per-register canonical flag records which registers hold canonical
  values (non-eq literals, constructor and lookup results).  An op that
  needs a canonical argument from any other register — a variable, a
  primitive result — reads a copy that a ``canon`` op made, once per
  action: flags hold within one action, since the next may union;
* ``let`` binds its name to the register of its value.

In *lookup mode* (``compile_term(..., lookup=True)``) an application reads
its row and never inserts: an absent row or a failing primitive ends the
program with ``None``, and nothing is written.  Symbol and arity errors
are raised while compiling, before any op runs; an unbound variable is an
error only when its op runs, since a rule may never fire.

Rule programs are cached per rule and invalidated by the engine's compile
epoch, which every restore bumps (pop, rollback, a fork's child); a
replaced rule starts with none — see ``EGraph.rule_exec``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.compile import MatchTuple
from ..core.proofs import Justification, rule_justification
from ..core.terms import Term, TermApp, TermLit, TermVar
from ..core.values import UNIT, UNIT_VALUE, Value
from .actions import Action, Delete, Expr, Let, Panic, Set as SetAction, Union
from .actions import set_function_value
from .compilecache import CACHE
from .errors import EGraphError, EGraphPanic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph
    from .rule import CompiledRule

Regs = List[Optional[Value]]
Instruction = Callable[[Regs, Any, Any], None]
Op = Tuple[Instruction, Any, Any]
KeyFn = Callable[[Regs], Tuple[Value, ...]]
#: Makes an instruction for one engine and a name (function, primitive or
#: union justification).
Maker = Callable[["EGraph", Any], Instruction]


class _Absent(EGraphError):
    """No row, or no primitive result: a lookup answers None, and any other
    program fails with this error."""


@lru_cache(maxsize=4096)
def _key_of(regs: Tuple[int, ...]) -> KeyFn:
    """A function reading the registers ``regs`` as a tuple (shared)."""
    if len(regs) > 1:
        return itemgetter(*regs)  # type: ignore[return-value]
    if regs:
        only = regs[0]
        return lambda values: (values[only],)  # type: ignore[return-value]
    return lambda values: ()


# -- instructions -------------------------------------------------------------


def _canon(egraph: "EGraph", _name: None) -> Instruction:
    def canon(regs: Regs, src: int, dst: int) -> None:
        regs[dst] = egraph.canonicalize(regs[src])  # type: ignore[arg-type]

    return canon


def _prim(egraph: "EGraph", name: str) -> Instruction:
    registry = egraph.registry

    def prim(regs: Regs, key_of: KeyFn, out: int) -> None:
        args = key_of(regs)
        result = registry.call(name, args)
        if result is None:
            raise _Absent(f"primitive {name!r} failed on {args!r}")
        regs[out] = result

    return prim


def _find(egraph: "EGraph", func: str) -> Instruction:
    table = egraph.tables[func]

    def find(regs: Regs, key_of: KeyFn, out: int) -> None:
        existing = table.get(key_of(regs))
        if existing is None:
            raise _Absent
        regs[out] = egraph.canonicalize(existing)

    return find


def _assert(egraph: "EGraph", func: str) -> Instruction:
    table = egraph.tables[func]

    def assert_fact(regs: Regs, key_of: KeyFn, out: int) -> None:
        # A unit relation's output is the pre-filled unit value.
        key = key_of(regs)
        if table.get(key) is None:
            table.put(key, UNIT_VALUE, egraph.timestamp)
            egraph.note_update()

    return assert_fact


def _construct(egraph: "EGraph", func: str) -> Instruction:
    table, out_sort = egraph.tables[func], egraph.decls[func].out_sort

    def construct(regs: Regs, key_of: KeyFn, out: int) -> None:
        # The default is a fresh e-class id (the paper's make-set default).
        key = key_of(regs)
        existing = table.get(key)
        if existing is not None:
            regs[out] = egraph.canonicalize(existing)
            return
        value = egraph.make_id(out_sort)
        table.put(key, value, egraph.timestamp)
        egraph.record_node(func, key, value)
        egraph.note_update()
        regs[out] = value

    return construct


def _get_or_default(egraph: "EGraph", func: str) -> Instruction:
    table, decl = egraph.tables[func], egraph.decls[func]

    def get_or_default(regs: Regs, key_of: KeyFn, out: int) -> None:
        key = key_of(regs)
        existing = table.get(key)
        if existing is not None:
            regs[out] = egraph.canonicalize(existing)
            return
        value = egraph._default_value(decl, key)
        table.put(key, egraph.canonicalize(value), egraph.timestamp)
        egraph.record_node(func, key, value)
        egraph.note_update()
        regs[out] = value

    return get_or_default


def _union(egraph: "EGraph", reason: Optional[Justification]) -> Instruction:
    union_values = egraph.union_values

    def union(regs: Regs, lhs: int, rhs: int) -> None:
        union_values(regs[lhs], regs[rhs], reason)  # type: ignore[arg-type]

    return union


def _set(egraph: "EGraph", func: str) -> Instruction:
    decl = egraph.decls[func]

    def set_value(regs: Regs, key_of: KeyFn, value: int) -> None:
        set_function_value(egraph, decl, key_of(regs), regs[value])  # type: ignore[arg-type]

    return set_value


def _delete(egraph: "EGraph", func: str) -> Instruction:
    remove_row = egraph.remove_row

    def delete(regs: Regs, key_of: KeyFn, _unused: None) -> None:
        remove_row(func, key_of(regs))

    return delete


def _panic(regs: Regs, message: str, _unused: None) -> None:
    raise EGraphPanic(message)


def _unbound(regs: Regs, name: str, _unused: None) -> None:
    raise EGraphError(f"unbound variable {name!r} in term evaluation")


class ActionProgram:
    """Straight-line register ops; see the module docstring.

    ``env`` maps every bound name (match slots and ``let``s) to its
    register, and ``result`` is the register of the last term compiled.
    """

    __slots__ = ("ops", "_pad", "env", "result", "lookup")

    def __init__(
        self, ops: Tuple[Op, ...], pad: Regs, env: Dict[str, int], result: int, lookup: bool
    ) -> None:
        self.ops = ops
        self._pad = pad
        self.env = env
        self.result = result
        self.lookup = lookup

    def execute(self, match: MatchTuple = ()) -> Regs:
        """Run the ops under ``match`` (one tuple, slot order); the registers."""
        regs: Regs = list(match)
        if self._pad:
            regs.extend(self._pad)
        for fn, a, b in self.ops:
            fn(regs, a, b)
        return regs

    def value(self, match: MatchTuple = ()) -> Optional[Value]:
        """The value of the program's term; None when a lookup misses."""
        try:
            return self.execute(match)[self.result]
        except _Absent:
            if self.lookup:
                return None
            raise


class _Compiler:
    """One program under construction: its ops, registers and flags."""

    def __init__(
        self, egraph: "EGraph", slot_of: Dict[str, int], n_slots: int, lookup: bool = False
    ) -> None:
        self.egraph = egraph
        self.lookup = lookup
        self.env = dict(slot_of)
        self.n_slots = n_slots
        self.ops: List[Op] = []
        self.pad: Regs = []
        #: Register -> register holding its canonical value, this action.
        self.canon: Dict[int, int] = {}
        #: Instructions made so far, shared by every op that uses one.
        self.made: Dict[Tuple[Maker, Any], Instruction] = {}
        self.result = -1

    def emit(self, maker: Maker, name: Any, a: Any, b: Any) -> None:
        """Append an op running ``maker``'s instruction for ``name``."""
        fn = self.made.get((maker, name))
        if fn is None:
            fn = self.made[(maker, name)] = maker(self.egraph, name)
        self.ops.append((fn, a, b))

    def reg(self, value: Optional[Value] = None) -> int:
        """A fresh register, pre-filled with ``value``."""
        self.pad.append(value)
        return self.n_slots + len(self.pad) - 1

    def canonical(self, reg: int) -> int:
        """A register holding the canonical form of ``reg``'s value."""
        got = self.canon.get(reg)
        if got is None:
            got = self.canon[reg] = self.reg()
            self.canon[got] = got
            self.emit(_canon, None, reg, got)
        return got

    def term(self, term: Term) -> int:
        """Emit the ops computing ``term``; the register of its value.

        Post-order, left to right: arguments are evaluated (and inserted)
        in the order the paper's bottom-up evaluation visits them.  That
        order is a pre-order visiting children right to left, reversed.
        """
        order: List[Term] = []
        stack = [term]
        while stack:
            node = stack.pop()
            order.append(node)
            if isinstance(node, TermApp):
                stack.extend(node.args)
        done: List[int] = []
        for node in reversed(order):
            if isinstance(node, TermApp):
                start = len(done) - len(node.args)
                args = done[start:]
                del done[start:]
                done.append(self.apply(node, args))
            elif isinstance(node, TermLit):
                reg = self.reg(node.value)
                if node.value[0] not in self.egraph._eq_sorts:  # type: ignore[index]
                    self.canon[reg] = reg
                done.append(reg)
            elif isinstance(node, TermVar):
                reg = self.env.get(node.name, -1)
                if reg < 0:
                    reg = self.reg()
                    self.ops.append((_unbound, node.name, None))
                done.append(reg)
            else:
                raise EGraphError(f"cannot evaluate {node!r}")
        self.result = done[0]
        return done[0]

    def apply(self, node: TermApp, args: List[int]) -> int:
        """Emit the op of one application over argument registers ``args``."""
        egraph = self.egraph
        decl = egraph.decls.get(node.func)
        if decl is None and node.func not in egraph.registry:
            raise EGraphError(
                f"{node} uses unknown symbol {node.func!r} "
                f"(neither a declared function nor a primitive)"
            )
        if decl is not None and len(args) != decl.arity:
            egraph._check_arity(decl, len(args), node)
        canon = self.canon
        key_of = _key_of(tuple([canon[r] if r in canon else self.canonical(r) for r in args]))
        maker: Maker
        if decl is None:
            maker, canonical = _prim, False
        elif self.lookup:
            maker, canonical = _find, True
        elif decl.default is None and decl.out_sort == UNIT:
            maker, canonical = _assert, True
        elif decl.default is None and decl.out_sort in egraph._eq_sorts:
            maker, canonical = _construct, True
        else:
            maker, canonical = _get_or_default, False
        out = self.reg(UNIT_VALUE if maker is _assert else None)
        if canonical:
            canon[out] = out
        self.emit(maker, node.func, key_of, out)
        return out

    def target(self, call: TermApp) -> KeyFn:
        """Compile a set/delete target's arguments into a canonical key."""
        decl = self.egraph.decls.get(call.func)
        if decl is None:
            raise EGraphError(f"action targets unknown function {call.func!r}")
        if len(call.args) != decl.arity:
            self.egraph._check_arity(decl, len(call.args), call)
        return _key_of(tuple([self.canonical(self.term(arg)) for arg in call.args]))

    def action(self, action: Action, reason: Optional[Justification]) -> None:
        self.canon = {}  # the previous action may have unioned
        if isinstance(action, Let):
            self.env[action.name] = self.term(action.expr)
        elif isinstance(action, Expr):
            self.term(action.expr)
        elif isinstance(action, Union):
            lhs = self.canonical(self.term(action.lhs))
            rhs = self.canonical(self.term(action.rhs))
            self.emit(_union, reason, lhs, rhs)
        elif isinstance(action, SetAction):
            key_of = self.target(action.call)
            value = self.canonical(self.term(action.value))
            self.emit(_set, action.call.func, key_of, value)
        elif isinstance(action, Delete):
            self.emit(_delete, action.call.func, self.target(action.call), None)
        elif isinstance(action, Panic):
            self.ops.append((_panic, action.message, None))
        else:
            raise EGraphError(f"unknown action {action!r}")

    def program(self) -> ActionProgram:
        return ActionProgram(tuple(self.ops), self.pad, self.env, self.result, self.lookup)


def compile_actions(
    egraph: "EGraph",
    actions: Sequence[Action],
    slot_of: Dict[str, int],
    n_slots: int,
    reason: Optional[Justification] = None,
) -> ActionProgram:
    """Lower ``actions`` into an :class:`ActionProgram` over ``n_slots`` slots.

    ``reason`` is baked into every compiled union op so the proof forest
    records fire-time rule identity even though the program outlives the
    compilation — it shares the executor cache's lifetime (compile epoch),
    so a replaced rule's fresh executor carries the fresh justification.
    Without one, unions take the engine's ambient reason.
    """
    compiler = _Compiler(egraph, slot_of, n_slots)
    for action in actions:
        compiler.action(action, reason)
    return compiler.program()


def compile_term(
    egraph: "EGraph",
    term: Term,
    slot_of: Optional[Dict[str, int]] = None,
    *,
    lookup: bool = False,
) -> ActionProgram:
    """Lower one term; ``program.value(match)`` evaluates it.

    With ``lookup=True`` the program only reads: it answers None as soon
    as a row is absent or a primitive fails, and needs canonical tables
    (rebuild first).
    """
    slot_of = slot_of or {}
    compiler = _Compiler(egraph, slot_of, len(slot_of), lookup)
    compiler.term(term)
    return compiler.program()


# ---------------------------------------------------------------------------
# Per-rule executor bundle
# ---------------------------------------------------------------------------


class RuleExec:
    """Everything one rule needs to run hot: plan, slots, action program.

    Built by ``EGraph.rule_exec`` and cached on the rule;
    ``epoch`` pins it to the engine state it was compiled against — the
    engine bumps its compile epoch on every restore (pop, a rolled-back
    batch, a fork's child), which invalidates every cached executor
    (ops capture tables and declarations a restore may replace).  A
    capture (push, a batch's transaction) keeps them, and a replaced rule
    is a fresh object with no executor.

    The engine-independent half — slot assignment and the compiled query
    search — comes from the process-level plan cache
    (:mod:`repro.engine.compilecache`), so engines sharing a primitive
    registry (e.g. sessions forked from one base) share query plans; only
    the action program, which captures this engine's tables and counters,
    is compiled fresh per executor.
    """

    __slots__ = (
        "epoch",
        "slot_of",
        "slot_names",
        "n_slots",
        "query_exec",
        "program",
        "reason",
    )

    def __init__(self, egraph: "EGraph", rule: "CompiledRule") -> None:
        self.epoch = egraph.compile_epoch
        #: Justification for unions this rule performs; baked into the
        #: compiled union ops and installed as the ambient reason while the
        #: scheduler applies this rule's matches.
        self.reason = rule_justification(rule.name)
        plan = CACHE.plan(rule.query, egraph.registry)
        self.slot_of = plan.slot_of
        self.slot_names = plan.slot_names
        self.n_slots = plan.n_slots
        self.query_exec = plan.query_exec
        self.program = compile_actions(
            egraph, rule.actions, plan.slot_of, plan.n_slots, self.reason
        )

    def search_full(self, tables: Dict[str, object]) -> List[MatchTuple]:
        """All matches of the query (no delta restriction), in plan order."""
        out: List[MatchTuple] = []
        self.query_exec.search(tables, None, 0, out.append)  # type: ignore[attr-defined]
        return out

    def search_delta(
        self,
        tables: Dict[str, object],
        delta_atom: int,
        since: int,
        seen: Set[MatchTuple],
        out: List[MatchTuple],
    ) -> None:
        """Semi-naïve delta search, deduplicating into ``seen``/``out``.

        Match tuples are canonical positional substitutions, so the
        cross-atom dedup is one tuple hash per match — no dict sorting.
        """
        seen_add = seen.add
        out_append = out.append

        def emit(match: MatchTuple) -> None:
            if match not in seen:
                seen_add(match)
                out_append(match)

        self.query_exec.search(tables, delta_atom, since, emit)  # type: ignore[attr-defined]

    def substitution(self, match: MatchTuple) -> Dict[str, Value]:
        """Re-inflate a match tuple into a name-keyed substitution dict."""
        return dict(zip(self.slot_names, match))
