"""Compiled query plans: the one search path for rule bodies and queries.

Rule bodies and one-off public queries (``query``, ``check``) both run
through the executors here (journals_pacmpl_ZhangWFCZRTW23 §4–5).  A
compiled rule runs its query millions of times against the same
*structure* — only the data changes — so everything structural is
resolved once per query:

* **Slots.**  Query variables become integer slots
  (:func:`assign_slots`); a match is a plain ``tuple`` of values in slot
  order instead of a dict.  Scheduler-side deduplication of semi-naïve
  delta matches hashes those canonical tuples directly.
* **Column roles.**  Each atom's columns are classified at plan time into
  constants, first-occurrence bindings, and repeated-variable checks, so
  the per-row inner loops below do zero ``isinstance`` work.
* **Primitive programs.**  Primitive atoms are scheduled once into a
  straight-line program (:func:`compile_prims`) whose steps fetch
  arguments from slots.

Two executors, and :func:`compile_query` picks one from the shape of the
body (:func:`is_acyclic`):

* :class:`CompiledIndexedQuery` — index-nested-loop join, for α-acyclic
  bodies (every rule the examples, golden files and benchmarks hold).
  The greedy atom order adapts to live table sizes via
  :func:`plan_order`; the per-atom step structures are cached keyed by
  the resulting order.
* :class:`CompiledGenericQuery` — worst-case optimal generic join, for
  cyclic bodies such as triangles.  Every atom without a repeated
  variable descends its table's trie (``Table.trie``: built on first
  use, then maintained on write), except the delta atom, whose trie is
  built per search from the write log's new rows.  The per-depth sets of
  involved atoms are fully static, so the descent does no per-node atom
  scanning.

Both support *delta* searches for semi-naïve evaluation: one designated
atom is restricted to rows whose timestamp is at least ``since``.

Cache invalidation is the engine's job: a rule's compiled executor is
cached on the rule and keyed by the engine's compile epoch, which
push/pop and rule replacement bump (see ``EGraph.rule_exec``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .builtins import PrimitiveRegistry
from .database import Table
from .index import NONEMPTY, descend_constants, plan_query
from .query import Query, QVar, TableAtom
from .values import BOOL, UNIT, Value

MatchTuple = Tuple[Value, ...]

#: Shared immutable "exhausted sub-trie" node (never mutated: the descent
#: only calls ``len``/``get``/iteration on nodes).
_EMPTY: Dict = {}


def assign_slots(query: Query) -> Tuple[Dict[str, int], Tuple[str, ...]]:
    """Map every query variable to an integer slot (first-occurrence order).

    Table-atom variables come first (in column order of appearance), then
    variables that only primitive atoms mention.  The mapping is shared by
    the query executors and the rule's compiled action program, so a match
    tuple indexes directly into action opcodes.
    """
    slot_of: Dict[str, int] = {}
    names: List[str] = []
    for atom in query.atoms:
        for col in atom.columns():
            if isinstance(col, QVar) and col.name not in slot_of:
                slot_of[col.name] = len(names)
                names.append(col.name)
    for prim in query.prims:
        for col in prim.args + (prim.out,):
            if isinstance(col, QVar) and col.name not in slot_of:
                slot_of[col.name] = len(names)
                names.append(col.name)
    return slot_of, tuple(names)


def plan_order(
    atoms: Sequence[TableAtom],
    tables: Dict[str, Table],
    delta_index: Optional[int],
) -> List[int]:
    """Greedy join order for the indexed executor: the delta atom first,
    then atoms that share the most already-bound variables, tie-broken by
    smallest table."""
    remaining = list(range(len(atoms)))
    order: List[int] = []
    bound: Set[str] = set()

    def take(index: int) -> None:
        order.append(index)
        remaining.remove(index)
        bound.update(atoms[index].variables())

    if delta_index is not None:
        take(delta_index)
    while remaining:
        best = None
        best_key = None
        for index in remaining:
            atom = atoms[index]
            atom_vars = set(atom.variables())
            n_bound = len(atom_vars & bound)
            size = len(tables[atom.func]) if atom.func in tables else 0
            key = (-n_bound, size)
            if best_key is None or key < best_key:
                best_key = key
                best = index
        take(best)  # type: ignore[arg-type]
    return order


# ---------------------------------------------------------------------------
# Primitive programs
# ---------------------------------------------------------------------------

_OUT_GUARD = 0
_OUT_BIND = 1
_OUT_CHECK_SLOT = 2
_OUT_CHECK_CONST = 3

#: One scheduled primitive step: (op name, arg fetch specs, out kind, payload).
#: An arg spec is ``(True, slot)`` or ``(False, constant Value)``.
PrimStep = Tuple[str, Tuple[Tuple[bool, object], ...], int, object]


def compile_prims(
    prims: Sequence,
    slot_of: Dict[str, int],
    bound_slots: Set[int],
    registry: PrimitiveRegistry,
) -> Optional[Callable[[List[Optional[Value]]], bool]]:
    """Schedule primitive atoms into a straight-line slot program.

    Evaluates to a fixpoint: repeatedly schedule every primitive whose
    inputs are bound; an output may bind a fresh slot.  Returns a runner
    ``regs -> bool`` (True iff every guard passed), or ``None`` when some
    primitive's inputs can never be bound — such an unsafe query fails
    every match, so callers must treat ``None`` as "no matches".
    """
    steps: List[PrimStep] = []
    bound = set(bound_slots)
    pending = list(prims)
    progress = True
    while pending and progress:
        progress = False
        still_pending = []
        for prim in pending:
            arg_specs: List[Tuple[bool, object]] = []
            ready = True
            for arg in prim.args:
                if isinstance(arg, QVar):
                    slot = slot_of[arg.name]
                    if slot not in bound:
                        ready = False
                        break
                    arg_specs.append((True, slot))
                else:
                    arg_specs.append((False, arg))
            if not ready:
                still_pending.append(prim)
                continue
            out = prim.out
            if out is None:
                out_kind, payload = _OUT_GUARD, None
            elif isinstance(out, QVar):
                slot = slot_of[out.name]
                if slot in bound:
                    out_kind, payload = _OUT_CHECK_SLOT, slot
                else:
                    out_kind, payload = _OUT_BIND, slot
                    bound.add(slot)
            else:
                out_kind, payload = _OUT_CHECK_CONST, out
            steps.append((prim.op, tuple(arg_specs), out_kind, payload))
            progress = True
        pending = still_pending
    if pending:
        return None  # unsafe query: inputs never bound, every match fails

    if not steps:
        return lambda regs: True

    frozen = tuple(steps)
    registry_call = registry.call

    def run(regs: List[Optional[Value]]) -> bool:
        for op, arg_specs, out_kind, payload in frozen:
            args = tuple(
                regs[spec] if is_slot else spec for is_slot, spec in arg_specs
            )
            result = registry_call(op, args)
            if result is None:
                return False
            if out_kind == _OUT_GUARD:
                sort = result[0]  # Value is a (sort, data) tuple; C indexing
                if sort == BOOL and not result[1]:
                    return False
                if sort not in (BOOL, UNIT):
                    return False
            elif out_kind == _OUT_BIND:
                regs[payload] = result
            elif out_kind == _OUT_CHECK_SLOT:
                if regs[payload] != result:
                    return False
            else:
                if payload != result:
                    return False
        return True

    return run


def _table_bound_slots(query: Query, slot_of: Dict[str, int]) -> Set[int]:
    """Slots bound by table atoms (order-independent: every atom binds all
    its variables regardless of join order)."""
    bound: Set[int] = set()
    for atom in query.atoms:
        for col in atom.columns():
            if isinstance(col, QVar):
                bound.add(slot_of[col.name])
    return bound


# ---------------------------------------------------------------------------
# Indexed (index-nested-loop) executor
# ---------------------------------------------------------------------------


class _IndexedStep:
    """One atom of an indexed plan, with column roles resolved.

    ``proj_cols``/``proj_get`` describe the hash-index lookup (constants and
    already-bound variables); ``by_key`` marks a step whose key columns are
    all bound, which probes the row dict by key instead of an index;
    ``key_binds``/``out_bind`` write first-occurrence variables into slots;
    ``key_dups``/``out_dup`` check repeated variables;
    ``key_consts``/``out_const`` check constants per row (used by the delta
    step, which scans the write log instead of an index).
    """

    __slots__ = (
        "func",
        "arity",
        "is_delta",
        "by_key",
        "proj_cols",
        "proj_get",
        "key_consts",
        "out_const",
        "key_binds",
        "out_bind",
        "key_dups",
        "out_dup",
    )

    def __init__(
        self,
        atom: TableAtom,
        arity: int,
        bound: Set[int],
        slot_of: Dict[str, int],
        is_delta: bool,
    ) -> None:
        self.func = atom.func
        self.arity = arity
        self.is_delta = is_delta
        proj_cols: List[int] = []
        proj_get: List[Tuple[bool, object]] = []
        key_consts: List[Tuple[int, Value]] = []
        self.out_const: Optional[Value] = None
        key_binds: List[Tuple[int, int]] = []
        self.out_bind: Optional[int] = None
        key_dups: List[Tuple[int, int]] = []
        self.out_dup: Optional[int] = None
        seen_here: Set[int] = set()
        for col_index, col in enumerate(atom.columns()):
            is_out = col_index == arity
            if isinstance(col, QVar):
                slot = slot_of[col.name]
                if slot in bound:
                    # Bound by an earlier atom: part of the index lookup.
                    proj_cols.append(col_index)
                    proj_get.append((True, slot))
                elif slot in seen_here:
                    # Repeated within this atom: per-row equality check
                    # against the first occurrence's freshly-bound slot.
                    if is_out:
                        self.out_dup = slot
                    else:
                        key_dups.append((col_index, slot))
                else:
                    seen_here.add(slot)
                    if is_out:
                        self.out_bind = slot
                    else:
                        key_binds.append((col_index, slot))
            elif is_delta:
                # The delta step scans the write log, so constants are
                # checked per row rather than descended through an index.
                if is_out:
                    self.out_const = col
                else:
                    key_consts.append((col_index, col))
            else:
                proj_cols.append(col_index)
                proj_get.append((False, col))
        bound.update(seen_here)
        self.by_key = not is_delta and proj_cols[:arity] == list(range(arity))
        self.proj_cols = tuple(proj_cols)
        self.proj_get = tuple(proj_get)
        self.key_consts = tuple(key_consts)
        self.key_binds = tuple(key_binds)
        self.key_dups = tuple(key_dups)


class CompiledIndexedQuery:
    """Positional index-nested-loop executor for one query.

    Per-atom step structures are cached keyed by ``(delta_atom, order)``:
    the greedy atom order (:func:`plan_order`) still consults live table
    sizes, but once an order has been seen its column-role resolution is
    never repeated.
    """

    def __init__(
        self,
        query: Query,
        slot_of: Dict[str, int],
        n_slots: int,
        registry: PrimitiveRegistry,
    ) -> None:
        self.query = query
        self.slot_of = slot_of
        self.n_slots = n_slots
        self.prim_runner = compile_prims(
            query.prims, slot_of, _table_bound_slots(query, slot_of), registry
        )
        #: No primitive atoms at all: the leaf emits without a runner call.
        self.no_prims = not query.prims
        self._steps_cache: Dict[
            Tuple[Optional[int], Tuple[int, ...]], Tuple[_IndexedStep, ...]
        ] = {}

    def _steps_for(
        self,
        delta_atom: Optional[int],
        order: Tuple[int, ...],
        tables: Dict[str, Table],
    ) -> Tuple[_IndexedStep, ...]:
        cached = self._steps_cache.get((delta_atom, order))
        if cached is not None:
            return cached
        atoms = self.query.atoms
        bound: Set[int] = set()
        steps = tuple(
            _IndexedStep(
                atoms[index],
                tables[atoms[index].func].decl.arity,
                bound,
                self.slot_of,
                delta_atom is not None and index == delta_atom,
            )
            for index in order
        )
        self._steps_cache[(delta_atom, order)] = steps
        return steps

    def search(
        self,
        tables: Dict[str, Table],
        delta_atom: Optional[int],
        since: int,
        emit: Callable[[MatchTuple], None],
    ) -> None:
        """Run the query, calling ``emit`` once per match tuple."""
        query = self.query
        atoms = query.atoms
        prim_runner = self.prim_runner
        if prim_runner is None:
            return  # unsafe primitive schedule: every match fails
        if not atoms:
            regs: List[Optional[Value]] = [None] * self.n_slots
            if prim_runner(regs):
                emit(tuple(regs))  # type: ignore[arg-type]
            return
        for atom in atoms:
            if atom.func not in tables:
                return
        order = tuple(plan_order(atoms, tables, delta_atom))
        steps = self._steps_for(delta_atom, order, tables)
        regs = [None] * self.n_slots
        self._walk(0, steps, tables, since, regs, emit)

    def _walk(
        self,
        position: int,
        steps: Tuple[_IndexedStep, ...],
        tables: Dict[str, Table],
        since: int,
        regs: List[Optional[Value]],
        emit: Callable[[MatchTuple], None],
    ) -> None:
        step = steps[position]
        table = tables[step.func]
        if step.is_delta:
            candidates = table.new_keys(since)
        elif step.by_key:
            proj = tuple(
                [regs[spec] if is_slot else spec for is_slot, spec in step.proj_get]
            )
            key = proj[: step.arity]
            row = table.data.get(key)
            if row is None or (len(proj) > step.arity and row.value != proj[-1]):
                return
            candidates = [key]
        elif step.proj_cols:
            index = table.index(step.proj_cols)
            proj = tuple(
                [regs[spec] if is_slot else spec for is_slot, spec in step.proj_get]
            )
            entry = index.get(proj)
            if not entry:
                return
            # Snapshot the entry: the index is live (incrementally
            # maintained) and deeper steps may trigger table reads.
            candidates = list(entry)
        else:
            candidates = list(table.data.keys())

        data = table.data
        is_delta = step.is_delta
        key_consts = step.key_consts
        out_const = step.out_const
        key_binds = step.key_binds
        out_bind = step.out_bind
        key_dups = step.key_dups
        out_dup = step.out_dup
        next_position = position + 1
        # The deepest step emits inline instead of recursing once per row.
        at_leaf = next_position == len(steps)
        prim_runner = None if self.no_prims else self.prim_runner
        for key in candidates:
            row = data.get(key)
            if row is None:
                continue
            if is_delta and row.timestamp < since:
                continue
            if out_const is not None and row.value != out_const:
                continue
            ok = True
            for col, expected in key_consts:
                if key[col] != expected:
                    ok = False
                    break
            if not ok:
                continue
            for col, slot in key_binds:
                regs[slot] = key[col]
            if out_bind is not None:
                regs[out_bind] = row.value
            for col, slot in key_dups:
                if key[col] != regs[slot]:
                    ok = False
                    break
            if not ok:
                continue
            if out_dup is not None and row.value != regs[out_dup]:
                continue
            if at_leaf:
                if prim_runner is None or prim_runner(regs):
                    emit(tuple(regs))  # type: ignore[arg-type]
            else:
                self._walk(next_position, steps, tables, since, regs, emit)


# ---------------------------------------------------------------------------
# Generic-join executor
# ---------------------------------------------------------------------------

_ROLE_BIND = 0
_ROLE_DUP = 1
_ROLE_CONST = 2


class _GenericAtom:
    """Static per-atom data for the generic-join executor.

    ``spec`` is the table-trie access plan (None for repeated-variable
    atoms).  ``roles`` drive the per-search trie build with zero per-row
    isinstance work: each entry is ``(role, payload)`` per column — bind
    into a local projection slot, compare against an earlier local slot, or
    compare against a constant.  ``permutation`` reorders the projected row
    into the global variable-rank order for the trie build.
    """

    __slots__ = ("func", "spec", "sorted_vars", "roles", "permutation", "width")

    def __init__(self, atom: TableAtom, spec, var_rank: Dict[str, int]) -> None:
        self.func = atom.func
        self.spec = spec
        local_of: Dict[str, int] = {}
        names: List[str] = []
        roles: List[Tuple[int, object]] = []
        for col in atom.columns():
            if isinstance(col, QVar):
                local = local_of.get(col.name)
                if local is None:
                    local_of[col.name] = len(names)
                    roles.append((_ROLE_BIND, len(names)))
                    names.append(col.name)
                else:
                    roles.append((_ROLE_DUP, local))
            else:
                roles.append((_ROLE_CONST, col))
        sorted_names = tuple(sorted(names, key=lambda v: var_rank[v]))
        self.sorted_vars = sorted_names
        self.roles = tuple(roles)
        self.permutation = tuple(names.index(v) for v in sorted_names)
        self.width = len(names)


class CompiledGenericQuery:
    """Positional worst-case-optimal generic-join executor for one query.

    The global variable order, the per-depth involved-atom lists, and every
    atom's column roles are resolved once at construction; an execution
    only descends tries and intersects children.
    """

    def __init__(
        self,
        query: Query,
        slot_of: Dict[str, int],
        n_slots: int,
        registry: PrimitiveRegistry,
    ) -> None:
        self.query = query
        self.slot_of = slot_of
        self.n_slots = n_slots
        self.prim_runner = compile_prims(
            query.prims, slot_of, _table_bound_slots(query, slot_of), registry
        )
        self.no_prims = not query.prims
        plan = plan_query(query)
        self.var_order = plan.var_order
        self.depth_slots = tuple(slot_of[name] for name in plan.var_order)
        self.atoms = tuple(
            _GenericAtom(atom, spec, plan.var_rank)
            for atom, spec in zip(query.atoms, plan.specs)
        )
        # Ascending atom order per depth (the size comparison in
        # ``_descend`` tie-breaks on the first atom in that order).
        self.involved = tuple(
            tuple(
                index
                for index, ga in enumerate(self.atoms)
                if depth_var in ga.sorted_vars
            )
            for depth_var in self.var_order
        )

    # -- per-execution trie setup --------------------------------------------

    def _atom_node(
        self,
        ga: _GenericAtom,
        table: Table,
        restrict: bool,
        since: int,
    ) -> Optional[Dict]:
        """The sub-trie this atom contributes, or None when it is empty.

        A non-delta atom with a spec descends its table's trie.  The delta
        atom's trie is built here from the rows new since ``since``, and a
        repeated-variable atom's from every row: project rows through the
        precomputed column roles, building the trie in variable-rank order.
        """
        if ga.spec is not None and not restrict:
            return descend_constants(
                table.trie(ga.spec.order).root, ga.spec.const_values
            )
        roles = ga.roles
        width = ga.width
        permutation = ga.permutation
        root: Dict = {}
        matched = False
        if restrict:
            data = table.data
            row_iter = (
                (key, data[key]) for key in table.new_keys(since)
            )
        else:
            row_iter = iter(table.data.items())
        local: List[Optional[Value]] = [None] * (width or 1)
        for key, row in row_iter:
            full = key + (row.value,)
            ok = True
            for position, (role, payload) in enumerate(roles):
                value = full[position]
                if role == _ROLE_BIND:
                    local[payload] = value
                elif role == _ROLE_DUP:
                    if value != local[payload]:
                        ok = False
                        break
                else:
                    if value != payload:
                        ok = False
                        break
            if not ok:
                continue
            matched = True
            if not width:
                continue
            node = root
            for level in permutation[:-1]:
                node = node.setdefault(local[level], {})
            node[local[permutation[-1]]] = True
        if not width:
            return NONEMPTY if matched else None
        return root if root else None

    # -- execution -----------------------------------------------------------

    def search(
        self,
        tables: Dict[str, Table],
        delta_atom: Optional[int],
        since: int,
        emit: Callable[[MatchTuple], None],
    ) -> None:
        """Run the query, calling ``emit`` once per match tuple."""
        prim_runner = self.prim_runner
        if prim_runner is None:
            return
        atoms = self.query.atoms
        if not atoms:
            regs: List[Optional[Value]] = [None] * self.n_slots
            if prim_runner(regs):
                emit(tuple(regs))  # type: ignore[arg-type]
            return
        for atom in atoms:
            if atom.func not in tables:
                return

        n_atoms = len(self.atoms)
        # The delta atom goes first: if nothing is new since the watermark,
        # the search exits before any other atom pays for trie work.
        atom_order = list(range(n_atoms))
        if delta_atom is not None:
            atom_order.remove(delta_atom)
            atom_order.insert(0, delta_atom)
        nodes: List[Dict] = [_EMPTY] * n_atoms
        for index in atom_order:
            ga = self.atoms[index]
            restrict = delta_atom is not None and index == delta_atom
            node = self._atom_node(ga, tables[ga.func], restrict, since)
            if node is None:
                return
            nodes[index] = node

        regs = [None] * self.n_slots
        self._descend(0, nodes, regs, emit)

    def _descend(
        self,
        depth: int,
        nodes: List[Dict],
        regs: List[Optional[Value]],
        emit: Callable[[MatchTuple], None],
    ) -> None:
        if depth == len(self.depth_slots):
            if self.no_prims or self.prim_runner(regs):  # type: ignore[misc]
                emit(tuple(regs))  # type: ignore[arg-type]
            return
        involved = self.involved[depth]
        if not involved:
            self._descend(depth + 1, nodes, regs, emit)
            return
        slot = self.depth_slots[depth]
        next_depth = depth + 1
        smallest = involved[0]
        best = len(nodes[smallest])
        for index in involved[1:]:
            size = len(nodes[index])
            if size < best:
                smallest, best = index, size
        saved = [nodes[index] for index in involved]
        at_leaf = next_depth == len(self.depth_slots)
        prim_runner = None if self.no_prims else self.prim_runner
        # Snapshot the iterated level: table tries are live structures.
        for value in list(nodes[smallest]):
            ok = True
            for position, index in enumerate(involved):
                child = saved[position].get(value)
                if child is None:
                    ok = False
                    break
                nodes[index] = child if child.__class__ is dict else _EMPTY
            if not ok:
                continue
            regs[slot] = value
            if at_leaf:
                if prim_runner is None or prim_runner(regs):
                    emit(tuple(regs))  # type: ignore[arg-type]
            else:
                self._descend(next_depth, nodes, regs, emit)
        for position, index in enumerate(involved):
            nodes[index] = saved[position]


# ---------------------------------------------------------------------------
# Join selection
# ---------------------------------------------------------------------------


def is_acyclic(atoms: Sequence[TableAtom]) -> bool:
    """Whether the table atoms form an α-acyclic hypergraph (GYO reduction).

    Each atom is the set of its variables (constants play no part).  The
    reduction repeatedly drops a variable that only one atom holds, and an
    atom whose variables another atom covers; the body is acyclic iff at
    most one atom is left.
    """
    edges = [set(atom.variables()) for atom in atoms]
    changed = True
    while changed and len(edges) > 1:
        changed = False
        holders = Counter(name for edge in edges for name in edge)
        for edge in edges:
            lonely = {name for name in edge if holders[name] == 1}
            if lonely:
                edge -= lonely
                changed = True
        for index, edge in enumerate(edges):
            if any(other is not edge and edge <= other for other in edges):
                del edges[index]
                changed = True
                break
    return len(edges) <= 1


def compile_query(
    query: Query,
    slot_of: Dict[str, int],
    n_slots: int,
    registry: PrimitiveRegistry,
) -> Union[CompiledIndexedQuery, CompiledGenericQuery]:
    """The executor for ``query``, read off the shape of its body.

    A cyclic body (a triangle, a 4-cycle) gets worst-case optimal generic
    join; any other body gets index-nested-loop join, which is faster on
    acyclic bodies because it needs no trie.
    """
    if is_acyclic(query.atoms):
        return CompiledIndexedQuery(query, slot_of, n_slots, registry)
    return CompiledGenericQuery(query, slot_of, n_slots, registry)
