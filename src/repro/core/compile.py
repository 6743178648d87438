"""Compiled query plans: the one search path for rule bodies and queries.

Rule bodies and one-off public queries (``query``, ``check``) both run
through :class:`CompiledQuery` (journals_pacmpl_ZhangWFCZRTW23 §4–5).  A
compiled rule runs its query millions of times against the same
*structure* — only the data changes — so everything structural is
resolved once per query:

* **Slots.**  Query variables become integer slots
  (:func:`assign_slots`); a match is a plain ``tuple`` of values in slot
  order instead of a dict.  Scheduler-side deduplication of semi-naïve
  delta matches hashes those canonical tuples directly.
* **Column roles.**  Each atom's columns are classified at plan time,
  per plan node (:class:`_Access`), so the per-row loops do zero
  ``isinstance`` work.
* **Primitive programs.**  Primitive atoms are scheduled once into a
  straight-line program (:func:`compile_prims`) whose steps fetch
  arguments from slots.

One executor, after Free Join (Wang, Willsey and Suciu, SIGMOD 2023):
index-nested-loop join and generic join are two shapes of one plan, and
the shape of the body picks one (:func:`is_acyclic`; see
:class:`CompiledQuery`).  Every probe and every candidate set is one
row-dict probe or one entry of a table's hash index (``Table.index``),
the indexes rebuilding and extraction also read.  Both shapes support
*delta* searches for semi-naïve evaluation: one designated atom is
restricted to rows whose timestamp is at least ``since``.

Cache invalidation is the engine's job: a rule's compiled executor is
cached on the rule and keyed by the engine's compile epoch, which every
restore bumps (pop, a rolled-back batch, a fork's child); a capture
leaves it alone, and a replaced rule starts with no executor (see
``EGraph.rule_exec``).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .builtins import PrimitiveRegistry
from .database import Table
from .query import Query, QVar, TableAtom
from .values import BOOL, UNIT, Value

MatchTuple = Tuple[Value, ...]


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
    """Greedy atom order for an acyclic body's plan: the delta atom first,
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
# The executor: a plan of nodes
# ---------------------------------------------------------------------------

# Where a cover's candidate rows come from (``_Access.source``).
_DELTA = 0  # the write log: rows new since the watermark
_BY_KEY = 1  # one dict probe: every key column is fixed
_ENTRY = 2  # the index entry of the fixed columns
_DISTINCT = 3  # one row per distinct value of the node's columns
_ALL = 4  # every row

# What a by-key probe does with the output of the row it finds.
_CHECK_SLOT = 0
_CHECK_CONST = 1
_BIND = 2


def _projector(specs: List[Tuple[bool, object]], n_slots: int):
    """``(constant, getter)`` for a projection whose columns are ``specs``,
    each ``(True, slot)`` or ``(False, constant)``, ``n_slots`` of them
    slots: the constant tuple when no column reads a slot (``getter``
    None), else a getter ``regs -> tuple`` (``constant`` None)."""
    if not n_slots:
        return tuple([payload for _is_slot, payload in specs]), None
    if n_slots == len(specs):
        if n_slots > 1:
            return None, itemgetter(*[slot for _is_slot, slot in specs])
        slot = specs[0][1]
        return None, lambda regs: (regs[slot],)
    frozen = tuple(specs)
    return None, lambda regs: tuple([regs[p] if s else p for s, p in frozen])


def _covers_key(cols: List[int], arity: int) -> bool:
    """Whether the ascending columns ``cols`` include every key column."""
    return not arity or (len(cols) >= arity and cols[arity - 1] == arity - 1)


class _Access:
    """One atom at one plan node, with its column roles resolved.

    Each column is *fixed* (a constant, or a variable an earlier node
    bound), *bound here* (a first occurrence, written into its slot, or a
    repeat, checked against it), or *open* (left for a later node).

    As the node's cover, the atom yields candidate rows (``source``): the
    write log's new rows for the delta atom; one dict probe when every key
    column is fixed; else the index entry of its fixed columns; else, when
    columns stay open, one row per distinct value of the node's columns
    (the keys of that column group's index); else every row.  A cover that
    reads rows and leaves columns open deduplicates the value it binds
    (``dedup``).  Constants of the delta atom are checked per row.  A
    candidate's row is fetched only when its output or timestamp is read
    (``reads_row``).

    As a probe, the atom needs one dict probe when its fixed and just-bound
    columns cover the key (``probe_by_key``), and the row's output is then
    checked, or bound when it is the atom's lonely output; otherwise it
    needs a non-empty entry of that column group's index.
    """

    __slots__ = (
        "func",
        "source",
        "cols",
        "proj",
        "get",
        "out_check",
        "key_consts",
        "out_const",
        "key_binds",
        "out_bind",
        "key_dups",
        "out_dup",
        "dedup",
        "reads_row",
        "late_bind",
        "probe_by_key",
        "probe_cols",
        "probe_get",
        "probe_out",
    )

    def __init__(
        self,
        atom: TableAtom,
        fixed: Set[int],
        slot_of: Dict[str, int],
        here: Optional[Set[int]] = None,
        lonely: Optional[int] = None,
        is_delta: bool = False,
        probe: bool = False,
    ) -> None:
        """``fixed`` holds the slots earlier nodes bound, ``here`` the slots
        this node's cover binds (None: every slot not fixed), and
        ``lonely`` the slot of this atom's lonely output when it binds at
        this node."""
        self.func = atom.func
        args = atom.args
        arity = len(args)
        fixed_cols: List[int] = []
        fixed_specs: List[Tuple[bool, object]] = []
        fixed_slots = 0
        here_cols: List[int] = []
        key_consts: List[Tuple[int, Value]] = []
        out_const = None
        key_binds: List[Tuple[int, int]] = []
        out_bind = None
        key_dups: List[Tuple[int, int]] = []
        out_dup = None
        seen_here: List[int] = []
        is_open = False
        col = -1
        for arg in args + (atom.out,):
            col += 1
            if arg.__class__ is QVar:
                slot = slot_of[arg.name]
                if slot in fixed:
                    fixed_cols.append(col)
                    fixed_specs.append((True, slot))
                    fixed_slots += 1
                elif here is not None and slot not in here and slot != lonely:
                    is_open = True
                elif slot in seen_here:
                    here_cols.append(col)
                    if col == arity:
                        out_dup = slot
                    else:
                        key_dups.append((col, slot))
                else:
                    seen_here.append(slot)
                    here_cols.append(col)
                    if col == arity:
                        out_bind = slot
                    else:
                        key_binds.append((col, slot))
            elif is_delta:
                if col == arity:
                    out_const = arg
                else:
                    key_consts.append((col, arg))
            else:
                fixed_cols.append(col)
                fixed_specs.append((False, arg))
        # A cover whose row only supplies its lonely output binds that
        # after the probes, so a candidate they reject costs no row fetch.
        self.late_bind = None
        if out_bind == lonely and out_bind is not None and not is_delta:
            self.late_bind, out_bind = out_bind, None
        self.reads_row = (
            is_delta or out_const is not None or out_bind is not None or out_dup is not None
        )
        self.key_consts = tuple(key_consts)
        self.out_const = out_const
        self.key_binds = tuple(key_binds)
        self.out_bind = out_bind
        self.key_dups = tuple(key_dups)
        self.out_dup = out_dup
        if is_delta:
            self.source = _DELTA
        elif _covers_key(fixed_cols, arity):
            self.source = _BY_KEY
            self.out_check = None
            key_specs = fixed_specs
            if len(fixed_cols) > arity:
                self.out_check = fixed_specs[arity]
                key_specs = fixed_specs[:arity]
                fixed_slots -= self.out_check[0]
            self.proj, self.get = _projector(key_specs, fixed_slots)
        elif fixed_cols:
            self.source = _ENTRY
            self.cols = tuple(fixed_cols)
            self.proj, self.get = _projector(fixed_specs, fixed_slots)
        elif is_open:
            self.source = _DISTINCT
            self.cols = tuple(here_cols)
        else:
            self.source = _ALL
        self.dedup = seen_here[0] if is_open and self.source != _DISTINCT else None
        if probe:
            self._resolve_probe(atom, arity, fixed_cols, fixed_specs, here_cols, slot_of, lonely)

    def _resolve_probe(self, atom, arity, fixed_cols, fixed_specs, here_cols, slot_of, lonely):
        """The probe role: the fixed columns plus those holding a variable
        the cover binds (every bound-here column but the lonely output)."""
        columns = atom.columns()
        known = list(zip(fixed_cols, fixed_specs))
        for col in here_cols:
            slot = slot_of[columns[col].name]
            if slot != lonely:
                known.append((col, (True, slot)))
        known.sort(key=lambda entry: entry[0])
        cols = [col for col, _spec in known]
        specs = [spec for _col, spec in known]
        self.probe_by_key = _covers_key(cols, arity)
        self.probe_out: Optional[Tuple[int, object]] = None
        if self.probe_by_key:
            if len(specs) > arity:
                is_slot, payload = specs.pop()
                self.probe_out = (_CHECK_SLOT if is_slot else _CHECK_CONST, payload)
            elif lonely is not None:
                self.probe_out = (_BIND, lonely)
        else:
            self.probe_cols = tuple(cols)
        const, get = _projector(specs, sum(is_slot for is_slot, _payload in specs))
        self.probe_get = get if get is not None else (lambda regs: const)


def _pick(
    accesses: Tuple[_Access, ...],
    tables: Dict[str, Table],
    regs: List[Optional[Value]],
) -> Optional[Tuple[int, List]]:
    """The position of the access with the fewest candidates and its
    candidate keys, or None when some access has none."""
    best = -1
    best_size = 0
    best_cands = None
    for position, access in enumerate(accesses):
        table = tables[access.func]
        source = access.source
        if source == _BY_KEY:
            key = access.proj if access.get is None else access.get(regs)
            row = table.data.get(key)
            if row is None:
                return None
            check = access.out_check
            if check is not None and row.value != (
                regs[check[1]] if check[0] else check[1]
            ):
                return None
            cands = (key,)
        elif source == _ENTRY:
            cands = table.index(access.cols).get(
                access.proj if access.get is None else access.get(regs)
            )
            if not cands:
                return None
        elif source == _DISTINCT:
            cands = table.index(access.cols)
        else:
            cands = table.data
        size = len(cands)
        if not size:
            return None
        if best < 0 or size < best_size:
            best, best_size, best_cands = position, size, cands
    if accesses[best].source == _DISTINCT:
        return best, [next(iter(keys)) for keys in best_cands.values()]  # type: ignore[union-attr]
    return best, list(best_cands)  # type: ignore[arg-type]


#: One plan node: ``(cover, probes, accesses, others)``.  A node with a
#: fixed cover has ``accesses`` None; a node whose cover is picked per
#: visit has ``cover`` None, and ``others[i]`` are the probes when
#: ``accesses[i]`` covers.
_Node = Tuple[
    Optional[_Access],
    Optional[Tuple[_Access, ...]],
    Optional[Tuple[_Access, ...]],
    Optional[Tuple[Tuple[_Access, ...], ...]],
]


class CompiledQuery:
    """The join executor for one query: a plan of nodes, walked depth first.

    Each node iterates one atom's candidate rows (its *cover*), binds the
    variables the node owns, and probes the other atoms that hold them.
    The shape of the body picks the plan (:func:`is_acyclic`):

    * an α-acyclic body binds one atom per node, in the greedy order of
      :func:`plan_order` (index-nested-loop join);
    * a cyclic body binds one variable per node, in a structural order
      (variables held by more atoms first), and each visit lets the atom
      with the fewest candidates cover it (generic join).  A variable that
      only one atom's output column holds binds with that atom's last
      variable, from the row that node already holds.

    Either way a semi-naïve delta atom is the first node, read from the
    write log.  Plans are cached per ``(delta atom, order)``.
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
        self.acyclic = is_acyclic(query.atoms)
        self.prim_runner = compile_prims(
            query.prims, slot_of, _table_bound_slots(query, slot_of), registry
        )
        #: No primitive atoms at all: the leaf emits without a runner call.
        self.no_prims = not query.prims
        self._plans: Dict[
            Tuple[Optional[int], Optional[Tuple[int, ...]]], Tuple[_Node, ...]
        ] = {}

    # -- planning ------------------------------------------------------------

    def _plan(
        self, delta_atom: Optional[int], order: Optional[Tuple[int, ...]]
    ) -> Tuple[_Node, ...]:
        atoms = self.query.atoms
        slot_of = self.slot_of
        if order is not None:
            bound: Set[int] = set()
            nodes: List[_Node] = []
            for index in order:
                access = _Access(atoms[index], bound, slot_of, is_delta=index == delta_atom)
                nodes.append((access, (), None, None))
                bound.update([slot for _col, slot in access.key_binds])
                if access.out_bind is not None:
                    bound.add(access.out_bind)
            return tuple(nodes)
        return self._generic_plan(delta_atom)

    def _generic_plan(self, delta_atom: Optional[int]) -> Tuple[_Node, ...]:
        """Nodes of a cyclic body: the delta atom's, binding all its
        variables; then one per atom with no variable of its own (one
        dict probe each, so a missing ground row ends the search first);
        then one per remaining variable in structural order."""
        atoms = self.query.atoms
        slot_of = self.slot_of
        occurrences = Counter(name for atom in atoms for name in atom.variables())
        lonely: Dict[int, int] = {}  # atom index -> slot of its lonely output
        for index, atom in enumerate(atoms):
            if isinstance(atom.out, QVar) and occurrences[atom.out.name] == 1:
                lonely[index] = slot_of[atom.out.name]
        own = [
            {slot_of[name] for name in atom.variables()} - {lonely.get(index)}
            for index, atom in enumerate(atoms)
        ]
        bound: Set[int] = set()
        nodes: List[_Node] = []

        def lonely_at(index: int, after: Set[int]) -> Optional[int]:
            return lonely.get(index) if own[index] <= after else None

        def add_node(slots: Set[int], holders: List[int], cover: Optional[int]) -> None:
            after = bound | slots
            accesses = [
                _Access(
                    atoms[index],
                    bound,
                    slot_of,
                    here=slots,
                    lonely=lonely_at(index, after),
                    is_delta=index == cover and index == delta_atom,
                    probe=index != cover and len(holders) > 1,
                )
                for index in holders
            ]
            for index in holders:
                if lonely_at(index, after) is not None:
                    after.add(lonely[index])
            if cover is not None:
                position = holders.index(cover)
                nodes.append(
                    (accesses[position], tuple(accesses[:position] + accesses[position + 1:]), None, None)
                )
            elif len(accesses) == 1:
                nodes.append((accesses[0], (), None, None))
            else:
                others = tuple(
                    tuple(other for other in accesses if other is not access)
                    for access in accesses
                )
                nodes.append((None, None, tuple(accesses), others))
            bound.update(after)

        if delta_atom is not None:
            slots = {slot_of[name] for name in atoms[delta_atom].variables()}
            holders = [delta_atom] + [
                index for index in range(len(atoms)) if index != delta_atom and own[index] & slots
            ]
            add_node(slots, holders, delta_atom)
        for index in range(len(atoms)):
            if not own[index] and index != delta_atom:
                add_node(set(), [index], index)
        for name in structural_var_order(atoms):
            slot = slot_of[name]
            if slot in bound or slot in lonely.values():
                continue
            holders = [index for index in range(len(atoms)) if slot in own[index]]
            add_node({slot}, holders, None)
        return tuple(nodes)

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
            return  # unsafe primitive schedule: every match fails
        atoms = self.query.atoms
        if not atoms:
            regs: List[Optional[Value]] = [None] * self.n_slots
            if prim_runner(regs):
                emit(tuple(regs))  # type: ignore[arg-type]
            return
        for atom in atoms:
            if atom.func not in tables:
                return
        order = tuple(plan_order(atoms, tables, delta_atom)) if self.acyclic else None
        nodes = self._plans.get((delta_atom, order))
        if nodes is None:
            nodes = self._plans[(delta_atom, order)] = self._plan(delta_atom, order)
        regs = [None] * self.n_slots
        self._walk(0, nodes, tables, since, regs, emit)

    def _walk(
        self,
        position: int,
        nodes: Tuple[_Node, ...],
        tables: Dict[str, Table],
        since: int,
        regs: List[Optional[Value]],
        emit: Callable[[MatchTuple], None],
    ) -> None:
        cover, probes, accesses, others = nodes[position]
        if cover is None:
            picked = _pick(accesses, tables, regs)  # type: ignore[arg-type]
            if picked is None:
                return
            choice, candidates = picked
            cover = accesses[choice]  # type: ignore[index]
            probes = others[choice]  # type: ignore[index]
            table = tables[cover.func]
        else:
            # The same sources as ``_pick``, inlined: an acyclic plan
            # visits a node once per row of the node before it.
            table = tables[cover.func]
            source = cover.source
            if source == _DELTA:
                candidates = table.new_keys(since)
            elif source == _BY_KEY:
                key = cover.proj if cover.get is None else cover.get(regs)
                row = table.data.get(key)
                if row is None:
                    return
                check = cover.out_check
                if check is not None and row.value != (
                    regs[check[1]] if check[0] else check[1]
                ):
                    return
                candidates = [key]
            elif source == _ENTRY:
                entry = table.index(cover.cols).get(
                    cover.proj if cover.get is None else cover.get(regs)
                )
                if not entry:
                    return
                # Snapshot the entry: the index is live (incrementally
                # maintained) and deeper nodes may trigger table reads.
                candidates = list(entry)
            elif source == _ALL:
                candidates = list(table.data)
            else:
                candidates = [
                    next(iter(keys)) for keys in table.index(cover.cols).values()
                ]

        data = table.data
        is_delta = cover.source == _DELTA
        reads_row = cover.reads_row
        late_bind = cover.late_bind
        key_consts = cover.key_consts
        out_const = cover.out_const
        key_binds = cover.key_binds
        out_bind = cover.out_bind
        key_dups = cover.key_dups
        out_dup = cover.out_dup
        dedup = cover.dedup
        checks = dedup is not None or bool(probes) or late_bind is not None
        if checks:
            seen: Set[Value] = set()
            lookups = [
                (
                    probe.probe_get,
                    probe.probe_out,
                    tables[probe.func].data
                    if probe.probe_by_key
                    else tables[probe.func].index(probe.probe_cols),
                )
                for probe in probes  # type: ignore[union-attr]
            ]
        next_position = position + 1
        # The deepest node emits inline instead of recursing once per row.
        at_leaf = next_position == len(nodes)
        prim_runner = None if self.no_prims else self.prim_runner
        for key in candidates:
            if reads_row:
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
            if checks:
                if dedup is not None:
                    value = regs[dedup]
                    if value in seen:
                        continue
                    seen.add(value)
                for get, out, lookup in lookups:
                    hit = lookup.get(get(regs))
                    if not hit:
                        ok = False
                        break
                    if out is not None:
                        kind, payload = out
                        if kind == _BIND:
                            regs[payload] = hit.value
                        elif hit.value != (regs[payload] if kind == _CHECK_SLOT else payload):
                            ok = False
                            break
                if not ok:
                    continue
                if late_bind is not None:
                    regs[late_bind] = data[key].value
            if at_leaf:
                if prim_runner is None or prim_runner(regs):
                    emit(tuple(regs))  # type: ignore[arg-type]
            else:
                self._walk(next_position, nodes, tables, since, regs, emit)


def structural_var_order(atoms: Sequence[TableAtom]) -> List[str]:
    """Variables by the number of atoms that hold them (most first), ties
    broken by first occurrence.  Stable across searches, so a cyclic
    body's plan depends on its structure only."""
    holders: Counter = Counter()
    for atom in atoms:
        holders.update(set(atom.variables()))
    first_seen = {name: rank for rank, name in enumerate(
        dict.fromkeys(name for atom in atoms for name in atom.variables())
    )}
    return sorted(holders, key=lambda name: (-holders[name], first_seen[name]))

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
