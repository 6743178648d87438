"""Rebuilding: restore congruence closure after unions (Section 4).

Unions performed by actions leave the database *incongruent*: a row
``f(a) -> x`` may mention an id ``a`` that is no longer the canonical
representative of its class, and two keys that canonicalize to the same
tuple may disagree on their outputs.  Rebuilding repairs both to fixpoint:

1. Take the union-find's dirty set (:meth:`UnionFind.take_dirty` — the ids
   made non-canonical since the last rebuild).  If it is empty, the database
   is already congruent and rebuilding is a no-op.
2. For every table, re-canonicalize the rows that mention a stale id.  A
   re-canonicalized key may collide with an existing row; the collision is
   resolved with the function's declared merge expression (Section 3.2) via
   the same :func:`~repro.engine.actions.set_function_value` used by ``set``
   actions.  For eq-sorted outputs the default merge is ``union``, which is
   exactly congruence: ``a = b  ==>  f(a) = f(b)``.
3. Merges performed in step 2 dirty new classes, so repeat until the dirty
   set stays empty.

Repaired rows are stamped with the current timestamp, so semi-naïve
evaluation (Section 4.3) revisits them — the paper's observation that
rebuilding and rule application interleave soundly.

Because insertions always store canonical values, a row can only become
stale through a union, and every union records its displaced representative
in the dirty set.  Each round therefore repairs exactly the rows that
mention a dirty id, found with one hash-index probe per (dirty id,
eq-sorted column).  The hash indexes — the same ones query plans read —
are maintained incrementally by the table on every put/remove, so a
repair round costs O(|dirty| + |repaired rows|), not O(|table|) per
changed table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

from ..core.database import Table
from ..core.proofs import congruence_justification
from ..core.values import Value
from .actions import set_function_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph

Key = Tuple[Value, ...]


def rebuild(egraph: "EGraph") -> int:
    """Repair congruence closure to fixpoint; return the number of rounds.

    Idempotent: returns 0 immediately when no unions happened since the last
    rebuild (the union-find has no dirty classes).
    """
    uf = egraph.uf
    rounds = 0
    while uf.has_dirty:
        # Consume the dirty set; merges during this round repopulate it and
        # trigger another round.
        dirty = uf.take_dirty()
        rounds += 1
        for table in egraph.tables.values():
            _repair_table(egraph, table, dirty)
    return rounds


def _repair_table(egraph: "EGraph", table: Table, dirty: Set[int]) -> int:
    """Re-canonicalize rows of one table touching ``dirty`` ids.

    Rows always store ids that were canonical at insert time, so a stale
    column value is *exactly* a dirty id — one index probe per (dirty id,
    eq-sorted column) finds every affected row.  Returns the repair count.
    """
    decl = table.decl
    eq_cols = egraph.eq_columns(decl)
    if not eq_cols:
        return 0  # Purely primitive table: unions cannot touch it.

    stale: List[Key] = []
    seen: Set[Key] = set()
    for col, sort_name in eq_cols:
        index = table.index((col,))
        for ident in dirty:
            for key in index.get((Value(sort_name, ident),), ()):
                if key not in seen:
                    seen.add(key)
                    stale.append(key)

    if not stale:
        return 0  # No row of this table mentions a dirty id.

    # The index probes above are done for this round, and the writes below
    # only read rows (never indexes), so the remove/re-insert churn of the
    # repair loop batches its index maintenance: a key whose canonical form
    # is itself costs one net index update instead of two, and keys
    # merged several times in one round settle once.  Tiny rounds (a
    # handful of stale keys, the common shape under one-union-at-a-time
    # rebuilds) skip the batch — its flush setup would cost more than the
    # direct per-put maintenance it replaces.
    repaired = 0
    canonicalize = egraph.canonicalize
    use_batch = len(stale) > 8
    if use_batch:
        table.begin_batch()
    # Output collisions resolved below are congruence steps on this function
    # (``a = b ==> f(a) = f(b)``); scope the ambient union justification so
    # the proof forest records them as such.
    prev_reason = egraph.set_union_reason(congruence_justification(decl.name))
    try:
        for key in stale:
            row = table.get_row(key)
            if row is None:
                continue  # Merged away while repairing an earlier sibling.
            canon_key = tuple([canonicalize(v) for v in key])
            canon_value = canonicalize(row.value)
            table.remove(key)
            set_function_value(egraph, decl, canon_key, canon_value)
            repaired += 1
    finally:
        egraph.set_union_reason(prev_reason)
        if use_batch:
            table.end_batch()
    return repaired
