"""The functional database backing egglog functions.

Unlike most Datalog engines, egglog is backed by a *functional* database
(Section 5.1): each function/relation is a map from argument tuples to a
single output value.  Each row additionally carries a timestamp — the
iteration at which it was inserted or last updated — which is what makes
semi-naïve evaluation (Section 4.3) possible: a delta query only needs to
look at rows whose timestamp is at least the rule's last-run timestamp.

Tables own one kind of index: a hash index per column group
(``index``), mapping each projection on those columns to the keys of the
rows that have it.  Query plans, rebuilding's dirty-id probes and
extraction's parent lookups all read them.  An index is built from the
current rows on first request, kept exact by every ``put``/``remove``
that changes a row's value (including the canonicalizing rewrites
rebuilding performs), and dropped when a restore or bulk load installs
different rows.  Invariant: every built index equals one built fresh from
the table's rows.

Indexes describe row values, never timestamps: a restamp leaves them
alone, and the semi-naïve delta is read from the write log instead.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from .schema import FunctionDecl
from .values import Value

Key = Tuple[Value, ...]

#: A hash index: projection tuple -> insertion-ordered set of keys.  The
#: inner dict is used as an ordered set (values are always None) so that
#: incremental removal is O(1) and iteration order stays deterministic.
HashIndex = Dict[Tuple[Value, ...], Dict[Key, None]]


class Row:
    """A single function entry ``f(key) -> value`` with its timestamp.

    Hand-rolled with ``__slots__``: one ``Row`` exists per database row and
    the apply/rebuild hot paths allocate them constantly, so the per-object
    dict and dataclass construction overhead are worth shedding.
    """

    __slots__ = ("value", "timestamp")

    def __init__(self, value: Value, timestamp: int) -> None:
        self.value = value
        self.timestamp = timestamp

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Row:
            return NotImplemented
        return self.value == other.value and self.timestamp == other.timestamp

    def __repr__(self) -> str:
        return f"Row(value={self.value!r}, timestamp={self.timestamp!r})"


class Table:
    """Backing store for one egglog function.

    Columns ``0 .. arity-1`` are the arguments, column ``arity`` is the
    output.  The table enforces nothing about canonicalization or merges —
    that is the engine's and the rebuilder's job — it only stores rows and
    provides lookups, scans, and indexes.

    Snapshots are copy-on-write (:meth:`snapshot`/:meth:`restore`): a
    capture shares the row dict and write log, and only the first write
    after it copies them.
    """

    def __init__(self, decl: FunctionDecl) -> None:
        self.decl = decl
        self.data: Dict[Key, Row] = {}
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}
        # Append-only write log (parallel timestamp/key arrays) so that
        # ``new_keys`` — the semi-naïve delta (Section 4.3) — costs
        # O(|delta|) rather than a full-table scan.  The engine only writes
        # with non-decreasing timestamps; if a caller ever writes out of
        # order the log degrades gracefully to a scan.
        self._log_ts: List[int] = []
        self._log_keys: List[Key] = []
        self._log_sorted = True
        # Deferred index maintenance (see begin_batch): while a batch is
        # open, put/remove update ``data`` and the write log immediately but
        # queue their index maintenance.  ``_pending`` maps each touched
        # key to the Row (or None) it had when the batch first touched it;
        # the flush applies one net update per key instead of one per write.
        self._batch_depth = 0
        self._pending: Dict[Key, Optional[Row]] = {}
        # Copy-on-write: True while ``data`` and the write log are also held
        # by a snapshot (see :meth:`snapshot`), so the next write must copy
        # them before mutating.
        self._shared = False

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key: Key) -> bool:
        return key in self.data

    @property
    def arity(self) -> int:
        return self.decl.arity

    def get(self, key: Key) -> Optional[Value]:
        row = self.data.get(key)
        return row.value if row is not None else None

    def get_row(self, key: Key) -> Optional[Row]:
        return self.data.get(key)

    def put(self, key: Key, value: Value, timestamp: int) -> None:
        """Insert or overwrite a row, updating every maintained index."""
        if self._shared:
            self._unshare()
        old = self.data.get(key)
        self.data[key] = Row(value, timestamp)
        if self._log_ts and timestamp < self._log_ts[-1]:
            self._log_sorted = False
        self._log_ts.append(timestamp)
        self._log_keys.append(key)
        if len(self._log_ts) > 64 and len(self._log_ts) > 4 * len(self.data):
            self._compact_log()

        if self._batch_depth:
            if self._indexes and key not in self._pending:
                self._pending[key] = old
            return
        if old is not None and old.value == value:
            return  # a restamp: no index describes timestamps
        if self._indexes:
            arity = self.decl.arity
            for columns, index in self._indexes.items():
                if old is not None:
                    if all(col < arity for col in columns):
                        continue  # projection over arguments only: unchanged
                    old_proj = self._project(columns, key, old.value)
                    entry = index.get(old_proj)
                    if entry is not None:
                        entry.pop(key, None)
                        if not entry:
                            del index[old_proj]
                index.setdefault(self._project(columns, key, value), {})[key] = None

    def _project(self, columns: Tuple[int, ...], key: Key, value: Value) -> Tuple[Value, ...]:
        arity = self.decl.arity
        return tuple([value if col == arity else key[col] for col in columns])

    def _compact_log(self) -> None:
        """Rebuild the write log from live rows (drops dead/duplicate entries)."""
        entries = sorted(
            ((row.timestamp, key) for key, row in self.data.items()),
            key=lambda entry: entry[0],
        )
        self._log_ts = [ts for ts, _key in entries]
        self._log_keys = [key for _ts, key in entries]
        self._log_sorted = True

    def _unshare(self) -> None:
        """Take private copies of the rows and write log a snapshot holds.

        The one-time cost of the first write after :meth:`snapshot` or
        :meth:`restore`; indexes are table-owned and carry over.
        """
        self.data = dict(self.data)
        self._log_ts = list(self._log_ts)
        self._log_keys = list(self._log_keys)
        self._shared = False

    def remove(self, key: Key) -> Optional[Row]:
        """Remove and return a row (None if absent); indexes stay in sync."""
        if self._shared:
            if key not in self.data:
                return None
            self._unshare()
        row = self.data.pop(key, None)
        if row is None:
            return None
        if self._batch_depth:
            if self._indexes and key not in self._pending:
                self._pending[key] = row
            return row
        if self._indexes:
            for columns, index in self._indexes.items():
                proj = self._project(columns, key, row.value)
                entry = index.get(proj)
                if entry is not None:
                    entry.pop(key, None)
                    if not entry:
                        del index[proj]
        return row

    def rows(self) -> Iterator[Tuple[Key, Value, int]]:
        """Iterate over (key, value, timestamp) triples."""
        for key, row in self.data.items():
            yield key, row.value, row.timestamp

    def tuples(self) -> Iterator[Tuple[Value, ...]]:
        """Iterate over full rows as flat tuples (args..., output)."""
        for key, row in self.data.items():
            yield key + (row.value,)

    def new_keys(self, since: int) -> List[Key]:
        """Keys of rows inserted or updated at or after timestamp ``since``.

        This is the delta used by semi-naïve evaluation (Section 4.3): a
        rule's incremental search restricts one atom at a time to these rows.
        With the usual non-decreasing write timestamps this reads only the
        log suffix at or after ``since`` — O(|delta|), not O(|table|).
        """
        if not self._log_sorted:
            return [key for key, row in self.data.items() if row.timestamp >= since]
        start = bisect_left(self._log_ts, since)
        out: List[Key] = []
        seen = set()
        for key in self._log_keys[start:]:
            if key in seen:
                continue
            seen.add(key)
            row = self.data.get(key)
            # Skip keys removed since, or whose live row predates ``since``
            # (possible only after an out-of-order overwrite).
            if row is not None and row.timestamp >= since:
                out.append(key)
        return out

    def has_new(self, since: int) -> bool:
        """True iff any live row is stamped at or after ``since``.

        The scheduler's zero-delta short-circuit: when an atom's table has
        nothing new since a rule's watermark, the whole delta search for
        that atom is skipped before any index work happens.
        """
        if not self._log_sorted:
            return any(row.timestamp >= since for row in self.data.values())
        start = bisect_left(self._log_ts, since)
        for key in self._log_keys[start:]:
            row = self.data.get(key)
            if row is not None and row.timestamp >= since:
                return True
        return False

    # -- batched maintenance (apply-phase / rebuild write bursts) -------------

    def begin_batch(self) -> None:
        """Start deferring index maintenance for a write burst.

        ``data`` and the write log stay up to date (reads through ``get`` /
        ``new_keys`` see every write immediately), but index updates are
        queued and applied as one *net* update per key at
        :meth:`end_batch`.  The apply phase and rebuild's repair loop use
        this: a key that is removed and re-inserted (or overwritten several
        times) inside the batch costs one index remove + one insert instead
        of one per write.  Nestable; index reads inside a batch flush first.
        """
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Close a :meth:`begin_batch` scope, flushing queued maintenance."""
        if self._batch_depth <= 0:
            raise RuntimeError("end_batch without matching begin_batch")
        self._batch_depth -= 1
        if self._batch_depth == 0 and self._pending:
            self._flush_pending()

    def _flush_pending(self) -> None:
        """Apply the net index effect of every key touched in a batch.

        Index-major: the outer loop walks each index once with its column
        set and projection decisions hoisted, instead of re-dispatching per
        written key the way unbatched ``put`` must.
        """
        pending, self._pending = self._pending, {}
        data = self.data
        arity = self.decl.arity
        changed = [
            (key, old, row)
            for key, old in pending.items()
            for row in (data.get(key),)
            if not (old is not None and row is not None and old.value == row.value)
        ]
        for columns, index in self._indexes.items():
            args_only = all(col < arity for col in columns)
            index_setdefault = index.setdefault
            index_get = index.get
            for key, old, row in changed:
                if old is not None:
                    if args_only and row is not None:
                        continue  # arg-only projection: unchanged
                    old_proj = self._project(columns, key, old.value)
                    entry = index_get(old_proj)
                    if entry is not None:
                        entry.pop(key, None)
                        if not entry:
                            del index[old_proj]
                if row is not None:
                    index_setdefault(
                        self._project(columns, key, row.value), {}
                    )[key] = None

    # -- snapshots (push/pop support) ----------------------------------------

    def snapshot(self) -> tuple:
        """Capture the table's rows and write log for a later :meth:`restore`.

        Copy-on-write, so a capture costs O(1): the row dict and the write
        log are returned by reference and the table is marked shared.  The
        first ``put``/``remove`` afterwards copies them (one O(rows) copy of
        this table only), so the capture itself is never mutated.  Rows are
        immutable (``put`` always stores a fresh one), which makes sharing
        the containers safe.  Indexes are derived data and are not captured.
        """
        if self._pending:
            self._flush_pending()
        self._shared = True
        return (self.data, self._log_ts, self._log_keys, self._log_sorted)

    def restore(self, state: tuple) -> None:
        """Reinstall a state captured by :meth:`snapshot`, in O(1).

        The captured containers are installed by reference and the table is
        marked shared, so later writes copy first and the same capture can
        be restored again (e.g. a push-stack entry pinned across an aborted
        transactional batch).

        When the table was not written since the capture — it still holds
        the captured row dict — its indexes describe exactly the restored
        rows and are kept.  Otherwise every index is dropped and rebuilt on
        its next request.
        """
        if state[0] is not self.data:
            self._pending.clear()
            self._indexes.clear()
        self.data, self._log_ts, self._log_keys, self._log_sorted = state
        self._shared = True

    def load_rows(self, entries: List[Tuple[Key, Value, int]]) -> None:
        """Bulk-install rows from a deserialized snapshot.

        Replaces the table's contents wholesale (keys in ``entries`` order,
        which a snapshot records as the original insertion order) and
        rebuilds the write log sorted by timestamp.  Every index is dropped
        and rebuilt on its next request.
        """
        self.data = {key: Row(value, ts) for key, value, ts in entries}
        self._shared = False
        self._compact_log()
        self._pending.clear()
        self._indexes.clear()

    # -- hash indexes ---------------------------------------------------------

    def index(self, columns: Tuple[int, ...]) -> HashIndex:
        """Hash index mapping projections on ``columns`` to matching keys.

        Built once on first request (O(|table|)) and then maintained
        incrementally by ``put``/``remove``, so repeated access — e.g.
        rebuilding's per-round dirty-id probes — no longer pays a rebuild
        whenever the table changed.  Column ``arity`` refers to the output.
        """
        if self._pending:
            self._flush_pending()
        cached = self._indexes.get(columns)
        if cached is not None:
            return cached
        index: HashIndex = {}
        for key, row in self.data.items():
            index.setdefault(self._project(columns, key, row.value), {})[key] = None
        self._indexes[columns] = index
        return index

    def column_values(self, column: int) -> Dict[Value, Dict[Key, None]]:
        """Single-column index view (used by tests and introspection)."""
        grouped = self.index((column,))
        return {proj[0]: keys for proj, keys in grouped.items()}
