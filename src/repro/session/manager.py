"""Named e-graph sessions forked from warm bases, under an LRU capacity cap.

The :class:`SessionManager` is the service's state: a registry of **bases**
(template engines built once — by running an ``.egg`` program or decoding a
``repro.snapshot/v1`` file — then kept warm in memory) and a table of live
**sessions** (engines forked from those templates).  Forking never touches
disk or JSON: :meth:`EGraph.fork` copies the template structurally, and the
fork *shares* the template's primitive registry, so the process-level
compile cache (:mod:`repro.engine.compilecache`) serves every sibling the
same compiled query plans.

Concurrency model: the manager takes one re-entrant lock for table surgery
(create/evict/remove), and each session carries its own mutex held for the
duration of a batch.  A session whose mutex is held is *busy* and immune to
eviction; capacity pressure evicts the least-recently-used idle session
instead, or fails with :class:`CapacityError` when every session is busy.

Two rules keep the two lock kinds honest:

* **Disk I/O never runs under the manager lock.**  Checkpoint saves and
  restores happen under the affected session's own mutex with the manager
  lock released, so one slow passivation or re-hydration cannot stall every
  other request's session lookup.  (The manager lock is only ever taken
  *inside* a held session mutex via non-blocking attempts or short
  bookkeeping sections, so the ordering cannot deadlock.)
* **Retirement is published under the session mutex.**  :meth:`~SessionManager._retire`
  checkpoints a victim and marks it ``retired`` while holding its mutex;
  batch entry points re-check that flag after acquiring the mutex
  (:meth:`Session._acquire_live`) and chase the live incarnation through
  ``manager.get`` — so a session passivated between lookup and lock
  acquisition transparently restores instead of swallowing the batch.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

from ..core.values import Value
from ..engine.compilecache import CACHE
from ..engine.egraph import EGraph
from ..frontend.errors import FrontendError
from ..frontend.evaluator import Evaluator
from ..serialize.encode import decode_values
from ..serialize.snapshot import engine_from_document, read_document
from .errors import (
    CapacityError,
    CheckpointError,
    DuplicateNameError,
    ProgramError,
    UnknownBaseError,
    UnknownSessionError,
)
from .program import Json, run_ops
from .store import CheckpointStore

T = TypeVar("T")


def _egg_globals(document: Dict[str, Any]) -> List[Any]:
    surfaces = document.get("surfaces")
    egg = surfaces.get("egg", {}) if isinstance(surfaces, dict) else {}
    return egg.get("globals", []) if isinstance(egg, dict) else []


@dataclass
class BaseInfo:
    """One named base: a warm template engine every session forks from.

    The template is never run after installation — every mutation happens
    on forks — so concurrent forking (serialized by the manager lock) reads
    a stable structure.
    """

    name: str
    engine: EGraph
    globals_values: Dict[str, Value]
    source: str  # "egg" | "snapshot"
    created_at: float = field(default_factory=time.monotonic)
    forks: int = 0

    def info(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "source": self.source,
            "forks": self.forks,
            "functions": len(self.engine.tables),
            "rows": self.engine.node_count(),
        }


class Session:
    """One live engine plus its ``.egg`` evaluator, guarded by a mutex.

    All entry points serialize on :attr:`lock`: a session is a
    single-threaded engine that many clients may *own* but only one may
    *drive* at a time.  The manager checks the same mutex to decide whether
    a session is evictable.
    """

    def __init__(self, session_id: str, base: Optional[str], evaluator: Evaluator) -> None:
        self.id = session_id
        self.base = base
        self.evaluator = evaluator
        self.engine: EGraph = evaluator.egraph
        self.lock = threading.Lock()
        self.created_at = time.monotonic()
        self.last_used = self.created_at
        self.batches = 0
        #: Set by :meth:`SessionManager._admit`; ``None`` for unmanaged use.
        self.manager: Optional["SessionManager"] = None
        #: Written only under :attr:`lock` by :meth:`SessionManager._retire`.
        #: Once True this object is an orphan: its durable state lives in
        #: the checkpoint store and the live incarnation (if any) is a
        #: different object under the same id.
        self.retired = False

    def touch(self) -> None:
        self.last_used = time.monotonic()
        self.batches += 1

    def _acquire_live(self) -> "Session":
        """Acquire the mutex of the *live* incarnation of this session.

        Closes the lookup-to-lock race with passivation: a session that was
        retired (checkpointed and dropped from the table) between
        ``manager.get`` and this acquisition is re-fetched through the
        manager — transparently restoring it from its checkpoint — instead
        of silently running the batch on an orphan whose effects the next
        restore would discard.  Returns the session whose lock the caller
        now holds (and must release); without a store, a retirement lost
        race surfaces as the manager's :class:`UnknownSessionError`.
        """
        session = self
        while True:
            session.lock.acquire()
            if not session.retired or session.manager is None:
                return session
            manager = session.manager
            session.lock.release()
            session = manager.get(session.id)

    @contextmanager
    def _transaction(self, atomic: bool) -> Iterator[None]:
        """All-or-nothing batch scope: roll back on any failure.

        The snapshot is *out of band* — :meth:`EGraph.snapshot_state`
        rather than ``push()`` — so client-visible ``(push)``/``(pop)``
        pairing across batches is untouched: a ``(pop)`` in a later batch
        still restores the client's own ``(push)``, never a transaction
        marker.  Rollback reinstalls the engine state, the engine's
        push/pop stack as it stood at batch entry (pushes made by the
        failed batch vanish), and the evaluator's global environment.

        A batch has no effect outside the engine and the evaluator to
        unwind: every evaluator the manager creates refuses ``(save)`` and
        ``(load)`` (:class:`~repro.frontend.errors.FileAccessError`).
        """
        if not atomic:
            yield
            return
        engine = self.engine
        state = engine.snapshot_state()
        # A shallow list copy pins the pre-batch push/pop stack: entries
        # stay pristine even if the batch pops them, because no write after
        # a restore reaches a capture (tables copy on their first write; a
        # restore of anything but the newest live capture first turns every
        # live union-find capture into copies).
        stack = list(engine._snapshots)
        frontend = self.evaluator.session_snapshot()
        try:
            yield
        except BaseException:
            # Reinstate the stack first: the failed batch's own pushes die,
            # so ``state`` is the newest live capture and the union-find
            # rolls back by undoing its journal rather than by copies.
            engine._snapshots = stack
            engine.restore_state(state)
            self.evaluator.session_restore(frontend)
            raise

    def _batch(self, atomic: bool, run: Callable[["Session"], T]) -> T:
        """Run one batch on the live incarnation of this session.

        The batch holds the session's mutex and runs as one transaction
        (see :meth:`_transaction`); the live incarnation may be a restored
        copy if this object was passivated since lookup (see
        :meth:`_acquire_live`).  A failing ``.egg`` command surfaces as a
        :class:`ProgramError` carrying its located message.
        """
        session = self._acquire_live()
        try:
            session.touch()
            with session._transaction(atomic):
                try:
                    return run(session)
                except FrontendError as error:
                    raise ProgramError(str(error)) from error
        finally:
            session.lock.release()

    def run_egg(
        self,
        text: str,
        *,
        atomic: bool = True,
        deadline_ms: Optional[int] = None,
        max_nodes: Optional[int] = None,
    ) -> List[str]:
        """Run a batch of ``.egg`` commands; returns the lines it printed.

        With ``atomic`` (the default) a failing command rolls the session
        back to its pre-batch state; ``deadline_ms``/``max_nodes`` are
        default budgets for ``run``/``run-schedule`` commands that carry
        none of their own.
        """
        return self._batch(
            atomic,
            lambda session: session.evaluator.run_program(
                text,
                f"<session {session.id}>",
                deadline_ms=deadline_ms,
                max_nodes=max_nodes,
            ),
        )

    def run_program(
        self,
        ops: Json,
        *,
        atomic: bool = True,
        deadline_ms: Optional[int] = None,
        max_nodes: Optional[int] = None,
    ) -> List[Json]:
        """Run a JSON-encoded program (see :mod:`repro.session.program`).

        Same transactional semantics and budgets as :meth:`run_egg`: by
        default a program failing at op *k* leaves the session
        byte-identical to its pre-batch state instead of keeping ops
        ``1..k-1`` applied.
        """
        return self._batch(
            atomic,
            lambda session: run_ops(
                session.evaluator, ops, deadline_ms=deadline_ms, max_nodes=max_nodes
            ),
        )

    def info(self) -> Dict[str, Any]:
        now = time.monotonic()
        return {
            "id": self.id,
            "base": self.base,
            "busy": self.lock.locked(),
            "batches": self.batches,
            "age_s": round(now - self.created_at, 3),
            "idle_s": round(now - self.last_used, 3),
            "nodes": self.engine.node_count(),
        }


class SessionManager:
    """Owns every base and session; all public methods are thread-safe."""

    def __init__(
        self,
        *,
        max_sessions: int = 64,
        idle_ttl_s: Optional[float] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self._lock = threading.RLock()
        self._bases: Dict[str, BaseInfo] = {}
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self.evictions = 0
        #: Durability: with a state dir, evicted/expired sessions are
        #: *passivated* (checkpointed to disk, restored on next touch)
        #: instead of destroyed, and the session table survives restarts.
        self.store = CheckpointStore(state_dir) if state_dir is not None else None
        #: Single-flight guard for checkpoint restores: ids currently being
        #: re-hydrated (disk I/O runs with ``_lock`` released, so without
        #: this two threads could restore the same session into two
        #: objects, orphaning one thread's batches).
        self._restoring: set = set()
        self._restored = threading.Condition(self._lock)
        self.passivations = 0
        self.checkpoints = 0
        self.restores = 0
        self.checkpoint_failures = 0
        self.restore_failures = 0
        # Resume id allocation past any checkpointed ids so a restarted
        # server never mints an id that collides with a passivated session.
        next_id = 1
        if self.store is not None:
            for sid in self.store.ids():
                if sid.startswith("s") and sid[1:].isdigit():
                    next_id = max(next_id, int(sid[1:]) + 1)
        self._ids = itertools.count(next_id)

    # -- bases ----------------------------------------------------------------

    def add_base_from_program(self, name: str, text: str) -> Dict[str, Any]:
        """Build a base by running an ``.egg`` program on a fresh engine.

        The evaluator's engine becomes the template directly: it is warm —
        its compiled query plans already sit in the process cache under its
        registry — so every fork starts with the cache hot.
        """
        self._check_base_name(name)
        evaluator = Evaluator(file_io=False)
        try:
            evaluator.run_program(text, f"<base {name}>")
        except FrontendError as error:
            raise ProgramError(str(error)) from error
        return self._install_base(
            name, evaluator.egraph, dict(evaluator.globals), "egg"
        )

    def add_base_from_snapshot(self, name: str, path: str) -> Dict[str, Any]:
        """Register a ``repro.snapshot/v1`` file as a base.

        The document is decoded exactly once, here; every session then forks
        the resulting template engine without touching the file again.
        """
        self._check_base_name(name)
        document = read_document(path)
        engine = engine_from_document(document)
        globals_values = decode_values(_egg_globals(document), "egg globals")
        return self._install_base(name, engine, globals_values, "snapshot")

    def _check_base_name(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ProgramError(f"base name must be a non-empty string, got {name!r}")
        with self._lock:
            if name in self._bases:
                raise DuplicateNameError(f"base {name!r} already exists")

    def _install_base(
        self, name: str, engine: EGraph, globals_values: Dict[str, Value], source: str
    ) -> Dict[str, Any]:
        base = BaseInfo(
            name=name, engine=engine, globals_values=globals_values, source=source
        )
        with self._lock:
            if name in self._bases:
                raise DuplicateNameError(f"base {name!r} already exists")
            self._bases[name] = base
        return base.info()

    def remove_base(self, name: str) -> None:
        with self._lock:
            if name not in self._bases:
                raise UnknownBaseError(f"no base named {name!r}")
            del self._bases[name]

    def bases(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [base.info() for base in self._bases.values()]

    # -- sessions -------------------------------------------------------------

    def create_session(self, base: Optional[str] = None) -> Session:
        """Create a session — empty, or forked in memory from a named base."""
        with self._lock:
            if base is not None:
                if base not in self._bases:
                    raise UnknownBaseError(f"no base named {base!r}")
                info = self._bases[base]
                session = self._new_session(base, info.engine.fork(), info.globals_values)
                info.forks += 1
            else:
                session = Session(self._next_id(), None, Evaluator(file_io=False))
        self._admit(session)
        return session

    def fork_session(self, session_id: str) -> Session:
        """Clone a live session: structural engine fork plus its globals."""
        parent = self.get(session_id)._acquire_live()
        try:
            engine = parent.engine.fork()
            globals_values = parent.evaluator.globals
        finally:
            parent.lock.release()
        with self._lock:
            session = self._new_session(parent.base, engine, globals_values)
        self._admit(session)
        return session

    def _new_session(
        self, base: Optional[str], engine: EGraph, globals_values: Dict[str, Value]
    ) -> Session:
        evaluator = Evaluator(engine, file_io=False)
        evaluator.globals = dict(globals_values)
        return Session(self._next_id(), base, evaluator)

    def _next_id(self) -> str:
        return f"s{next(self._ids)}"

    def _admit(self, session: Session) -> None:
        """Insert under the capacity cap, evicting idle LRU sessions first.

        Must be called *without* the manager lock held: capacity pressure
        may passivate a victim, and that disk write runs under the victim's
        own mutex with the table lock released so unrelated lookups never
        stall behind an fsync.  The capacity check and the insert happen
        under one lock hold per attempt, so concurrent admissions cannot
        overshoot the cap.
        """
        self._sweep_idle()
        session.manager = self
        while True:
            with self._lock:
                if len(self._sessions) < self.max_sessions:
                    self._sessions[session.id] = session
                    return
                victim = next(
                    (s for s in self._sessions.values() if not s.lock.locked()),
                    None,
                )
                if victim is None:
                    raise CapacityError(
                        f"all {self.max_sessions} sessions are busy; try again later"
                    )
            if not self._retire(victim):
                continue  # the victim turned busy under us; rescan

    def _retire(self, victim: Session) -> bool:
        """Passivate a session and drop it from the live table.

        Called without the manager lock.  The victim's mutex is taken
        non-blocking: a session that turned busy since the eviction scan is
        immune — return False so the caller rescans.  With a store the
        victim is checkpointed first; a checkpoint failure raises
        :class:`CheckpointError` and keeps the victim live: durable
        eviction must never silently destroy state it could not save.
        ``retired`` is published under the victim's mutex *after* a
        successful save, so any batch that subsequently wins the mutex sees
        the flag and chases the live incarnation (:meth:`Session._acquire_live`).
        The final table drop checks identity, not just the id — a
        concurrent restore may already have installed a fresh incarnation.
        """
        if not victim.lock.acquire(blocking=False):
            return False
        try:
            if self.store is not None:
                try:
                    self.store.save(victim)
                except Exception as error:
                    with self._lock:
                        self.checkpoint_failures += 1
                    raise CheckpointError(
                        f"cannot passivate session {victim.id!r}: {error}"
                    ) from error
            victim.retired = True
        finally:
            victim.lock.release()
        with self._lock:
            if self._sessions.get(victim.id) is victim:
                del self._sessions[victim.id]
            self.evictions += 1
            if self.store is not None:
                self.checkpoints += 1
                self.passivations += 1
        return True

    def _sweep_idle(self) -> None:
        if self.idle_ttl_s is None:
            return
        now = time.monotonic()
        with self._lock:
            expired = [
                s
                for s in self._sessions.values()
                if not s.lock.locked() and now - s.last_used > self.idle_ttl_s
            ]
        for session in expired:
            try:
                self._retire(session)
            except CheckpointError:
                pass  # unsavable: keep it live rather than destroy it

    def get(self, session_id: str) -> Session:
        """Look up a session and mark it most-recently-used.

        A session that was passivated (evicted/expired into the store, or
        checkpointed by a previous server process) is transparently
        restored from its checkpoint — callers cannot tell the difference.
        The restore's disk read and engine rebuild run with the manager
        lock released, so re-hydrating one large session never stalls
        lookups of the others.
        """
        session = self._lookup_live(session_id)
        if session is None:
            session = self._restore(session_id)
        if session is None:
            raise UnknownSessionError(
                f"no session {session_id!r} (evicted or never created)"
            )
        return session

    def _lookup_live(self, session_id: str) -> Optional[Session]:
        """Fast path: the session is in the table (and not a retirement
        orphan awaiting its final drop); touch its LRU slot and return it."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.retired:
                return None
            self._sessions.move_to_end(session_id)
            session.last_used = time.monotonic()
            return session

    def _restore(self, session_id: str) -> Optional[Session]:
        """Re-activate a passivated session from the store; None if absent.

        Single-flight per id: concurrent callers for the same session wait
        on one thread's restore (disk I/O runs without the manager lock)
        and then pick up the incarnation it admitted, so one session can
        never be re-hydrated into two rival objects.
        """
        if self.store is None:
            return None
        with self._restored:
            while session_id in self._restoring:
                self._restored.wait()
            session = self._sessions.get(session_id)
            if session is not None and not session.retired:
                self._sessions.move_to_end(session_id)
                session.last_used = time.monotonic()
                return session
            if not self.store.contains(session_id):
                return None
            self._restoring.add(session_id)
        try:
            try:
                evaluator, meta = self.store.load(session_id)
            except CheckpointError:
                with self._lock:
                    self.restore_failures += 1
                raise
            base = meta.get("base")
            session = Session(
                session_id, base if isinstance(base, str) else None, evaluator
            )
            batches = meta.get("batches")
            if isinstance(batches, int):
                session.batches = batches
            self._admit(session)
            with self._lock:
                self.restores += 1
            return session
        finally:
            with self._restored:
                self._restoring.discard(session_id)
                self._restored.notify_all()

    def checkpoint_session(self, session_id: str) -> Dict[str, Any]:
        """Checkpoint one session to the store now (it stays live)."""
        if self.store is None:
            raise CheckpointError(
                "no state dir configured; start the manager with state_dir= "
                "(repro-serve --state-dir) to enable checkpoints"
            )
        session = self.get(session_id)._acquire_live()
        try:
            try:
                document = self.store.save(session)
            except Exception as error:
                with self._lock:
                    self.checkpoint_failures += 1
                raise CheckpointError(
                    f"cannot checkpoint session {session_id!r}: {error}"
                ) from error
            with self._lock:
                self.checkpoints += 1
        finally:
            session.lock.release()
        return {
            "id": session_id,
            "path": self.store.path(session_id),
            "digest": document["digest"],
        }

    def checkpoint_all(self) -> int:
        """Checkpoint every live session (graceful shutdown); returns the
        number written.  Failures are counted, not raised — shutdown must
        save everything it still can."""
        if self.store is None:
            return 0
        with self._lock:
            sessions = list(self._sessions.values())
        written = 0
        for session in sessions:
            with session.lock:
                if session.retired:
                    continue  # already checkpointed on its way out
                try:
                    self.store.save(session)
                except Exception:
                    with self._lock:
                        self.checkpoint_failures += 1
                    continue
                with self._lock:
                    self.checkpoints += 1
                written += 1
        return written

    def remove_session(self, session_id: str) -> None:
        """Delete a session — live, passivated, or both (durably)."""
        with self._lock:
            live = self._sessions.pop(session_id, None)
            stored = (
                self.store.discard(session_id) if self.store is not None else False
            )
            if live is None and not stored:
                raise UnknownSessionError(f"no session {session_id!r}")

    def _passivated_ids(self) -> List[str]:
        if self.store is None:
            return []
        return [sid for sid in self.store.ids() if sid not in self._sessions]

    def sessions(self) -> List[Dict[str, Any]]:
        with self._lock:
            infos = [session.info() for session in self._sessions.values()]
            infos.extend(
                {"id": sid, "passivated": True} for sid in self._passivated_ids()
            )
            return infos

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            durability: Optional[Dict[str, Any]] = None
            if self.store is not None:
                durability = {
                    "state_dir": self.store.root,
                    "passivated": len(self._passivated_ids()),
                    "passivations": self.passivations,
                    "checkpoints": self.checkpoints,
                    "restores": self.restores,
                    "checkpoint_failures": self.checkpoint_failures,
                    "restore_failures": self.restore_failures,
                }
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "bases": len(self._bases),
                "evictions": self.evictions,
                "idle_ttl_s": self.idle_ttl_s,
                "durability": durability,
                "compile_cache": CACHE.stats(),
            }
