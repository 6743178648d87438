"""Route table: HTTP requests onto the :class:`SessionManager`.

Endpoints (all JSON; see ``docs/SERVER.md`` for full schemas)::

    GET    /healthz                   liveness + version
    GET    /stats                     manager + compile-cache counters
    GET    /bases                     list bases
    POST   /bases                     {"name", "program"}
    DELETE /bases/<name>              forget a base (live forks unaffected)
    GET    /sessions                  list sessions
    POST   /sessions                  {"base": name?} -> {"session": {...}}
    GET    /sessions/<id>             one session's info
    DELETE /sessions/<id>             drop a session
    POST   /sessions/<id>/fork        clone a live session
    POST   /sessions/<id>/egg         {"program": ".egg text"} -> {"lines": [...]}
    POST   /sessions/<id>/program     {"ops": [...]} -> {"results": [...]}
    POST   /sessions/<id>/checkpoint  write a durable checkpoint now

``egg`` and ``program`` accept optional ``"atomic"`` (default true: the
batch rolls back entirely on failure) and ``"deadline_ms"`` (per-batch run
budget) fields.

Session-layer errors map to statuses (unknown -> 404, duplicate -> 409,
capacity -> 503, bad program -> 422, checkpoint failure -> 500).  Engine
work is blocking and CPU-bound, so every dispatch runs in a worker thread —
the session mutexes do the serialization, the event loop stays free to
accept connections.

Overload behaviour: the app tracks in-flight dispatches on the event-loop
side.  Past ``max_pending`` — or once :meth:`App.drain` has been called
during shutdown — new work is refused with 503 and a ``Retry-After``
header instead of queueing without bound.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from .._version import package_version
from ..session import (
    CapacityError,
    CheckpointError,
    DuplicateNameError,
    ProgramError,
    Session,
    SessionError,
    SessionManager,
    UnknownBaseError,
    UnknownSessionError,
)
from .http import HttpError

Json = Any

#: Ordered most-specific first; CheckpointError is a server-side failure.
_ERROR_STATUS = (
    (UnknownSessionError, 404),
    (UnknownBaseError, 404),
    (DuplicateNameError, 409),
    (CapacityError, 503),
    (ProgramError, 422),
    (CheckpointError, 500),
    (SessionError, 400),
)

#: Sent with every 503 so well-behaved clients back off before retrying.
RETRY_AFTER_S = 1

#: The 403 body for ``POST /bases {"snapshot_path"}``, identical for every
#: path.  Snapshot bases are an operator's choice, made at start-up.
SNAPSHOT_PATH_REFUSED = (
    "snapshot_path is refused over HTTP: the server opens no file for a "
    "client; preload snapshot bases with repro-serve --base NAME=PATH.json"
)


def _status_of(error: SessionError) -> int:
    for kind, status in _ERROR_STATUS:
        if isinstance(error, kind):
            return status
    return 400  # pragma: no cover - table covers the hierarchy


class App:
    """The service: one manager, a blocking dispatcher, an async adapter.

    ``deadline_ms`` is the default per-batch run budget applied to ``egg``
    and ``program`` requests that don't set their own; ``max_pending``
    bounds how many dispatches may be in flight at once before new work is
    refused with 503.
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        *,
        deadline_ms: Optional[int] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        self.manager = manager if manager is not None else SessionManager()
        self.deadline_ms = deadline_ms
        self.max_pending = max_pending
        self.pending = 0  # touched only on the event loop — no lock needed
        self.draining = False
        self.rejected = 0  # 503s from overload/drain, for /stats
        self._idle = asyncio.Event()
        self._idle.set()

    # -- async adapter (the event-loop side) ----------------------------------

    async def handle(self, method: str, path: str, body: bytes) -> Tuple[Any, ...]:
        if self.draining:
            self.rejected += 1
            return self._unavailable("server is draining; retry against a new instance")
        if self.max_pending is not None and self.pending >= self.max_pending:
            self.rejected += 1
            return self._unavailable(
                f"too many requests in flight (max_pending={self.max_pending})"
            )
        payload = self._decode_body(body)
        loop = asyncio.get_event_loop()
        self.pending += 1
        self._idle.clear()
        try:
            status, obj = await loop.run_in_executor(
                None, self.dispatch, method, path, payload
            )
        finally:
            self.pending -= 1
            if self.pending == 0:
                self._idle.set()
        if status == 503:
            return status, obj, {"Retry-After": str(RETRY_AFTER_S)}
        return status, obj

    @staticmethod
    def _unavailable(reason: str) -> Tuple[int, Json, Dict[str, str]]:
        return 503, {"ok": False, "error": reason}, {"Retry-After": str(RETRY_AFTER_S)}

    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop accepting work and wait for in-flight dispatches to finish.

        Returns True if the app went idle within ``timeout_s`` (None waits
        forever).  Call from the event loop during shutdown, then checkpoint
        via the manager.
        """
        self.draining = True
        if self.pending == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    @staticmethod
    def _decode_body(body: bytes) -> Json:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # Bad UTF-8, bad JSON, an integer past the interpreter's digit
            # limit, or nesting past its stack: whatever json.loads refuses.
            raise HttpError(400, f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    # -- blocking dispatcher (worker-thread side) -----------------------------

    def dispatch(self, method: str, path: str, payload: Dict[str, Json]) -> Tuple[int, Json]:
        """Route one request; thread-safe, callable without a server too."""
        try:
            return self._route(method, path, payload)
        except SessionError as error:
            return _status_of(error), {"ok": False, "error": str(error)}

    def _route(self, method: str, path: str, payload: Dict[str, Json]) -> Tuple[int, Json]:
        parts = [p for p in path.split("/") if p]

        if parts == ["healthz"]:
            self._require(method, "GET")
            return 200, {"ok": True, "version": package_version()}
        if parts == ["stats"]:
            self._require(method, "GET")
            stats = self.manager.stats()
            stats["server"] = {
                "pending": self.pending,
                "max_pending": self.max_pending,
                "draining": self.draining,
                "rejected": self.rejected,
                "deadline_ms": self.deadline_ms,
            }
            return 200, {"ok": True, "stats": stats}

        if parts == ["bases"]:
            if method == "GET":
                return 200, {"ok": True, "bases": self.manager.bases()}
            self._require(method, "POST")
            return self._create_base(payload)
        if len(parts) == 2 and parts[0] == "bases":
            self._require(method, "DELETE")
            self.manager.remove_base(parts[1])
            return 200, {"ok": True, "removed": parts[1]}

        if parts == ["sessions"]:
            if method == "GET":
                return 200, {"ok": True, "sessions": self.manager.sessions()}
            self._require(method, "POST")
            base = payload.get("base")
            if base is not None and not isinstance(base, str):
                raise HttpError(400, "field 'base' must be a string")
            session = self.manager.create_session(base)
            return 201, {"ok": True, "session": session.info()}
        if len(parts) >= 2 and parts[0] == "sessions":
            return self._session_route(method, parts[1], parts[2:], payload)

        raise HttpError(404, f"no route for {path!r}")

    def _create_base(self, payload: Dict[str, Json]) -> Tuple[int, Json]:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise HttpError(400, "field 'name' must be a non-empty string")
        if "snapshot_path" in payload:
            # One fixed answer whatever the path: the server opens no file
            # for a network client, so the reply cannot probe its disk.
            raise HttpError(403, SNAPSHOT_PATH_REFUSED)
        program = payload.get("program")
        if not isinstance(program, str):
            raise HttpError(400, "field 'program' must be a string")
        info = self.manager.add_base_from_program(name, program)
        return 201, {"ok": True, "base": info}

    def _session_route(
        self, method: str, session_id: str, rest: list, payload: Dict[str, Json]
    ) -> Tuple[int, Json]:
        if not rest:
            if method == "DELETE":
                self.manager.remove_session(session_id)
                return 200, {"ok": True, "removed": session_id}
            self._require(method, "GET")
            return 200, {"ok": True, "session": self.manager.get(session_id).info()}
        if len(rest) != 1:
            raise HttpError(404, f"no route for sessions/{session_id}/{'/'.join(rest)}")
        action = rest[0]
        if action == "fork":
            self._require(method, "POST")
            session = self.manager.fork_session(session_id)
            return 201, {"ok": True, "session": session.info()}
        if action == "egg":
            self._require(method, "POST")
            program = payload.get("program")
            if not isinstance(program, str):
                raise HttpError(400, "field 'program' must be a string")
            session = self.manager.get(session_id)
            lines = session.run_egg(program, **self._batch_options(payload))
            return 200, {"ok": True, "lines": lines}
        if action == "program":
            self._require(method, "POST")
            session = self.manager.get(session_id)
            results = session.run_program(
                payload.get("ops"), **self._batch_options(payload)
            )
            return 200, {"ok": True, "results": results}
        if action == "checkpoint":
            self._require(method, "POST")
            written = self.manager.checkpoint_session(session_id)
            return 200, {"ok": True, "checkpoint": written}
        raise HttpError(404, f"unknown session action {action!r}")

    def _batch_options(self, payload: Dict[str, Json]) -> Dict[str, Json]:
        """Per-request batch knobs, falling back to the app-wide deadline."""
        atomic = payload.get("atomic", True)
        if not isinstance(atomic, bool):
            raise HttpError(400, "field 'atomic' must be a boolean")
        deadline_ms = payload.get("deadline_ms", self.deadline_ms)
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, int)
            or deadline_ms <= 0
        ):
            raise HttpError(400, "field 'deadline_ms' must be a positive integer")
        return {"atomic": atomic, "deadline_ms": deadline_ms}

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"method {method} not allowed here (want {expected})")


__all__ = ["App", "Session"]
