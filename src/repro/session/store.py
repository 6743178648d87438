"""Durable session checkpoints: ``repro.snapshot/v1`` files in a state dir.

The :class:`CheckpointStore` is the disk half of session passivation.  A
checkpoint is a complete, self-contained snapshot of one session — the
engine state plus a ``surfaces.session`` section carrying the session's
identity (id, base name, batch counter) and ``surfaces.egg`` carrying its
global ``let`` environment — written as ``<state-dir>/<id>.json`` through
the serializer's atomic temp-file + ``os.replace`` path, so a crash at any
instant leaves either the previous checkpoint or the new one, never a
corrupt hybrid.

Because every checkpoint is self-contained, a restored session does not
need its base to still exist (or the server to have been restarted with
the same ``--base`` flags): restore is ``load_engine`` plus global
re-hydration, nothing else.

The store does no locking of its own — callers (the
:class:`~repro.session.manager.SessionManager`) hold the session's mutex
across :meth:`save` so a checkpoint can never observe a half-applied
batch.
"""

from __future__ import annotations

import os
import re
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..frontend.evaluator import Evaluator
from ..serialize.encode import decode_values, encode_values
from ..serialize.snapshot import load_engine, save_engine
from ..testing.faults import trip
from .errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - types only
    from .manager import Session

#: Session ids are manager-minted (``s<N>``), but validate defensively so a
#: hostile id can never escape the state dir.
_SAFE_ID = re.compile(r"^[A-Za-z0-9_-]+$")


class CheckpointStore:
    """Atomic per-session snapshot files under one state directory."""

    SUFFIX = ".json"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, session_id: str) -> str:
        if not _SAFE_ID.match(session_id):
            raise CheckpointError(f"unsafe session id {session_id!r}")
        return os.path.join(self.root, session_id + self.SUFFIX)

    def ids(self) -> List[str]:
        """Checkpointed session ids, sorted (temp files are ignored)."""
        found = []
        for name in os.listdir(self.root):
            if name.endswith(self.SUFFIX) and _SAFE_ID.match(name[: -len(self.SUFFIX)]):
                found.append(name[: -len(self.SUFFIX)])
        return sorted(found)

    def contains(self, session_id: str) -> bool:
        return bool(_SAFE_ID.match(session_id)) and os.path.exists(
            self.path(session_id)
        )

    def __len__(self) -> int:
        return len(self.ids())

    def save(self, session: "Session") -> Dict[str, Any]:
        """Checkpoint ``session`` to disk; returns the written document.

        The caller must hold ``session.lock`` — a checkpoint taken mid-batch
        would capture a half-applied program.
        """
        trip("checkpoint", tag=session.id)
        surfaces = {
            "egg": {"globals": encode_values(session.evaluator.globals)},
            "session": {
                "id": session.id,
                "base": session.base,
                "batches": session.batches,
            },
        }
        return save_engine(session.engine, self.path(session.id), surfaces=surfaces)

    def load(self, session_id: str) -> Tuple[Evaluator, Dict[str, Any]]:
        """Re-hydrate a checkpointed session's evaluator (engine + globals).

        Returns the evaluator and the checkpoint's ``surfaces.session``
        metadata.  A missing, truncated, or digest-corrupt checkpoint file
        raises :class:`CheckpointError` naming the path — server-side data
        loss, distinct from "no such session".
        """
        path = self.path(session_id)
        try:
            # Inside the try so an injected "restore" fault follows the
            # same path as a real load failure: CheckpointError, counted
            # by the manager's restore_failures accounting.
            trip("restore", tag=session_id)
            engine, document = load_engine(path)
        except Exception as error:
            raise CheckpointError(
                f"checkpoint {path} is unreadable: {error}"
            ) from error
        surfaces = document.get("surfaces")
        surfaces = surfaces if isinstance(surfaces, dict) else {}
        egg = surfaces.get("egg")
        egg = egg if isinstance(egg, dict) else {}
        meta = surfaces.get("session")
        meta = meta if isinstance(meta, dict) else {}
        evaluator = Evaluator(engine, file_io=False)
        try:
            evaluator.globals = decode_values(egg.get("globals", []), "egg globals")
        except Exception as error:
            raise CheckpointError(
                f"checkpoint {path} has undecodable globals: {error}"
            ) from error
        return evaluator, meta

    def discard(self, session_id: str) -> bool:
        """Delete a checkpoint; True if one existed."""
        if not _SAFE_ID.match(session_id):
            return False
        try:
            os.unlink(self.path(session_id))
            return True
        except FileNotFoundError:
            return False
