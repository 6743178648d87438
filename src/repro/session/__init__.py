"""Session layer: many named e-graph sessions forked from warm bases.

This package is the engine-facing half of the service layer (the HTTP half
lives in :mod:`repro.server`).  A :class:`SessionManager` owns named **base**
e-graphs — built by running ``.egg`` programs or loading ``repro.snapshot/v1``
files — and forks per-client :class:`Session` objects from them with
:meth:`EGraph.fork`, which shares the base's tables copy-on-write (no
document, no disk I/O on the fork path).  Sessions accept
``.egg`` command batches and JSON-encoded programs
(:mod:`repro.session.program`), run schedules under budgets, and answer
extract/check/explain queries.

Everything here is transport-agnostic and thread-safe: the manager and each
session carry their own locks, so any server (or a plain thread pool) can
drive them.
"""

from .errors import (
    CapacityError,
    CheckpointError,
    DuplicateNameError,
    ProgramError,
    SessionError,
    UnknownBaseError,
    UnknownSessionError,
)
from .manager import Session, SessionManager
from .program import report_json, run_ops
from .store import CheckpointStore

__all__ = [
    "CapacityError",
    "CheckpointError",
    "CheckpointStore",
    "DuplicateNameError",
    "ProgramError",
    "Session",
    "SessionError",
    "SessionManager",
    "UnknownBaseError",
    "UnknownSessionError",
    "report_json",
    "run_ops",
]
