"""Warm-start bench replay: time a schedule against a loaded snapshot.

``python -m repro.bench --replay SNAPSHOT`` loads a ``repro.snapshot/v1``
file and runs the schedule recorded in its ``replay`` block (default: one
iteration of the default ruleset).  Load and run are timed separately, so
the output shows what warm-starting buys: on a snapshot saved at
saturation the run phase finds no new work and finishes in a fraction of
the cold saturation time the snapshot encodes.

The ``replay`` block is written by the snapshot corpus builders (see
``tests/snapshots/``) and by any caller passing ``replay=`` to
:func:`repro.serialize.save_engine`::

    {
      "schedule": <encoded schedule>,          # see serialize.encode_schedule
      "expected": {
        "saturated": true,                     # run must end saturated
        "n_unions": 41,                        # union-find count afterwards
        "table_rows": {"path": 4950}           # row counts afterwards
      }
    }

Every ``expected`` key is optional; present ones are checked after the
replay run and a mismatch fails the replay (exit 1) — a snapshot whose
recorded facts no longer reproduce is stale or the engine regressed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

from ..engine import EGraph
from ..engine.schedule import Run, Schedule
from ..serialize import SnapshotError, load_engine, read_document
from ..serialize.encode import decode_schedule
from .runner import gc_paused


def _replay_schedule(document: Dict[str, object]) -> Schedule:
    replay = document.get("replay")
    if isinstance(replay, dict) and "schedule" in replay:
        return decode_schedule(replay["schedule"])
    return Run(1)


def _check_expected(engine: EGraph, document: Dict[str, object]) -> List[str]:
    """Mismatches between the engine and the replay block's expectations."""
    replay = document.get("replay")
    expected = replay.get("expected") if isinstance(replay, dict) else None
    if not isinstance(expected, dict):
        return []
    problems: List[str] = []
    if "n_unions" in expected and engine.uf.n_unions != expected["n_unions"]:
        problems.append(
            f"n_unions: expected {expected['n_unions']}, got {engine.uf.n_unions}"
        )
    for name, rows in (expected.get("table_rows") or {}).items():
        table = engine.tables.get(name)
        actual = len(table) if table is not None else None
        if actual != rows:
            problems.append(f"table {name}: expected {rows} row(s), got {actual}")
    return problems


def replay_snapshot(
    path: str,
    *,
    repeats: int = 3,
    log: Callable[[str], None] = print,
) -> int:
    """Load ``path`` and time its replay schedule; returns an exit code.

    Each repeat loads a fresh engine from the snapshot (timed) and runs the
    replay schedule (timed); the summary reports median load and run times.
    The last repeat's engine is checked against the replay block's
    ``expected`` facts and, when the block expects saturation, the run
    report must confirm it.
    """
    try:
        document = read_document(path)
    except (OSError, SnapshotError) as error:
        log(f"error: {path}: {error}")
        return 1
    schedule = _replay_schedule(document)
    replay = document.get("replay")
    expected = replay.get("expected") if isinstance(replay, dict) else None
    expect_saturated = bool(expected.get("saturated")) if isinstance(expected, dict) else False

    load_times: List[float] = []
    run_times: List[float] = []
    engine = None
    report = None
    for _ in range(max(1, repeats)):
        with gc_paused():
            start = time.perf_counter()
            engine, _ = load_engine(path)
            load_times.append(time.perf_counter() - start)
        with gc_paused():
            start = time.perf_counter()
            report = engine.run_schedule(schedule)
            run_times.append(time.perf_counter() - start)

    meta = document.get("meta")
    generator = meta.get("generator", "?") if isinstance(meta, dict) else "?"
    log(
        f"replay: {path} [{generator}] schedule={schedule!r}: "
        f"load {statistics.median_low(load_times) * 1000:.1f}ms, "
        f"run {statistics.median_low(run_times) * 1000:.1f}ms "
        f"({report.iterations} iteration(s), {report.num_matches} match(es), "
        f"saturated={report.saturated})"
    )
    problems = _check_expected(engine, document)
    if expect_saturated and not report.saturated:
        problems.append("run did not saturate but the replay block expects it")
    for problem in problems:
        log(f"FAIL {path}: {problem}")
    if problems:
        return 1
    log(f"replay: {path}: expected facts confirmed")
    return 0


def expected_block(engine: EGraph) -> Dict[str, object]:
    """The ``expected`` facts for a replay block, read off a live engine.

    Helper for snapshot writers: capture the post-run state so replays can
    verify it.  Assumes the engine was run to saturation before saving.
    """
    return {
        "saturated": True,
        "n_unions": engine.uf.n_unions,
        "table_rows": {name: len(table) for name, table in engine.tables.items()},
    }
