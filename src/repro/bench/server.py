"""Server bench: warm-base session forking versus cold program loads.

The service's reason to exist is that forking a session from a warm base —
a copy-on-write capture of the base (:meth:`EGraph.fork`) that reuses its
primitive registry and therefore the process-level compiled-plan cache — is
much cheaper than rebuilding the same e-graph from source.  This bench pins
that claim as a ``BENCH_server.json`` the regression gate can diff:

* ``fork-warm`` — one :class:`~repro.session.SessionManager` holds a
  saturated ``tc_chain`` base; the timed loop forks N sessions from it and
  answers one run + one check on each.
* ``cold-load`` — the timed loop creates N empty sessions and feeds each
  the full ``.egg`` program (parse, declare, insert, saturate), then
  answers the same run + check.

Both variants end every session in the identical saturated state and
answer the identical query, so the run-time delta is purely the serving
path.  The document shape matches :mod:`repro.bench.runner`'s v2 schema —
``run_s_stats`` medians, semantic fields per variant — so
``repro.bench.compare`` gates it like any engine workload.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

from .._version import package_version
from ..session import SessionManager
from .runner import SCHEMA, _run_s_stats, gc_paused

#: Workload name: the document lands in ``BENCH_server.json``.
SERVER_BENCH_NAME = "server"

_BASE = "tc_chain"


def _chain_program(n: int) -> str:
    """Transitive closure over an ``n``-node chain, facts only (no run)."""
    lines = [
        "(relation edge (i64 i64))",
        "(relation path (i64 i64))",
        '(rule ((edge x y)) ((path x y)) :name "base")',
        '(rule ((path x y) (edge y z)) ((path x z)) :name "trans")',
    ]
    lines.extend(f"(edge {i} {i + 1})" for i in range(1, n))
    return "\n".join(lines)


def _observe(session, n: int) -> Tuple[int, int, bool]:
    """The per-session query both variants answer: saturate + end-to-end check."""
    results = session.run_program(
        [
            {"op": "run", "limit": 4 * n},
            {
                "op": "check",
                "facts": [["a", "path", [["l", ["i64", 1]], ["l", ["i64", n]]]]],
            },
        ]
    )
    report = results[0]["report"]
    if not results[1]["ok"]:  # pragma: no cover - both paths saturate
        raise AssertionError(f"path(1, {n}) missing after run")
    return report["iterations"], report["matches"], report["saturated"]


def _fork_warm(n: int, sessions: int) -> Dict[str, object]:
    """One timed pass: N forks from a single pre-saturated base."""
    manager = SessionManager(max_sessions=sessions + 1)
    with gc_paused():
        start = time.perf_counter()
        manager.add_base_from_program(_BASE, _chain_program(n) + f"\n(run {4 * n})")
        setup_s = time.perf_counter() - start
    iterations = matches = 0
    saturated = True
    with gc_paused():
        start = time.perf_counter()
        for _ in range(sessions):
            session = manager.create_session(_BASE)
            i, m, s = _observe(session, n)
            iterations += i
            matches += m
            saturated = saturated and s
        run_s = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "iterations": iterations,
        "matches": matches,
        "saturated": saturated,
    }


def _cold_load(n: int, sessions: int) -> Dict[str, object]:
    """One timed pass: N sessions each built from program source, cold."""
    manager = SessionManager(max_sessions=sessions + 1)
    program = _chain_program(n)
    iterations = matches = 0
    saturated = True
    with gc_paused():
        start = time.perf_counter()
        for _ in range(sessions):
            session = manager.create_session()
            session.run_egg(program)
            i, m, s = _observe(session, n)
            iterations += i
            matches += m
            saturated = saturated and s
        run_s = time.perf_counter() - start
    return {"setup_s": 0.0, "run_s": run_s,
            "iterations": iterations, "matches": matches, "saturated": saturated}


_VARIANTS: Dict[str, Callable[[int, int], Dict[str, object]]] = {
    "fork-warm": _fork_warm,
    "cold-load": _cold_load,
}


def server_document(*, quick: bool = False, repeats: int = 3) -> Dict[str, object]:
    """Measure both serving paths; returns the BENCH document (v2 schema)."""
    n = 28 if quick else 72
    sessions = 20 if quick else 100
    measured: Dict[str, object] = {}
    for variant, runner in _VARIANTS.items():
        runs = [runner(n, sessions) for _ in range(repeats)]
        runs_s: List[float] = [run["run_s"] for run in runs]
        median = runs[runs_s.index(statistics.median_low(runs_s))]
        measured[variant] = {
            "repeats": repeats,
            "run_s": median["run_s"],
            "run_s_stats": _run_s_stats(runs_s),
            "runs_s": runs_s,
            "setup_s": median["setup_s"],
            "sessions": sessions,
            "per_session_ms": median["run_s"] * 1000.0 / sessions,
            "iterations": median["iterations"],
            "matches": median["matches"],
            "saturated": median["saturated"],
        }
    baseline = measured["cold-load"]
    candidate = measured["fork-warm"]
    baseline_s = baseline["run_s_stats"]["median"]
    candidate_s = candidate["run_s_stats"]["median"]
    return {
        "schema": SCHEMA,
        "name": SERVER_BENCH_NAME,
        "family": "server",
        "params": {"n": n, "sessions": sessions},
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "version": package_version(),
        "proofs": True,
        "variants": measured,
        "comparison": {
            "baseline": "cold-load",
            "candidate": "fork-warm",
            "baseline_run_s": baseline_s,
            "candidate_run_s": candidate_s,
            "baseline_run_s_stats": baseline["run_s_stats"],
            "candidate_run_s_stats": candidate["run_s_stats"],
            "speedup": (baseline_s / candidate_s) if candidate_s > 0 else None,
        },
    }
