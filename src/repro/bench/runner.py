"""Benchmark runner: time workloads on the engine, emit BENCH JSON.

For each workload the runner builds a fresh engine per repeat,
times setup and run separately with ``time.perf_counter`` (each region
with the cyclic GC collected up front and paused, see :func:`gc_paused`),
and folds in the phase split (search/apply/rebuild) that the scheduler's
:class:`~repro.core.schema.RunReport` already tracks.  Aggregation is the
median over repeats — robust to one noisy run without needing many.

One ``BENCH_<name>.json`` is written per workload.  The schema is stable
(``schema`` key, fixed key set per level) so downstream tooling and future
PRs can diff numbers without parsing churn.  An engine workload records
one variant, ``default``: each rule picks its join from the shape of its
body, so there is no engine-wide choice left to measure side by side.
The ``variants`` block stays because the server bench measures two
serving paths in it.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List

from .._version import package_version
from ..engine import EGraph
from .workloads import Workload

#: Schema identifier written into every BENCH file; bump on breaking change.
#: v2: every variant reports min/median/max over repeats
#: (``run_s_stats``); headline numbers are medians.  Readers should stay
#: tolerant of v1 files (no ``run_s_stats`` key) and of v2 files written
#: before ``run_s_stats`` gained ``q1``/``q3``.
SCHEMA = "repro.bench/v2"

#: The one variant name an engine workload records.
VARIANT = "default"


@contextmanager
def gc_paused() -> Iterator[None]:
    """Wrap one timed region: collect garbage first, keep the cyclic GC off
    inside, and turn it back on after.

    A collection that fires mid-region charges the cost of earlier
    allocations to whatever code happens to be running, which spreads
    repeats of the same work far apart.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run_once(workload: Workload) -> Dict[str, object]:
    """One cold run of ``workload`` on a fresh engine; returns raw numbers."""
    egraph = EGraph()
    with gc_paused():
        start = time.perf_counter()
        workload.setup(egraph)
        setup_s = time.perf_counter() - start
    with gc_paused():
        start = time.perf_counter()
        report = workload.run(egraph)
        run_s = time.perf_counter() - start
    table_rows = {
        name: len(egraph.tables[name])
        for name in workload.tables_of_interest
        if name in egraph.tables
    }
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "search_s": report.search_time,
        "apply_s": report.apply_time,
        "rebuild_s": report.rebuild_time,
        "iterations": report.iterations,
        "matches": report.num_matches,
        "delta_skips": report.delta_skips,
        "saturated": report.saturated,
        "table_rows": table_rows,
    }


def _run_s_stats(runs_s: List[float]) -> Dict[str, float]:
    """min/q1/median/q3/max over the repeats' run times.

    The median is ``median_low``: an actually measured run, consistent
    with the per-variant headline numbers.  The quartiles are inclusive
    (they stay within min..max; one repeat gives q1 == q3 == its run), so
    ``q3 - q1`` is the spread a paired comparison weighs a ratio against.
    """
    q1 = q3 = runs_s[0]
    if len(runs_s) > 1:
        q1, _median, q3 = statistics.quantiles(runs_s, n=4, method="inclusive")
    return {
        "min": min(runs_s),
        "q1": q1,
        "median": statistics.median_low(runs_s),
        "q3": q3,
        "max": max(runs_s),
    }


def median_run_s(entry: Dict[str, object]) -> float:
    """The median ``run_s`` of a variant entry, tolerant of v1 documents.

    v2 documents carry an explicit ``run_s_stats`` block; v1 documents only
    have the headline ``run_s`` (which was already the median run).
    """
    stats = entry.get("run_s_stats")
    if isinstance(stats, dict) and "median" in stats:
        return float(stats["median"])  # type: ignore[arg-type]
    return float(entry["run_s"])  # type: ignore[arg-type]


def run_workload(workload: Workload, *, repeats: int = 3) -> Dict[str, object]:
    """Measure ``workload`` over ``repeats`` cold runs; returns the BENCH
    document."""
    runs = [_run_once(workload) for _ in range(repeats)]
    runs_s = [run["run_s"] for run in runs]
    # median_low throughout: every reported number (headline, phase
    # split, counts) comes from the same actually-measured run.
    median = runs[runs_s.index(statistics.median_low(runs_s))]
    measured = {
        "repeats": repeats,
        "run_s": median["run_s"],
        "run_s_stats": _run_s_stats(runs_s),
        "runs_s": runs_s,
        "setup_s": median["setup_s"],
        "search_s": median["search_s"],
        "apply_s": median["apply_s"],
        "rebuild_s": median["rebuild_s"],
        "iterations": median["iterations"],
        "matches": median["matches"],
        "delta_skips": median["delta_skips"],
        "saturated": median["saturated"],
        "table_rows": median["table_rows"],
    }
    return {
        "schema": SCHEMA,
        "name": workload.name,
        "family": workload.family,
        "params": workload.params,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        # Provenance: which engine build measured these numbers and whether
        # proof production (the default) was on — both shift run times.
        "version": package_version(),
        "proofs": True,
        "variants": {VARIANT: measured},
    }


def profile_workload(
    workload: Workload,
    *,
    top: int = 20,
    log: Callable[[str], None] = print,
) -> None:
    """Run ``workload`` once under :mod:`cProfile`, printing hot functions.

    Setup runs unprofiled; only the run phase is measured, sorted by
    cumulative time (top ``top`` entries).  This is the evidence step for
    perf work: before optimizing, profile the workload you care about.
    """
    import cProfile
    import io
    import pstats

    egraph = EGraph()
    workload.setup(egraph)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(egraph)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(top)
    log(f"profile: {workload.name} — top {top} by cumulative time")
    log(stream.getvalue().rstrip())


def write_document(document: Dict[str, object], out_dir: Path) -> Path:
    """Write one BENCH document as ``BENCH_<name>.json``; returns the path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{document['name']}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def run_suite(
    workloads: Iterable[Workload],
    *,
    repeats: int = 3,
    out_dir: Path = Path("."),
    log: Callable[[str], None] = print,
) -> List[Path]:
    """Run every workload, write its BENCH file, and log a one-line summary."""
    paths: List[Path] = []
    for workload in workloads:
        document = run_workload(workload, repeats=repeats)
        path = write_document(document, out_dir)
        paths.append(path)
        summary = ", ".join(
            f"{variant}={entry['run_s'] * 1000:.1f}ms"
            for variant, entry in document["variants"].items()  # type: ignore[union-attr]
        )
        log(f"bench: {workload.name}: {summary} -> {path}")
    return paths
