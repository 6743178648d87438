"""Benchmark harness for the egglog reproduction (``python -m repro.bench``).

The ROADMAP's north star asks for hot paths "as fast as the hardware
allows" — which is unfalsifiable without numbers.  This package makes every
PR measurable:

* :mod:`repro.bench.workloads` — parameterized workload generators
  (transitive closure on chain/random/grid graphs, math rewriting at
  growing depths, congruence-closure stress, proof production,
  triangle listing — the one cyclic rule body — and extraction after
  every small batch on one long-lived engine).
* :mod:`repro.bench.runner` — runs each workload on a fresh engine,
  times the search/apply/rebuild phases via
  :class:`~repro.core.schema.RunReport`, and emits one schema-stable
  ``BENCH_<name>.json`` per workload.

* :mod:`repro.bench.compare` — the regression gate: compares fresh BENCH
  medians against the committed files and fails past a tolerance factor
  (CI runs it on every push).

Run ``python -m repro.bench --quick`` for a CI-sized smoke pass,
``python -m repro.bench --profile --only <name>`` to profile a workload
before optimizing it.
"""

from .runner import (
    SCHEMA,
    median_run_s,
    profile_workload,
    run_suite,
    run_workload,
)
from .workloads import Workload, default_workloads

__all__ = [
    "SCHEMA",
    "Workload",
    "default_workloads",
    "median_run_s",
    "profile_workload",
    "run_suite",
    "run_workload",
]
