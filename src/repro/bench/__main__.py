"""``python -m repro.bench``: run the benchmark suite, emit BENCH_*.json.

Examples::

    python -m repro.bench                 # full suite, 3 repeats, cwd output
    python -m repro.bench --quick         # CI-smoke sizes, 1 repeat
    python -m repro.bench --only tc       # transitive-closure workloads only
    python -m repro.bench --profile --only math   # cProfile instead of timing
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .._version import package_version
from .runner import profile_workload, run_suite
from .server import SERVER_BENCH_NAME
from .workloads import default_workloads


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the repro engine; writes one BENCH_<name>.json "
        "per workload.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-smoke sizes and a single repeat per workload",
    )
    parser.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory for BENCH_*.json files (default: current directory)",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="SUBSTRING",
        help="run only workloads whose name contains SUBSTRING",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="repeats per workload; default 3, or 1 with --quick",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the workload generators (default: 0)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list workload names and exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each selected workload (top-20 cumulative functions) "
        "instead of timing",
    )
    parser.add_argument(
        "--replay",
        metavar="SNAPSHOT",
        help="instead of the suite: load this repro.snapshot/v1 file and "
        "time its recorded replay schedule (warm-start bench)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro-bench {package_version()}",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.replay:
        from .replay import replay_snapshot

        repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
        return replay_snapshot(args.replay, repeats=repeats)
    workloads = default_workloads(quick=args.quick, seed=args.seed)
    # The server bench has its own variant pair (fork-warm vs cold-load)
    # and nothing to profile.
    include_server = not args.profile
    if args.only:
        workloads = [w for w in workloads if args.only in w.name]
        include_server = include_server and args.only in SERVER_BENCH_NAME
        if not workloads and not include_server:
            print(f"error: no workload matches {args.only!r}", file=sys.stderr)
            return 1
    if args.list:
        for workload in workloads:
            print(f"{workload.name}  [{workload.family}]  {workload.params}")
        if include_server:
            print(f"{SERVER_BENCH_NAME}  [server]  fork-warm vs cold-load")
        return 0
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    if repeats < 1:
        print("error: --repeats must be positive", file=sys.stderr)
        return 1
    if args.profile:
        for workload in workloads:
            profile_workload(workload)
        return 0
    if workloads:
        run_suite(workloads, repeats=repeats, out_dir=Path(args.out))
    if include_server:
        from .runner import write_document
        from .server import server_document

        document = server_document(quick=args.quick, repeats=repeats)
        path = write_document(document, Path(args.out))
        comparison = document["comparison"]
        print(
            f"bench: {SERVER_BENCH_NAME}: "
            f"fork-warm={comparison['candidate_run_s'] * 1000:.1f}ms, "
            f"cold-load={comparison['baseline_run_s'] * 1000:.1f}ms "
            f"(fork speedup over cold: {comparison['speedup']:.2f}x) -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
