"""The ``python -m repro`` command line: run .egg programs.

Each file runs on a fresh engine, in argument order; output lines
(``run``/``check``/``extract``/``query-extract`` results) stream to
stdout.  The first failing file stops the run: its error is printed as
``file.egg:line:col: message`` on stderr and the exit status is 1.

``--load SNAPSHOT`` warm-starts every file's session from a saved
snapshot instead of an empty engine; ``--save SNAPSHOT`` writes the final
session state (after the last file) back out.  With no files at all,
``--load``/``--save`` together act as a snapshot round-trip/migration
pass.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .._version import package_version
from ..errors import ReproError
from ..serialize import SnapshotError
from .evaluator import Evaluator


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run egglog (.egg) programs on the repro engine.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help=".egg program files to run in order ('-' reads stdin)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine statistics, per-rule match counts, and phase "
        "timings after each file",
    )
    parser.add_argument(
        "--load",
        metavar="SNAPSHOT",
        help="warm-start each session from this repro.snapshot/v1 file",
    )
    parser.add_argument(
        "--save",
        metavar="SNAPSHOT",
        help="write the final session state to this snapshot file",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {package_version()}",
    )
    return parser


def _print_stats(evaluator: Evaluator, name: str) -> None:
    """Engine size, per-rule match counts, and phase timings for one file."""
    stats = evaluator.egraph.stats()
    tables = ", ".join(
        f"{table}={size}" for table, size in sorted(stats["tables"].items())
    )
    print(
        f"stats: {name}: classes={stats['n_classes']} "
        f"unions={stats['n_unions']} tables: {tables or '(none)'}"
    )
    report = evaluator.report
    if report.iterations:
        print(
            f"stats: phases: search {report.search_time * 1000:.1f} ms / "
            f"apply {report.apply_time * 1000:.1f} ms / "
            f"rebuild {report.rebuild_time * 1000:.1f} ms "
            f"({report.iterations} iteration(s), "
            f"{report.delta_skips} delta search(es) skipped)"
        )
    if report.per_rule_matches:
        matches = ", ".join(
            f"{rule}={count}"
            for rule, count in sorted(report.per_rule_matches.items())
        )
        print(f"stats: rule matches: {matches}")


def _read(path: str) -> "tuple[str, str]":
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read(), path


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if not args.files and not (args.load or args.save):
        parser.error("at least one FILE is required (or --load/--save)")
    evaluator: Optional[Evaluator] = None
    for path in args.files or [None]:
        evaluator = Evaluator(sink=print)
        if args.load:
            try:
                evaluator.load_snapshot(args.load)
            except (OSError, SnapshotError) as error:
                print(f"error: {args.load}: {error}", file=sys.stderr)
                return 1
        if path is None:
            break  # no files: --load/--save round trip only
        try:
            text, name = _read(path)
        except OSError as error:
            print(f"error: {path}: {error.strerror or error}", file=sys.stderr)
            return 1
        try:
            evaluator.run_program(text, name)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.stats:
            _print_stats(evaluator, name)
    if args.save and evaluator is not None:
        try:
            evaluator.save_snapshot(args.save)
        except (OSError, SnapshotError) as error:
            print(f"error: {args.save}: {error}", file=sys.stderr)
            return 1
    return 0
