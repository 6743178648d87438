"""``repro-serve``: the e-graph session service as a console command.

Boots a :class:`~repro.session.SessionManager`, optionally preloads named
bases from ``.egg`` programs or ``repro.snapshot/v1`` files, and serves the
HTTP API until SIGINT/SIGTERM.  The first line on stdout is always::

    repro-serve listening on http://HOST:PORT

so scripts can bind ``--port 0`` and scrape the ephemeral port.

With ``--state-dir DIR`` sessions survive the process: evicted/expired
sessions are checkpointed there and transparently restored on next touch,
and shutdown drains in-flight batches then checkpoints every live session
so a restart with the same directory picks up where it left off.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from ..serialize import SnapshotError
from ..session import SessionError, SessionManager
from .app import App
from .http import serve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve e-graph sessions over JSON/HTTP (see docs/SERVER.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8642, help="bind port; 0 picks one (default %(default)s)"
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="LRU capacity cap on live sessions (default %(default)s)",
    )
    parser.add_argument(
        "--idle-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict sessions idle longer than this (default: never)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="checkpoint sessions to DIR on eviction/expiry/shutdown and "
        "restore them on demand (default: sessions are memory-only)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help="default per-batch run budget; requests may override (default: none)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="refuse work with 503 past N in-flight requests (default: unbounded)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close keep-alive connections idle longer than this (default: never)",
    )
    parser.add_argument(
        "--read-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="answer 408 when a request's headers/body stall past this (default: never)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on shutdown, wait at most this long for in-flight batches "
        "before checkpointing (default %(default)s)",
    )
    parser.add_argument(
        "--base",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="preload a base from a .egg program or a .json snapshot; repeatable",
    )
    return parser


def _preload_bases(manager: SessionManager, specs: List[str]) -> None:
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(f"repro-serve: --base wants NAME=PATH, got {spec!r}")
        try:
            if path.endswith(".json"):
                info = manager.add_base_from_snapshot(name, path)
            else:
                with open(path, "r", encoding="utf-8") as handle:
                    info = manager.add_base_from_program(name, handle.read())
        except (OSError, SessionError, SnapshotError) as error:
            raise SystemExit(f"repro-serve: cannot load base {name!r}: {error}") from error
        print(f"repro-serve base {name!r}: {info['functions']} function(s), "
              f"{info['rows']} row(s) [{info['source']}]", flush=True)


async def _run(app: App, host: str, port: int, args: argparse.Namespace) -> None:
    server = await serve(
        app.handle,
        host,
        port,
        idle_timeout_s=args.idle_timeout,
        read_timeout_s=args.read_timeout,
    )
    bound = server.sockets[0].getsockname()
    print(f"repro-serve listening on http://{bound[0]}:{bound[1]}", flush=True)

    stop = asyncio.get_event_loop().create_future()

    def request_stop() -> None:
        if not stop.done():
            stop.set_result(None)

    loop = asyncio.get_event_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, request_stop)
        except NotImplementedError:  # pragma: no cover - non-unix loops
            pass
    try:
        await stop
    finally:
        # Graceful drain: stop accepting connections, refuse new work,
        # let in-flight batches finish, then persist every live session.
        server.close()
        await server.wait_closed()
        drained = await app.drain(args.drain_timeout)
        if not drained:
            print("repro-serve drain timed out; checkpointing anyway", flush=True)
        if app.manager.store is not None:
            written = await loop.run_in_executor(None, app.manager.checkpoint_all)
            print(f"repro-serve checkpointed {written} session(s)", flush=True)
    print("repro-serve stopped", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    manager = SessionManager(
        max_sessions=args.max_sessions,
        idle_ttl_s=args.idle_ttl,
        state_dir=args.state_dir,
    )
    if manager.store is not None and len(manager.store):
        print(
            f"repro-serve state dir has {len(manager.store)} restorable session(s)",
            flush=True,
        )
    _preload_bases(manager, args.base)
    app = App(manager, deadline_ms=args.deadline_ms, max_pending=args.max_pending)
    try:
        asyncio.run(_run(app, args.host, args.port, args))
    except KeyboardInterrupt:  # pragma: no cover - signal handler usually wins
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
