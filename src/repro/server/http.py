"""Minimal HTTP/1.1 framing over asyncio streams — no dependencies.

Just enough protocol for a JSON API: request line + headers + a
``Content-Length``-framed body in, a JSON document out, keep-alive until
either side asks to close.  No chunked encoding, no TLS, no multipart —
clients are scripts and tests, not browsers.

The handler passed to :func:`serve` is an *async* callable
``(method, path, body: bytes) -> (status, json_obj)``; transport-level
problems short-circuit through :class:`HttpError`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from .._version import package_version

#: Largest accepted request body; programs and .egg batches are small.
MAX_BODY = 64 * 1024 * 1024
#: Largest accepted request line / single header line.
MAX_LINE = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: A handler returns ``(status, json_obj)`` or ``(status, json_obj, headers)``.
Handler = Callable[[str, str, bytes], Awaitable[Tuple[Any, ...]]]


class HttpError(Exception):
    """A transport-level failure carrying the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "header line too long") from None
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""  # clean EOF between requests
        raise HttpError(400, "truncated request") from None
    if len(line) > MAX_LINE:
        raise HttpError(400, "header line too long")
    return line[:-2]


async def _read_request(
    reader: asyncio.StreamReader,
    idle_timeout_s: Optional[float] = None,
    read_timeout_s: Optional[float] = None,
) -> Optional[Tuple[str, str, bytes, bool]]:
    """One request off the wire: (method, path, body, keep_alive); None at EOF.

    ``idle_timeout_s`` bounds the wait for the *first* byte of a request
    (an idle keep-alive connection past it is closed silently, returning
    None); ``read_timeout_s`` bounds reading the rest — headers and body —
    once a request has started, so a stalled or drip-feeding client cannot
    pin a connection forever (it gets 408 via :class:`HttpError`).
    """
    try:
        request_line = await asyncio.wait_for(_read_line(reader), idle_timeout_s)
    except asyncio.TimeoutError:
        return None  # idle keep-alive connection expired; close quietly
    if not request_line:
        return None
    try:
        return await asyncio.wait_for(
            _read_request_rest(reader, request_line), read_timeout_s
        )
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out reading request headers/body") from None


async def _read_request_rest(
    reader: asyncio.StreamReader, request_line: bytes
) -> Tuple[str, str, bytes, bool]:
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts
    path = target.split("?", 1)[0]

    content_length = 0
    keep_alive = True
    while True:
        line = await _read_line(reader)
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length":
            try:
                content_length = int(value)
            except ValueError:
                raise HttpError(400, f"bad Content-Length {value!r}") from None
            if content_length < 0 or content_length > MAX_BODY:
                raise HttpError(413, "request body too large")
        elif name == "connection" and value.lower() == "close":
            keep_alive = False
        elif name == "transfer-encoding":
            raise HttpError(400, "chunked request bodies are not supported")

    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length") from None
    return method.upper(), path, body, keep_alive


def _encode_response(
    status: int,
    obj: Any,
    keep_alive: bool,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"
    extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Server: repro-serve/{package_version()}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        f"\r\n"
    )
    return head.encode("latin-1") + payload


async def _handle_connection(
    handler: Handler,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    idle_timeout_s: Optional[float] = None,
    read_timeout_s: Optional[float] = None,
) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader, idle_timeout_s, read_timeout_s)
            except HttpError as error:
                writer.write(
                    _encode_response(
                        error.status, {"ok": False, "error": str(error)}, False
                    )
                )
                await writer.drain()
                break
            if request is None:
                break
            method, path, body, keep_alive = request
            headers: Optional[Dict[str, str]] = None
            try:
                answer = await handler(method, path, body)
                if len(answer) == 3:
                    status, obj, headers = answer  # type: ignore[misc]
                else:
                    status, obj = answer  # type: ignore[misc]
            except HttpError as error:
                status, obj = error.status, {"ok": False, "error": str(error)}
            except Exception as error:  # noqa: BLE001 - last-resort 500
                status, obj = 500, {"ok": False, "error": f"internal error: {error}"}
            writer.write(_encode_response(status, obj, keep_alive, headers))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-exchange; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve(
    handler: Handler,
    host: str,
    port: int,
    *,
    idle_timeout_s: Optional[float] = None,
    read_timeout_s: Optional[float] = None,
) -> "asyncio.base_events.Server":
    """Start listening; returns the asyncio server (caller owns shutdown)."""

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(handler, reader, writer, idle_timeout_s, read_timeout_s)

    return await asyncio.start_server(on_connection, host, port, limit=MAX_LINE)
