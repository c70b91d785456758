"""Dependency-free JSON-over-HTTP front-end for the prediction service.

A small HTTP/1.1 server on ``asyncio.start_server`` -- standard library
only, matching the repo's no-new-deps rule.  Routes:

========================  ======  =======================================
path                      method  body
========================  ======  =======================================
``/healthz``              GET     liveness: ``{"status": "ok"}``
``/stats``                GET     service + cache-tier counters
``/predict``              POST    one ``SimConfig``-shaped JSON object
``/predict/batch``        POST    one ``BatchConfig``-shaped JSON object
========================  ======  =======================================

Responses are strict JSON (non-finite floats already nullified by the
service core).  Invalid JSON, wrong shapes, unknown component kinds and
invalid parameters are 400s with an ``{"error": ...}`` body; unknown
paths 404; wrong methods 405; anything unexpected 500.  A ``/predict``
body the service has answered before is looked up by its bytes first
(:meth:`~repro.service.core.PredictionService.stored_hit`): a warm hit
is written from stored bytes, without decoding JSON.

Connections are keep-alive: one handler loops over requests until the
client closes or sends ``Connection: close``.  An HTTP/1.0 request is
keep-alive only if it sends ``Connection: keep-alive``.

What one client can hold is bounded.  A request line or header line
longer than :data:`MAX_LINE_BYTES`, more than :data:`MAX_HEADERS` header
lines, or a body above :data:`MAX_BODY_BYTES` is refused (400 or 413)
and the connection closed.  A connection whose next request has not
been read in full, body included, :data:`REQUEST_DEADLINE_S` seconds
after the handler began waiting for it -- a slow or stalled client, or
an idle keep-alive one -- is closed without a response.

On shutdown, :func:`serve_forever` stops listening and closes the
connections that are waiting for a request, so their handlers return
instead of being cancelled by ``asyncio.run``'s cleanup.  A request
being computed is answered, with ``Connection: close``, before its
connection closes; what is still running :data:`REQUEST_DEADLINE_S`
seconds later is aborted, and its handler ends without logging the
cancellation.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Set, Tuple

from .core import BadRequest, PredictionService, SCHEMA_VERSION, encode_body

__all__ = ["start_service", "serve_forever"]

#: Request body ceiling (a batch grid spec is small; results are big,
#: bodies are not).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Request line / header line ceiling.
MAX_LINE_BYTES = 16 * 1024
#: Header lines per request; one more is a 400.
MAX_HEADERS = 100
#: Seconds from when the handler starts waiting for a request until its
#: body is read; past it the connection is closed.  Also the bound on
#: how long shutdown waits for in-flight responses.
REQUEST_DEADLINE_S = 60.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _response(status: int, body: bytes, keep_alive: bool) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + body


def _error_body(message: str) -> bytes:
    return encode_body({"error": message, "schema_version": SCHEMA_VERSION})


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bool, bytes]]:
    """Parse one request into ``(method, path, keep_alive, body)``; None
    when the client closed between requests."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, "truncated request line") from exc
    except asyncio.LimitOverrunError as exc:
        raise _HttpError(400, "request line too long") from exc
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "malformed request line")
    method, path, version = parts
    headers: Dict[str, str] = {}
    count = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            raise _HttpError(400, "truncated headers") from exc
        if line in (b"\r\n", b"\n"):
            break
        if len(line) > MAX_LINE_BYTES:
            raise _HttpError(400, "header line too long")
        count += 1
        if count > MAX_HEADERS:
            raise _HttpError(400, f"more than {MAX_HEADERS} headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HttpError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0:
        raise _HttpError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds the limit")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, "truncated body") from exc
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    return method, path, keep_alive, body


def _parse_json_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc


async def _dispatch(
    service: PredictionService, method: str, path: str, body: bytes
) -> Tuple[int, bytes]:
    """Route one request; returns the status and the encoded body."""
    path = path.split("?", 1)[0]
    if path == "/healthz":
        if method != "GET":
            raise _HttpError(405, "use GET for /healthz")
        return 200, encode_body(
            {"status": "ok", "schema_version": SCHEMA_VERSION}
        )
    if path == "/stats":
        if method != "GET":
            raise _HttpError(405, "use GET for /stats")
        return 200, encode_body(service.stats())
    if path == "/predict":
        if method != "POST":
            raise _HttpError(405, "use POST for /predict")
        stored = service.stored_hit(body)
        if stored is not None:
            return 200, stored
        response = await service.predict(_parse_json_body(body))
        service.store_hit(body, response)
        return 200, encode_body(response)
    if path == "/predict/batch":
        if method != "POST":
            raise _HttpError(405, "use POST for /predict/batch")
        return 200, encode_body(
            await service.predict_batch(_parse_json_body(body))
        )
    raise _HttpError(404, f"no route for {path}")


class _Connections:
    """One server's connections, for its shutdown: each one's reader and
    handler task, the ones waiting for a request, and whether the server
    has stopped listening."""

    def __init__(self) -> None:
        self.handlers: Dict[
            asyncio.StreamWriter, Tuple[asyncio.StreamReader, asyncio.Task]
        ] = {}
        self.idle: Set[asyncio.StreamWriter] = set()
        self.closing = False


async def _handle_connection(
    service: PredictionService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    connections: _Connections,
) -> None:
    if connections.closing:
        # Accepted just before the server stopped listening.
        writer.transport.abort()
        return
    connections.handlers[writer] = (reader, asyncio.current_task())
    idle = connections.idle
    try:
        while True:
            keep_alive = False
            try:
                idle.add(writer)
                try:
                    async with asyncio.timeout(REQUEST_DEADLINE_S):
                        request = await _read_request(reader)
                except TimeoutError:
                    return
                finally:
                    idle.discard(writer)
                if request is None:
                    return
                method, path, keep_alive, body = request
                status, answer = await _dispatch(service, method, path, body)
            except _HttpError as exc:
                status, answer = exc.status, _error_body(exc.message)
                keep_alive = keep_alive and status != 400
            except BadRequest as exc:
                status, answer = 400, _error_body(str(exc))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 - the 500 boundary
                status = 500
                answer = _error_body(f"{type(exc).__name__}: {exc}")
            if connections.closing:
                keep_alive = False
            writer.write(_response(status, answer, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        del connections.handlers[writer]
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
            # Server shutdown cancels handler tasks parked here; the
            # transport is already closing, so exit quietly.
            pass


async def _listen(
    service: PredictionService, host: str, port: int
) -> Tuple[asyncio.AbstractServer, _Connections]:
    connections = _Connections()

    async def handler(reader, writer):
        try:
            await _handle_connection(service, reader, writer, connections)
        except asyncio.CancelledError:
            if not connections.closing:
                raise
            # Cancelled by _drain: end quietly.  On Python 3.11 the
            # stream protocol's done-callback calls task.exception(),
            # which on a cancelled task logs the CancelledError.

    server = await asyncio.start_server(
        handler, host=host, port=port, limit=MAX_LINE_BYTES
    )
    return server, connections


async def start_service(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 8753,
) -> asyncio.AbstractServer:
    """Bind the HTTP front-end; returns the listening asyncio server.

    Pass ``port=0`` to bind an ephemeral port (tests do); the bound
    address is available from ``server.sockets[0].getsockname()``.
    """
    server, _ = await _listen(service, host, port)
    return server


async def _drain(connections: _Connections) -> None:
    """Close every connection once its in-flight response is written.

    A busy handler answers with ``Connection: close``, and its reader is
    ended, so one that had sent a keep-alive response before
    ``closing`` was set reads end-of-file next.  What is still running
    after :data:`REQUEST_DEADLINE_S` is aborted and cancelled.
    """
    connections.closing = True
    for writer, (reader, _task) in connections.handlers.items():
        if writer in connections.idle:
            # abort, not close: close would first flush a response that
            # a stalled client may never read.
            writer.transport.abort()
        else:
            writer.transport.pause_reading()
            reader.feed_eof()
    tasks = [task for _reader, task in connections.handlers.values()]
    if not tasks:
        return
    _done, pending = await asyncio.wait(tasks, timeout=REQUEST_DEADLINE_S)
    for writer, (_reader, task) in list(connections.handlers.items()):
        writer.transport.abort()
        task.cancel()
    if pending:
        await asyncio.wait(pending)


async def serve_forever(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 8753,
    ready=None,
) -> None:
    """Run the server until cancelled (the ``repro.cli serve`` loop).

    ``ready`` is an optional callback invoked with the bound
    ``(host, port)`` once the socket is listening.
    """
    server, connections = await _listen(service, host, port)
    try:
        if ready is not None:
            ready(server.sockets[0].getsockname()[:2])
        # Not server.serve_forever(): on cancellation it awaits
        # server.wait_closed(), which from Python 3.12.1 waits for every
        # connection to close, idle keep-alive ones included.
        await asyncio.get_running_loop().create_future()
    finally:
        server.close()
        await _drain(connections)
