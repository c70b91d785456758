"""Dependency-free JSON-over-HTTP front-end for the prediction service.

A small HTTP/1.1 server on ``loop.create_server`` with one
:class:`asyncio.BufferedProtocol` per connection -- standard library
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

Each connection parses its requests out of one receive buffer.  A
request's head ends at its first blank line; of its headers only
``Content-Length``, ``Connection`` and ``Transfer-Encoding`` are read.
``Content-Length`` must be ASCII digits (400 otherwise), two
``Content-Length`` headers must agree (400 otherwise), and a request
with any ``Transfer-Encoding`` is a 501: chunked bodies are not
implemented.  Each of these closes the connection.

Connections are keep-alive: requests, pipelined or not, are answered in
order until the client closes or sends ``Connection: close``.  An
HTTP/1.0 request is keep-alive only if it sends ``Connection:
keep-alive``.  A request that needs no compute -- ``/healthz``,
``/stats``, an error, a stored hit -- is answered as soon as it is in;
a ``/predict`` miss or a batch runs as a task, and the connection takes
no further request until that is answered, nor while the client is not
reading what it was sent.

What one client can hold is bounded.  A request line or header line
longer than :data:`MAX_LINE_BYTES`, more than :data:`MAX_HEADERS` header
lines, or a body above :data:`MAX_BODY_BYTES` is refused (400 or 413)
and the connection closed; a bad line or one header too many is refused
as soon as it is in, before the head is complete.  A connection whose
next request has not been read in full, body included,
:data:`REQUEST_DEADLINE_S` seconds after the server began waiting for
it -- a slow or stalled client, or an idle keep-alive one -- is closed
without a response.  A connection whose unsent response bytes have not
shrunk for :data:`REQUEST_DEADLINE_S` seconds -- a client that stopped
reading -- is aborted; one that keeps reading, however slowly, is not.

On shutdown, :func:`serve_forever` stops listening and aborts the
connections that are waiting for a request.  A request being computed
is answered, with ``Connection: close``, before its connection closes,
and a connection still writing a response closes once it is flushed;
what is left :data:`REQUEST_DEADLINE_S` seconds later is aborted, and
its compute cancelled without logging the cancellation.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional, Set, Tuple

from .core import BadRequest, PredictionService, SCHEMA_VERSION, encode_body

__all__ = ["start_service", "serve_forever"]

#: Request body ceiling (a batch grid spec is small; results are big,
#: bodies are not).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Request line / header line ceiling.
MAX_LINE_BYTES = 16 * 1024
#: Header lines per request; one more is a 400.
MAX_HEADERS = 100
#: Seconds from when the server starts waiting for a request until its
#: body is read; past it the connection is closed.  Also how long
#: unsent response bytes may go without shrinking, and the bound on how
#: long shutdown waits for in-flight responses.
REQUEST_DEADLINE_S = 60.0

#: Bytes a connection that takes no request (computing, or its client
#: not reading) buffers before it stops reading from its socket.
_PAUSE_READING_BYTES = 32 * 1024
#: Size of the receive buffer the server's connections share: the most
#: one socket read takes.
_RECEIVE_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
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


def _failure(exc: Exception, keep_alive: bool) -> Tuple[int, bytes, bool]:
    """Status, body and keep-alive of the answer to a request that
    raised ``exc``."""
    if isinstance(exc, _HttpError):
        return exc.status, _error_body(exc.message), (
            keep_alive and exc.status != 400
        )
    if isinstance(exc, BadRequest):
        return 400, _error_body(str(exc)), keep_alive
    return 500, _error_body(f"{type(exc).__name__}: {exc}"), keep_alive


def _request_line(line: str) -> Tuple[str, str, str]:
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "malformed request line")
    return parts[0], parts[1], parts[2]


def _content_length(text: str) -> int:
    if text.isdigit() and text.isascii():
        length = int(text)
    elif text[:1] == "-" and text[1:].isdigit() and text[1:].isascii():
        raise _HttpError(400, "negative Content-Length")
    else:
        raise _HttpError(400, f"bad Content-Length: {text!r}")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds the limit")
    return length


def _parse_json_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc


def _route(service: PredictionService, method: str, path: str, body: bytes):
    """Route one request: its status and encoded body when it needs no
    compute, else a coroutine that computes them."""
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
        return _predict(service, body, _parse_json_body(body))
    if path == "/predict/batch":
        if method != "POST":
            raise _HttpError(405, "use POST for /predict/batch")
        return _predict_batch(service, _parse_json_body(body))
    raise _HttpError(404, f"no route for {path}")


async def _predict(
    service: PredictionService, body: bytes, payload: Any
) -> Tuple[int, bytes]:
    response = await service.predict(payload)
    service.store_hit(body, response)
    return 200, encode_body(response)


async def _predict_batch(
    service: PredictionService, payload: Any
) -> Tuple[int, bytes]:
    return 200, encode_body(await service.predict_batch(payload))


class _Connections:
    """One server's live connections, for its shutdown: whether it has
    stopped listening, and a future set once the last one is gone.  Also
    the buffer every socket read lands in, copied out at once."""

    def __init__(self) -> None:
        self.live: Set[_Connection] = set()
        self.closing = False
        self.emptied: Optional[asyncio.Future] = None
        self.received = bytearray(_RECEIVE_BYTES)
        self.view = memoryview(self.received)

    def forget(self, connection: "_Connection") -> None:
        self.live.discard(connection)
        emptied = self.emptied
        if not self.live and emptied is not None and not emptied.done():
            emptied.set_result(None)


class _Connection(asyncio.BufferedProtocol):
    """One client connection.

    Requests are taken out of :attr:`buffer` in order and answered
    through the transport.  While a compute :attr:`task` runs, while the
    transport is write-paused, or once the connection is closing, no
    request is taken.  One timer handle per connection enforces both
    deadlines; it is re-armed lazily, when it fires.
    """

    def __init__(
        self, service: PredictionService, connections: _Connections
    ) -> None:
        self.service = service
        self.connections = connections
        self.loop = asyncio.get_running_loop()
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self.task: Optional[asyncio.Task] = None
        self.write_paused = False
        self.reading_paused = False
        #: No request will be taken: the transport is closed or closing.
        self.closing = False
        self.eof = False
        self.lost = False
        self.timer: Optional[asyncio.TimerHandle] = None
        #: Loop time by which the next request must be in.
        self.deadline = 0.0
        #: (unsent bytes, loop time) when output was last seen shrinking.
        self.stall: Optional[Tuple[int, float]] = None
        #: The request whose head is in and body is not:
        #: (method, path, keep_alive, body start, body end).
        self.head: Optional[Tuple[str, str, bool, int, int]] = None
        #: Lines of a head still arriving that were checked, and the
        #: buffer offset of the next one.
        self.lines = 0
        self.scanned = 0

    # -- asyncio.Protocol ---------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        if self.connections.closing:
            # Accepted just before the server stopped listening.
            self.closing = True
            transport.abort()
            return
        self.connections.live.add(self)
        self._wait_for_request()

    def get_buffer(self, sizehint: int) -> bytearray:
        return self.connections.received

    def buffer_updated(self, nbytes: int) -> None:
        self.buffer += self.connections.view[:nbytes]
        self._serve()

    def eof_received(self) -> bool:
        self.eof = True
        self._serve()
        return True  # the response to a request in hand is still sent

    def pause_writing(self) -> None:
        self.write_paused = True
        self._watch_output()

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.closing:
            return  # the transport closes once flushed
        self.stall = None
        self._wait_for_request()
        self._serve()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.lost = self.closing = True
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.task is None:
            self.connections.forget(self)

    # -- requests -----------------------------------------------------
    def _serve(self) -> None:
        """Answer the complete requests in the buffer, in order, until
        one needs a compute or the connection stops taking requests."""
        while not (self.task or self.write_paused or self.closing):
            if not self.buffer:
                if self.eof:
                    self._close()
                break
            try:
                request = self._next_request()
            except _HttpError as exc:
                self._respond(exc.status, _error_body(exc.message), False)
                return
            if request is None:
                break
            self._answer(*request)
        if self.task or self.write_paused:
            if len(self.buffer) > _PAUSE_READING_BYTES and not self.reading_paused:
                self.reading_paused = True
                self.transport.pause_reading()
        elif self.reading_paused and not self.closing:
            self.reading_paused = False
            self.transport.resume_reading()

    def _next_request(self) -> Optional[Tuple[str, str, bool, bytes]]:
        """Take the next complete request out of the buffer as
        ``(method, path, keep_alive, body)``; None until it is in."""
        buffer = self.buffer
        head = self.head
        if head is None:
            head = self._read_head()
            if head is None:
                if self.eof:
                    raise _HttpError(400, "truncated headers" if self.lines
                                     else "truncated request line")
                return None
        method, path, keep_alive, start, end = head
        if len(buffer) < end:
            if self.eof:
                raise _HttpError(400, "truncated body")
            self.head = head
            return None
        self.head = None
        body = bytes(buffer[start:end])
        del buffer[:end]
        return method, path, keep_alive, body

    def _read_head(self) -> Optional[Tuple[str, str, bool, int, int]]:
        """The head at the front of the buffer, checked, as ``(method,
        path, keep_alive, body start, body end)``; None until its blank
        line is in."""
        buffer = self.buffer
        # A head that came whole and short: no line of it can be too
        # long, and one split counts its lines.
        end = -1 if self.lines else buffer.find(b"\r\n\r\n")
        if 0 <= end <= MAX_LINE_BYTES:
            lines = buffer[:end].decode("latin-1").split("\r\n")
            if len(lines) > MAX_HEADERS + 1:
                end = -1
        if end < 0 or end > MAX_LINE_BYTES:
            end = self._scan()
            if end < 0:
                return None
            lines = buffer[:end].decode("latin-1").split("\r\n")
        method, path, version = _request_line(lines[0])
        length_text = None
        connection = ""
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                value = value.strip()
                if length_text is not None and value != length_text:
                    raise _HttpError(400, "conflicting Content-Length headers")
                length_text = value
            elif name == "connection":
                connection = value.strip().lower()
            elif name == "transfer-encoding":
                raise _HttpError(501, "Transfer-Encoding is not supported")
        start = end + 4
        if length_text is None:
            end = start
        else:
            end = start + _content_length(length_text)
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return method, path, keep_alive, start, end

    def _scan(self) -> int:
        """Check the lines of a head still arriving, from where the last
        call stopped: the offset of its blank line once that is in,
        else -1.

        Each line is refused as soon as it is in: a malformed request
        line, a line over :data:`MAX_LINE_BYTES` (or, still arriving,
        two bytes past it), and the header line one past
        :data:`MAX_HEADERS`.
        """
        buffer = self.buffer
        limit = MAX_LINE_BYTES
        start = self.scanned
        while True:
            end = buffer.find(b"\r\n", start)
            if end < 0 or end - start > limit:
                if end < 0 and len(buffer) - start <= limit + 1:
                    self.scanned = start
                    return -1
                raise _HttpError(400, "truncated headers" if self.lines
                                 else "request line too long")
            if not self.lines:
                _request_line(buffer[:end].decode("latin-1"))
            elif end == start:
                self.lines = self.scanned = 0
                return end - 2
            elif end - start + 2 > limit:
                raise _HttpError(400, "header line too long")
            elif self.lines > MAX_HEADERS:
                raise _HttpError(400, f"more than {MAX_HEADERS} headers")
            self.lines += 1
            start = end + 2

    def _answer(
        self, method: str, path: str, keep_alive: bool, body: bytes
    ) -> None:
        try:
            answer = _route(self.service, method, path, body)
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            status, payload, keep_alive = _failure(exc, keep_alive)
        else:
            if type(answer) is not tuple:
                self.task = self.loop.create_task(
                    self._compute(answer, keep_alive)
                )
                return
            status, payload = answer
        self._respond(status, payload, keep_alive)

    async def _compute(self, pending, keep_alive: bool) -> None:
        try:
            try:
                status, payload = await pending
            except Exception as exc:  # noqa: BLE001 - the 500 boundary
                status, payload, keep_alive = _failure(exc, keep_alive)
        finally:
            self.task = None
            if self.lost:
                self.connections.forget(self)
        if not self.lost:
            self._respond(status, payload, keep_alive)
            self._serve()

    def _respond(self, status: int, payload: bytes, keep_alive: bool) -> None:
        if self.connections.closing:
            keep_alive = False
        transport = self.transport
        transport.write(_response(status, payload, keep_alive))
        if not keep_alive or transport.is_closing():
            self._close()
        elif not self.write_paused:
            self._wait_for_request()

    # -- closing and deadlines ----------------------------------------
    def _close(self) -> None:
        """Close once the unsent output is flushed; no request is taken."""
        self.closing = True
        self.transport.close()
        self._watch_output()

    def shutdown(self) -> None:
        """The server is shutting down: abort a connection waiting for a
        request; let one computing or writing finish its response."""
        if self.task is not None:
            self.transport.pause_reading()
        elif self.write_paused:
            self._close()
        elif not self.closing:
            self.closing = True
            # abort, not close: close would first flush output that a
            # stalled client may never read.
            self.transport.abort()

    def _wait_for_request(self) -> None:
        self.deadline = self.loop.time() + REQUEST_DEADLINE_S
        self._arm(self.deadline)

    def _watch_output(self) -> None:
        """Start the stalled-reader clock if output is waiting."""
        if self.stall is None and not self.lost:
            unsent = self.transport.get_write_buffer_size()
            if unsent:
                now = self.loop.time()
                self.stall = (unsent, now)
                self._arm(now + REQUEST_DEADLINE_S)

    def _arm(self, when: float) -> None:
        # A pending timer is due no later than any deadline set since,
        # so one is armed only when none is pending.
        if self.timer is None:
            self.timer = self.loop.call_at(when, self._on_timer)

    def _on_timer(self) -> None:
        self.timer = None
        if self.lost:
            return
        now = self.loop.time()
        if not (self.task or self.write_paused or self.closing):
            if now < self.deadline:
                self._arm(self.deadline)
            else:
                self._close()  # the request deadline: no response
            return
        if self.stall is None:
            return  # computing, or closing with nothing left to send
        unsent = self.transport.get_write_buffer_size()
        before, since = self.stall
        if now < since + REQUEST_DEADLINE_S:
            self._arm(since + REQUEST_DEADLINE_S)
        elif unsent < before:
            self.stall = (unsent, now)
            self._arm(now + REQUEST_DEADLINE_S)
        else:
            self.transport.abort()  # a client that stopped reading


async def _listen(
    service: PredictionService, host: str, port: int
) -> Tuple[asyncio.AbstractServer, _Connections]:
    connections = _Connections()
    server = await asyncio.get_running_loop().create_server(
        lambda: _Connection(service, connections), host=host, port=port
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

    A connection waiting for a request is aborted; a computing one
    answers with ``Connection: close``; one still writing closes once
    flushed.  What is left after :data:`REQUEST_DEADLINE_S` is aborted
    and its compute cancelled.
    """
    connections.closing = True
    for connection in list(connections.live):
        connection.shutdown()
    if connections.live:
        connections.emptied = asyncio.get_running_loop().create_future()
        await asyncio.wait([connections.emptied], timeout=REQUEST_DEADLINE_S)
    overdue = []
    for connection in list(connections.live):
        connection.transport.abort()
        if connection.task is not None:
            connection.task.cancel()
            overdue.append(connection.task)
    if overdue:
        await asyncio.wait(overdue)


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
