"""The one HTTP/SSE server (``repro live --serve`` and ``repro serve``).

HTTP/1.1 on :mod:`asyncio` streams, served on the loop that drives the
kernel — the service's loop for ``repro serve``, the run's
:class:`~repro.exec.aio.AsyncioKernel` loop for ``repro live --serve`` —
so a route runs between two kernel callbacks and reads or changes
kernel state directly.  A ``(method, path) -> callable`` route table
drives it.  A route gets the :class:`Request` and returns
``(status, payload)``: a dict goes out as JSON, a string as Prometheus
text.  A path ending in ``/*`` matches any one trailing segment
(:attr:`Request.tail`).  Every server has ``GET /stream`` — Server-Sent
Events, one ``data:`` line of snapshot JSON per published snapshot
(``repro top`` / ``repro watch`` attach here); :class:`ObservabilityServer`
without a table of its own serves a live run:

* ``GET /metrics``  — the latest :func:`~repro.observability.live.
  live_prometheus_text` exposition (Prometheus scrape target);
* ``GET /healthz``  — JSON liveness: snapshot sequence number and the
  run clock, status 200 while serving.

:class:`repro.service.http.ServiceServer` registers the daemon's routes
on the same machinery.  The socket is bound and listening from the
constructor on, so a port that cannot be had is a
:class:`~repro.common.errors.ConfigurationError` before anything starts.
Binding to port 0 picks an ephemeral port (see
:attr:`ObservabilityServer.port`), which is what the tests use to scrape
a run mid-flight.
"""

from __future__ import annotations

import asyncio
import json
import socket
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.observability.live import MetricsPublisher, live_prometheus_text

#: what a route returns: ``(status, JSON object | Prometheus text)``, or
#: an awaitable that writes the response itself and owns the connection
#: from then on (the SSE stream).
Response = Tuple[int, Union[str, Dict[str, Any]]]
Route = Callable[["Request"], Union[Response, Awaitable[None]]]
Routes = Mapping[Tuple[str, str], Route]

#: largest accepted request body (a submission is a small JSON object).
_MAX_BODY_BYTES = 64 * 1024
#: largest accepted request line plus header block; a longer head is
#: answered 400 and the connection closed, never buffered.
_MAX_HEAD_BYTES = 64 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}


def write_sse_event(out: Any, snapshot: Any, seq: int,
                    event: Optional[str] = None) -> None:
    """Write one Server-Sent-Events frame (``id`` + JSON ``data``) to
    ``out`` (a stream writer, or any object with ``write(bytes)``).

    ``event`` names the frame (``event: alert``); unnamed frames are the
    default ``message`` events every existing client already consumes.
    """
    payload = json.dumps(snapshot, sort_keys=True)
    name = f"event: {event}\n" if event else ""
    out.write(f"{name}id: {seq}\ndata: {payload}\n\n".encode("utf-8"))


async def stream_publisher(writer: Any, publisher: MetricsPublisher) -> None:
    """Stream a publisher's snapshots over SSE until it closes.

    Each client gets its own bounded drop-oldest subscription.  A client
    that stops reading parks only its own ``drain()``; meanwhile the
    publisher drops that subscription's oldest frames, and the loop, the
    publisher and the other clients never wait for it.  Ends with an
    ``event: end`` frame (how clients distinguish a finished run from a
    dropped connection).
    """
    subscription = publisher.subscribe()
    try:
        while (frame := await subscription.next()) is not None:
            snapshot, seq = frame
            # Alert frames (publish_event) travel as named SSE events so
            # EventSource-style clients can listen separately; snapshots
            # stay default `message` events.
            kind = snapshot.get("kind") if isinstance(snapshot, dict) else None
            write_sse_event(writer, snapshot, seq,
                            event="alert" if kind == "alert" else None)
            await writer.drain()
        writer.write(b"event: end\ndata: {}\n\n")
        await writer.drain()
    finally:
        subscription.close()


class Request:
    """One parsed HTTP request, as a route sees it."""

    __slots__ = ("tail", "body", "writer")

    def __init__(self, body: bytes, writer: Any) -> None:
        #: what the route's trailing ``/*`` matched on this request.
        self.tail = ""
        self.body = body
        #: the connection's stream writer (a streaming route writes here).
        self.writer = writer

    def read_json(self) -> Any:
        """The request body as JSON (``{}`` when empty).

        Raises :class:`ConfigurationError` (a route answers it with 400)
        on a body that is not JSON.  The server already refused a bad,
        negative or oversized ``Content-Length`` without reading a byte.
        """
        try:
            return json.loads(self.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"bad JSON body: {exc}") from exc


def _head(status: int, content_type: str, extra: str = "") -> bytes:
    return (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Date: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: {content_type}\r\n{extra}\r\n").encode("latin-1")


def _send(writer: Any, status: int, content_type: str, body: bytes,
          close: bool = False) -> None:
    """Write one complete response.

    Headers and body leave in ONE write: sent as two segments, Nagle
    would hold the body until the client's delayed ACK and every
    keep-alive response would stall ~40 ms.
    """
    extra = f"Content-Length: {len(body)}\r\n"
    if close:
        extra += "Connection: close\r\n"
    writer.write(_head(status, content_type, extra) + body)


def _error(writer: Any, message: str) -> bool:
    """Answer a request that cannot be read 400 and end the connection
    (whatever follows it cannot be framed)."""
    _send(writer, 400, "application/json",
          (json.dumps({"error": message}) + "\n").encode(), close=True)
    return False


class ObservabilityServer:
    """Serves a route table on the running loop; ``routes`` defaults to
    a live run's."""

    def __init__(self, publisher: MetricsPublisher,
                 host: str = "127.0.0.1", port: int = 0,
                 routes: Optional[Routes] = None):
        self.publisher = publisher
        if routes is None:
            routes = {("GET", "/metrics"): self._metrics,
                      ("GET", "/healthz"): self._healthz}
        self.routes: Dict[Tuple[str, str], Route] = {
            ("GET", "/stream"): self._stream, **routes}
        if not 0 <= port <= 65535:
            raise ConfigurationError(
                f"port must be in 0..65535, got {port}")
        self._socket = socket.socket()
        try:
            # Ephemeral-port reuse between quick test restarts.
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._socket.bind((host, port))
            self._socket.listen()
        except OSError as exc:
            self._socket.close()
            raise ConfigurationError(
                f"cannot bind {host}:{port}: {exc.strerror or exc}") from None
        self.host, self.port = self._socket.getsockname()[:2]
        self._server: Optional[asyncio.AbstractServer] = None
        #: open connections: each one's task and stream writer.
        self._connections: Dict["asyncio.Task[None]", Any] = {}

    def _metrics(self, request: Request) -> Response:
        snapshot, _seq = self.publisher.latest()
        return 200, live_prometheus_text(
            snapshot, stream_dropped=self.publisher.dropped_total)

    def _healthz(self, request: Request) -> Response:
        snapshot, seq = self.publisher.latest()
        return 200, {
            "status": "ok",
            "serving": not self.publisher.closed,
            "snapshots": seq,
            "now": snapshot["now"] if snapshot is not None else None,
        }

    async def _stream(self, request: Request) -> None:
        writer = request.writer
        writer.write(_head(200, "text/event-stream",
                           "Cache-Control: no-cache\r\n"))
        await stream_publisher(writer, self.publisher)

    async def _connection(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until either side ends it."""
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while await self._answer(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away
        finally:
            del self._connections[task]
            writer.close()

    async def _answer(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> bool:
        """Read one request and answer it; False ends the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return _error(writer, f"request head over {_MAX_HEAD_BYTES} bytes")
        lines = head.decode("latin-1").split("\r\n")[:-2]
        words = lines[0].split()
        if len(words) != 3 or not words[2].startswith("HTTP/1."):
            return _error(writer, f"bad request line {lines[0]!r}")
        method, target, version = words
        headers = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon:
                return _error(writer, f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= _MAX_BODY_BYTES:
            # Unread, the body would be parsed as the next request.
            return _error(writer, f"Content-Length must be "
                                  f"0..{_MAX_BODY_BYTES} bytes, "
                                  f"got {declared!r}")
        if length and headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        keep_alive = (connection == "keep-alive" if version == "HTTP/1.0"
                      else connection != "close")

        path = target.split("?", 1)[0]
        request = Request(body, writer)
        route = self.routes.get((method, path))
        if route is None:
            parent, _, request.tail = path.rpartition("/")
            route = self.routes.get((method, parent + "/*"))
        if route is None:
            known = ", ".join(f"{known_method} {known_path}"
                              for known_method, known_path
                              in sorted(self.routes))
            status, content_type = 404, "text/plain; charset=utf-8"
            payload = f"unknown endpoint; try {known}\n".encode("utf-8")
        else:
            response = route(request)
            if not isinstance(response, tuple):
                await response  # it wrote its own response, to the end
                return False
            status, result = response
            if isinstance(result, str):
                content_type = "text/plain; version=0.0.4; charset=utf-8"
                payload = result.encode("utf-8")
            else:
                content_type = "application/json"
                payload = (json.dumps(result, sort_keys=True)
                           + "\n").encode()
        _send(writer, status, content_type, payload, close=not keep_alive)
        await writer.drain()
        return keep_alive

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "ObservabilityServer":
        """Serve on the running loop (the socket listens already)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._connection, sock=self._socket, limit=_MAX_HEAD_BYTES)
        return self

    async def stop(self) -> None:
        """Stop serving and close every connection (idempotent).

        Streams end first: each writes what it has queued and its
        ``event: end`` frame.  What a client that stopped reading has
        not taken is dropped, not waited for.
        """
        self.publisher.close()
        server, self._server = self._server, None
        if server is None:
            self._socket.close()
            return
        server.close()
        # The close woke every idle stream: one loop step lets each
        # write its last frames (a drain only parks on a full buffer).
        await asyncio.sleep(0)
        for writer in self._connections.values():
            transport = writer.transport
            if transport.get_write_buffer_size():
                transport.abort()
            else:
                transport.close()
        if self._connections:
            await asyncio.wait(list(self._connections))
        await server.wait_closed()

    def __repr__(self) -> str:
        state = "serving" if self._server is not None else "stopped"
        return f"{type(self).__name__}({self.url}, {state})"
