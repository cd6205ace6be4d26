"""The one HTTP/SSE server (``repro live --serve`` and ``repro serve``).

A tiny, dependency-free :mod:`http.server` instance running on a daemon
thread, driven by a ``(method, path) -> callable`` route table.  A route
gets the :class:`Request` and returns ``(status, payload)``: a dict goes
out as JSON, a string as Prometheus text.  A path ending in ``/*``
matches any one trailing segment (:attr:`Request.tail`).  Every server
has ``GET /stream`` — Server-Sent Events, one ``data:`` line of snapshot
JSON per published snapshot (``repro top`` / ``repro watch`` attach
here); :class:`ObservabilityServer` without a table of its own serves a
live run:

* ``GET /metrics``  — the latest :func:`~repro.observability.live.
  live_prometheus_text` exposition (Prometheus scrape target);
* ``GET /healthz``  — JSON liveness: snapshot sequence number and the
  run clock, status 200 while serving.

:class:`repro.service.http.ServiceServer` registers the daemon's routes
on the same machinery.  The server only ever *reads* the
:class:`~repro.observability.live.MetricsPublisher`; the engine thread
publishes.  Binding to port 0 picks an ephemeral port (see
:attr:`ObservabilityServer.port`), which is what the tests use to scrape
a run mid-flight.
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, BinaryIO, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.observability.live import MetricsPublisher, live_prometheus_text

#: what a route returns: ``(status, JSON object | Prometheus text)``, or
#: None when it already wrote the response itself (the SSE stream).
Response = Optional[Tuple[int, Union[str, Dict[str, Any]]]]
Routes = Mapping[Tuple[str, str], Callable[["Request"], Response]]

#: largest accepted request body (a submission is a small JSON object).
_MAX_BODY_BYTES = 64 * 1024

#: how long one SSE poll waits for a fresh snapshot before re-checking
#: whether the server is shutting down.
_STREAM_POLL_S = 0.25


def write_sse_event(wfile: BinaryIO, snapshot: Any, seq: int,
                    event: Optional[str] = None) -> None:
    """Write one Server-Sent-Events frame (``id`` + JSON ``data``).

    ``event`` names the frame (``event: alert``); unnamed frames are the
    default ``message`` events every existing client already consumes.
    """
    payload = json.dumps(snapshot, sort_keys=True)
    name = f"event: {event}\n" if event else ""
    wfile.write(f"{name}id: {seq}\ndata: {payload}\n\n".encode("utf-8"))
    wfile.flush()


def stream_publisher(wfile: BinaryIO, publisher: MetricsPublisher,
                     stopping: threading.Event,
                     poll_s: float = _STREAM_POLL_S) -> None:
    """Stream a publisher's snapshots over SSE until it closes.

    Each client gets its own bounded drop-oldest subscription, so a slow
    or disconnected client only loses *its own* frames — the publisher
    and the other clients never block behind it.  Ends with an
    ``event: end`` frame (how clients distinguish a finished run from a
    dropped connection).
    """
    subscription = publisher.subscribe()
    try:
        while not stopping.is_set():
            snapshot, seq = subscription.pop(poll_s)
            if snapshot is not None:
                # Alert frames (publish_event) travel as named SSE
                # events so EventSource-style clients can listen
                # separately; snapshots stay default `message` events.
                kind = (snapshot.get("kind")
                        if isinstance(snapshot, dict) else None)
                write_sse_event(wfile, snapshot, seq,
                                event="alert" if kind == "alert" else None)
            elif subscription.finished:
                break
        wfile.write(b"event: end\ndata: {}\n\n")
        wfile.flush()
    finally:
        subscription.close()


class Request(BaseHTTPRequestHandler):
    """One HTTP request; ``self.server`` is the :class:`_Server` below."""

    server: "_Server"
    protocol_version = "HTTP/1.1"
    #: what the route's trailing ``/*`` matched on this request.
    tail = ""

    def log_message(self, format: str, *args: Any) -> None:
        pass  # stdout belongs to the experiment output / the operator

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # Headers and body must leave in ONE write: sent as two segments,
        # Nagle holds the body until the client's delayed ACK and every
        # keep-alive response stalls ~40 ms.  end_headers() writes the
        # header block to wfile, so catch it there and send both at once.
        head = io.BytesIO()
        wire, self.wfile = self.wfile, head
        try:
            self.end_headers()
        finally:
            self.wfile = wire
        wire.write(head.getvalue() + body)

    def read_json(self) -> Any:
        """The request body as JSON (``{}`` when empty).

        Raises :class:`ConfigurationError` (a route answers it with 400)
        on a bad ``Content-Length``, an oversized or a non-JSON body.
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= _MAX_BODY_BYTES:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            raise ConfigurationError(
                f"Content-Length must be 0..{_MAX_BODY_BYTES} bytes, "
                f"got {header!r}")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"bad JSON body: {exc}") from exc

    def _dispatch(self) -> None:
        routes = self.server.routes
        path = self.path.split("?", 1)[0]
        route = routes.get((self.command, path))
        if route is None:
            parent, _, self.tail = path.rpartition("/")
            route = routes.get((self.command, parent + "/*"))
        if route is None:
            known = ", ".join(f"{method} {known_path}"
                              for method, known_path in sorted(routes))
            self._send(404, "text/plain; charset=utf-8",
                       f"unknown endpoint; try {known}\n".encode("utf-8"))
            return
        response = route(self)
        if response is None:
            return
        status, payload = response
        if isinstance(payload, str):
            self._send(status, "text/plain; version=0.0.4; charset=utf-8",
                       payload.encode("utf-8"))
        else:
            self._send(status, "application/json",
                       (json.dumps(payload, sort_keys=True) + "\n").encode())

    do_GET = do_POST = _dispatch

    def stream(self) -> Response:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            stream_publisher(self.wfile, self.server.publisher,
                             self.server.stopping)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        finally:
            self.close_connection = True
        return None


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: ephemeral-port reuse between quick test restarts.
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 publisher: MetricsPublisher, routes: Routes):
        super().__init__(address, Request)
        self.publisher = publisher
        self.routes = {("GET", "/stream"): Request.stream, **routes}
        self.stopping = threading.Event()


class ObservabilityServer:
    """Owns the HTTP server thread; ``routes`` defaults to a live run's."""

    def __init__(self, publisher: MetricsPublisher,
                 host: str = "127.0.0.1", port: int = 0,
                 routes: Optional[Routes] = None):
        self.publisher = publisher
        if routes is None:
            routes = {("GET", "/metrics"): self._metrics,
                      ("GET", "/healthz"): self._healthz}
        if not 0 <= port <= 65535:
            raise ConfigurationError(
                f"port must be in 0..65535, got {port}")
        try:
            self._server = _Server((host, port), publisher, routes)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot bind {host}:{port}: {exc.strerror or exc}") from None
        self._thread: Optional[threading.Thread] = None

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

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with port 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObservabilityServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="observability-http",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and join the server thread (idempotent)."""
        if self._thread is None:
            return
        self._server.stopping.set()
        self.publisher.close()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
        self._thread = None

    def __repr__(self) -> str:
        state = "serving" if self._thread is not None else "stopped"
        return f"{type(self).__name__}({self.url}, {state})"
