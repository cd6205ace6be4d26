"""The service's HTTP surface (JSON in, SSE progress out).

The daemon's front door is a route table on the one HTTP/SSE server
(:mod:`repro.observability.server`, which also frames ``/stream``,
validates request bodies and sends every response in one segment):

* ``POST /submit``       — JSON submission body, answers ``202`` with the
  submission id; ``400`` malformed, ``429`` tenant over quota, ``503``
  once drain started;
* ``POST /drain``        — begin graceful drain, answers ``202``;
* ``GET /healthz``       — liveness + drain state;
* ``GET /metrics``       — Prometheus exposition of the latest service
  snapshot (:func:`~repro.service.stats.service_prometheus_text`);
* ``GET /stream``        — Server-Sent Events, one service snapshot per
  publish tick, through the same bounded drop-oldest subscriptions as
  the live run's stream (``repro top --connect`` and ``repro watch``
  attach here);
* ``GET /submissions``   — the latest snapshot's active + recent lists;
* ``GET /submissions/I`` — one submission's record.

The server runs on the service's own loop, so a route calls the
:class:`QueryService` directly, between two kernel callbacks: no route
ever sees a half-made change.
"""

from __future__ import annotations

import time

from repro.common.errors import ConfigurationError
from repro.observability.server import ObservabilityServer, Request, Response
from repro.resources import QuotaExceeded
from repro.service.backend import peak_rss_bytes
from repro.service.request import SubmissionRequest
from repro.service.service import QueryService, ServiceDraining
from repro.service.stats import service_prometheus_text


class ServiceServer(ObservabilityServer):
    """The HTTP server fronting one :class:`QueryService`."""

    def __init__(self, service: QueryService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        super().__init__(service.publisher, host, port, routes={
            ("POST", "/submit"): self._submit,
            ("POST", "/drain"): self._drain,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/slo"): self._slo,
            ("GET", "/submissions"): self._submissions,
            ("GET", "/submissions/*"): self._submission,
        })

    def _metrics(self, request: Request) -> Response:
        snapshot, _seq = self.publisher.latest()
        return 200, service_prometheus_text(snapshot)

    def _healthz(self, request: Request) -> Response:
        service = self.service
        snapshot, seq = self.publisher.latest()
        # archive.health() stats the segment files: a few stat calls,
        # once a probe, never per query.
        archive = (service.archive.health()
                   if service.archive is not None else None)
        return 200, {
            "status": "draining" if service.draining else "ok",
            "serving": not service.draining,
            "draining": service.draining,
            "state": "draining" if service.draining else "serving",
            "uptime_s": (time.time() - service.started_wall
                         if service.started_wall is not None else 0.0),
            "snapshots": seq,
            "now": snapshot["now"] if snapshot is not None else None,
            "active": snapshot["active"] if snapshot is not None else 0,
            "alerts": service.alerts_total,
            "archive": archive,
            "backend": service.backend.name,
            # Per-worker liveness/backlog straight off the backend (not
            # the snapshot: a dead worker must show up within the
            # health probe's latency, not the publish interval's).
            "workers": service.backend.describe(),
            "peak_rss_bytes": peak_rss_bytes(),
        }

    def _slo(self, request: Request) -> Response:
        """Current status of every declared objective (may be empty)."""
        service = self.service
        tracker = service.slo
        if tracker is None:
            return 200, {"objectives": [], "alerts": 0}
        objectives = tracker.status(service.kernel.wall_now)
        return 200, {"objectives": objectives,
                     "alerts": service.alerts_total}

    def _submissions(self, request: Request) -> Response:
        snapshot, _seq = self.publisher.latest()
        if snapshot is None:
            return 200, {"queries": [], "recent": []}
        return 200, {"queries": snapshot["queries"],
                     "recent": snapshot["recent"]}

    def _submission(self, request: Request) -> Response:
        service = self.service
        record = service.record_for(request.tail)
        if record is None:
            return 404, {"error": f"no submission {request.tail!r}"
                                  " (finished ones age out)"}
        return 200, record.to_dict(service.kernel.wall_now)

    def _submit(self, request: Request) -> Response:
        try:
            submission = SubmissionRequest.from_json(request.read_json())
            record = self.service.submit(submission)
        except ConfigurationError as exc:
            return 400, {"error": str(exc)}
        except QuotaExceeded as exc:
            return 429, {"error": str(exc), "tenant": exc.tenant}
        except ServiceDraining as exc:
            return 503, {"error": str(exc)}
        return 202, {"id": record.id,
                     "tenant": record.request.tenant,
                     "state": record.state,
                     "submitted_at": record.submitted_at}

    def _drain(self, request: Request) -> Response:
        self.service.drain()
        return 202, {"status": "draining"}
