"""The always-on multi-tenant query service (``repro serve``).

Promotes the wall-clock backend into a long-running daemon: one
persistent :class:`~repro.exec.aio.AsyncioKernel` plus one machine-level
:class:`~repro.core.runtime.World` (shared CPU/link/buffer, a governed
:class:`~repro.resources.broker.MemoryBroker`, an
:class:`~repro.resources.admission.AdmissionController`, shared
telemetry), serving an unbounded stream of query submissions over HTTP:

* :class:`QueryService` — kernel lifetime, submission lifecycle, tenant
  accounting, graceful drain (:mod:`repro.service.service`);
* :class:`ExecutionBackend` / :class:`InProcessBackend` — the execution
  plane behind the control plane (:mod:`repro.service.backend`);
* :class:`WorkerPoolBackend` / :class:`PoolScheduler` — the sharded
  work-stealing worker-process pool behind ``repro serve --workers N``
  (:mod:`repro.service.workers`);
* :class:`ServiceServer` — the HTTP surface: JSON submit, SSE progress,
  Prometheus metrics (:mod:`repro.service.http`);
* :class:`LatencyWindow` — sliding p50/p99 + throughput aggregation
  (:mod:`repro.service.stats`);
* :class:`SLOSpec` / :class:`SLOTracker` — per-tenant latency
  objectives with multi-window burn-rate alerting
  (:mod:`repro.service.slo`);
* :func:`load_outcomes` / :func:`summarize_outcomes` /
  :func:`slo_report` / :func:`diff_windows` — offline queries over the
  durable telemetry archive behind ``repro history``
  (:mod:`repro.service.history`).
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

#: a pool worker that imports :mod:`repro.service.workers` does not also
#: import the HTTP server, the SLO tracker and the archive queries it
#: never runs.
_EXPORTS = {
    "service": ("SERVICE_SNAPSHOT_VERSION", "QueryService", "ServiceDraining",
                "SubmissionRecord"),
    "request": ("SubmissionRequest",),
    "backend": ("ExecutionBackend", "InProcessBackend"),
    "workers": ("PoolScheduler", "WorkerDied", "WorkerPoolBackend"),
    "http": ("ServiceServer",),
    "stats": ("LatencyWindow", "service_prometheus_text"),
    "slo": ("SLOSpec", "SLOTracker", "parse_slo_specs"),
    "history": ("diff_windows", "load_alerts", "load_outcomes", "slo_report",
                "summarize_outcomes"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.service.backend import ExecutionBackend, InProcessBackend
    from repro.service.history import (
        diff_windows,
        load_alerts,
        load_outcomes,
        slo_report,
        summarize_outcomes,
    )
    from repro.service.http import ServiceServer
    from repro.service.request import SubmissionRequest
    from repro.service.service import (
        SERVICE_SNAPSHOT_VERSION,
        QueryService,
        ServiceDraining,
        SubmissionRecord,
    )
    from repro.service.slo import SLOSpec, SLOTracker, parse_slo_specs
    from repro.service.stats import LatencyWindow, service_prometheus_text
    from repro.service.workers import (
        PoolScheduler,
        WorkerDied,
        WorkerPoolBackend,
    )
