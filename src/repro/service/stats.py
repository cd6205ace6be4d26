"""Bounded aggregation over the service's unbounded submission stream.

A one-shot run can afford to keep everything it measured; a daemon
cannot.  :class:`LatencyWindow` keeps the newest N completion latencies
(and their completion times) in a ring, answering p50/p95/p99, mean and
a recent-horizon throughput in O(window) — constant memory no matter how
many million submissions have flowed through.

:func:`service_prometheus_text` renders one service snapshot (see
:meth:`repro.service.service.QueryService.snapshot`) in the Prometheus
text exposition format — the service counterpart of
:func:`repro.observability.live.live_prometheus_text`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.observability.export import PrometheusText, prom_float, prom_labels

#: default completion-latency ring size.
DEFAULT_WINDOW = 4096

#: seconds of history the throughput figure looks back over.
THROUGHPUT_HORIZON_S = 30.0


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 if empty).

    The fraction is validated *before* the empty-list shortcut: a bad
    fraction is a caller bug and must raise even when the window happens
    to be empty, while an empty window with a valid fraction is the
    normal quiet-service case and yields 0.0.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction out of range: {fraction}")
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class LatencyWindow:
    """Sliding window of completion latencies with percentile summary."""

    def __init__(self, capacity: int = DEFAULT_WINDOW) -> None:
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: (completed_at, latency_s), newest last.
        self._window: Deque[Tuple[float, float]] = deque(maxlen=capacity)
        self.observed = 0
        self.total_latency_s = 0.0

    def observe(self, latency_s: float, at: float) -> None:
        """Record one completion (``at`` on the service clock)."""
        self._window.append((at, latency_s))
        self.observed += 1
        self.total_latency_s += latency_s

    def __len__(self) -> int:
        return len(self._window)

    def throughput(self, now: float,
                   horizon_s: float = THROUGHPUT_HORIZON_S) -> float:
        """Completions per second over the trailing ``horizon_s``.

        When the window holds less history than the horizon, the rate is
        computed over what it holds, so a fresh service reports its true
        (short-run) rate instead of an artificially diluted one.
        """
        if not self._window:
            return 0.0
        cutoff = now - horizon_s
        recent = sum(1 for at, _lat in self._window if at >= cutoff)
        if recent == 0:
            return 0.0
        oldest = max(self._window[0][0], cutoff)
        elapsed = max(now - oldest, 1e-9)
        return recent / elapsed

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON-safe window summary (percentiles over the current ring)."""
        latencies = sorted(lat for _at, lat in self._window)
        summary: Dict[str, Any] = {
            "count": len(latencies),
            "observed": self.observed,
            "p50_s": percentile(latencies, 0.50),
            "p95_s": percentile(latencies, 0.95),
            "p99_s": percentile(latencies, 0.99),
            "max_s": latencies[-1] if latencies else 0.0,
            "mean_s": (sum(latencies) / len(latencies)
                       if latencies else 0.0),
        }
        if now is not None:
            summary["throughput_qps"] = self.throughput(now)
        return summary


def service_prometheus_text(snapshot: Optional[Dict[str, Any]]) -> str:
    """Render one service snapshot as Prometheus exposition text."""
    text = PrometheusText(number=prom_float)
    emit = text.emit
    emit("repro_service_up", "gauge",
         "1 while the service is publishing snapshots.",
         [("", 1.0 if snapshot is not None else 0.0)])
    if snapshot is None:
        return text.render()

    emit("repro_service_uptime_seconds", "gauge",
         "Seconds since the service kernel started.",
         [("", snapshot["now"])])
    emit("repro_service_draining", "gauge",
         "1 once drain started (new submissions are refused).",
         [("", 1.0 if snapshot["draining"] else 0.0)])
    for field, help_text in (
            ("submitted", "Submissions accepted since start."),
            ("completed", "Submissions finished successfully."),
            ("failed", "Submissions that ended in an error."),
            ("rejected", "Submissions refused (quota or draining)."),
            ("batches", "DQP batches processed across all submissions."),
            ("decisions", "Scheduler decisions recorded since start."),
            ("stream_dropped", "SSE frames dropped for slow clients.")):
        emit(f"repro_service_{field}_total", "counter", help_text,
             [("", snapshot[field])])
    emit("repro_service_active", "gauge",
         "Submissions currently queued or running.",
         [("", snapshot["active"])])
    emit("repro_service_admission_queue_depth", "gauge",
         "Submissions waiting in the admission queue.",
         [("", snapshot["admission_queued"])])

    latency = snapshot["latency"]
    emit("repro_service_latency_seconds", "gauge",
         "Completion latency over the sliding window, by quantile.",
         [(prom_labels(quantile=q), latency[key])
          for q, key in (("0.5", "p50_s"), ("0.95", "p95_s"),
                         ("0.99", "p99_s"))])
    emit("repro_service_throughput_qps", "gauge",
         "Completions per second over the recent horizon.",
         [("", latency.get("throughput_qps", 0.0))])

    pool = snapshot["pool"]
    emit("repro_service_pool_bytes", "gauge",
         "Global memory pool size (0 when unbounded).",
         [("", pool["total"])])
    emit("repro_service_leased_bytes", "gauge",
         "Bytes currently leased to running submissions.",
         [("", pool["leased"])])
    emit("repro_service_active_leases", "gauge",
         "Live memory leases.", [("", pool["active_leases"])])

    emit("repro_service_stall_seconds_total", "counter",
         "Machine idle time by attributed cause.",
         [(prom_labels(cause=cause), seconds)
          for cause, seconds in sorted(snapshot["stalls"].items())])

    workers = snapshot.get("workers")
    if workers:
        emit("repro_service_worker_up", "gauge",
             "1 while the worker process is alive and ready.",
             [(prom_labels(worker=row["id"]),
               1.0 if row["state"] == "up" else 0.0) for row in workers])
        emit("repro_service_worker_active", "gauge",
             "Submissions in flight on each worker.",
             [(prom_labels(worker=row["id"]), row["active"])
              for row in workers])
        emit("repro_service_worker_queued", "gauge",
             "Submissions queued coordinator-side for each worker.",
             [(prom_labels(worker=row["id"]), row["queued"])
              for row in workers])
        emit("repro_service_worker_completed_total", "counter",
             "Submissions each worker finished successfully.",
             [(prom_labels(worker=row["id"]), row["completed"])
              for row in workers])
        emit("repro_service_worker_steals_total", "counter",
             "Jobs each worker stole from a backlogged peer.",
             [(prom_labels(worker=row["id"]), row["steals"])
              for row in workers])
        emit("repro_service_worker_restarts_total", "counter",
             "Times each worker slot was respawned after a death.",
             [(prom_labels(worker=row["id"]), row["restarts"])
              for row in workers])

    slo = snapshot.get("slo")
    if slo:
        emit("repro_service_slo_compliance", "gauge",
             "Fraction of events meeting each objective since start.",
             [(prom_labels(objective=o["objective"]), o["compliance"])
              for o in slo])
        emit("repro_service_slo_alerting", "gauge",
             "1 while any burn-rate window of the objective is firing.",
             [(prom_labels(objective=o["objective"]),
               1.0 if o["alerting"] else 0.0) for o in slo])
        emit("repro_service_slo_burn_rate", "gauge",
             "Error-budget burn rate per objective and window.",
             [(prom_labels(objective=o["objective"], window=label),
               window["burn_rate"])
              for o in slo for label, window in sorted(o["windows"].items())])
    archive = snapshot.get("archive")
    if archive is not None:
        emit("repro_service_archive_records_total", "counter",
             "Telemetry records written to the archive.",
             [("", archive["records_written"])])
        emit("repro_service_archive_dropped_total", "counter",
             "Records shed because the archive queue was full.",
             [("", archive["dropped_total"])])
        emit("repro_service_archive_queue_depth", "gauge",
             "Records waiting for the archive writer thread.",
             [("", archive["queued"])])
        emit("repro_service_archive_segments_sealed_total", "counter",
             "Segments rotated and gzip-sealed so far.",
             [("", archive["segments_sealed"])])

    tenants = snapshot["tenants"]
    for field, kind, help_text in (
            ("in_flight", "gauge", "Per-tenant submissions in flight."),
            ("completed", "counter", "Per-tenant completed submissions."),
            ("failed", "counter", "Per-tenant failed submissions."),
            ("rejected", "counter", "Per-tenant refused submissions."),
            ("mean_wait_s", "gauge",
             "Per-tenant mean admission wait (seconds).")):
        suffix = "_total" if kind == "counter" else ""
        emit(f"repro_service_tenant_{field}{suffix}", kind, help_text,
             [(prom_labels(tenant=t["name"]), t[field])
              for t in tenants])
    return text.render()
