"""The always-on query service: one kernel, an unbounded query stream.

:class:`QueryService` is the multi-query engine promoted to a daemon.
Where :class:`repro.core.multiquery.MultiQueryEngine` runs a *batch* of
submissions to completion on a fresh simulator, the service keeps one
kernel (an :class:`~repro.exec.aio.AsyncioKernel` unless it is given
one) and one machine-level
:class:`~repro.core.runtime.World` alive indefinitely and attaches a
stream of :class:`~repro.core.engine.QueryRun` instances to them — many in
flight at once, each on its own query-view world, all sharing the
machine's CPU/link/buffer, its governed
:class:`~repro.resources.broker.MemoryBroker`, its
:class:`~repro.resources.admission.AdmissionController` and one
telemetry plane.

The submission lifecycle::

    submit()  -- tenant quota gate (429), drain gate (503)
      -> launcher process: admission ticket (may queue)
      -> lease granted: query-view World + QueryRun on the shared kernel
      -> completion callback: latency window, tenant accounting,
         bounded history, drain bookkeeping

Aggregation stays bounded no matter how many submissions flow through:
the machine audit log is a ring (:class:`DecisionAuditLog` with a
capacity), latencies live in a :class:`~repro.service.stats.
LatencyWindow`, and finished submissions are pruned to a recent-history
ring.  The service's metrics are its :meth:`QueryService.snapshot`; the
machine keeps no metrics registry.

Graceful drain (SIGTERM): :meth:`drain` stops admitting (new submissions
get :class:`ServiceDraining`, HTTP 503), in-flight submissions run to
completion, then the kernel's shutdown event fires and :meth:`stop`
flushes the flight recorder and span log to disk.

The kernel is a constructor argument, and the kernel-side lifecycle is
synchronous: :meth:`open` and :meth:`close` bracket a service's life on
any kernel, so on a ``Simulator`` one drives it as ``open()``,
``submit()``..., ``kernel.run()``, ``drain()``, ``close()``.
:meth:`start` / :meth:`stop` are the asyncio adapter around them: the
backend, the ``AsyncioKernel.run`` task and the publish timer.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.core.engine import QueryRun, spawn_main
from repro.exec.aio import AsyncioKernel
from repro.exec.api import Kernel
from repro.exec.core import Process
from repro.observability import MetricsPublisher
from repro.observability.archive import (
    RECORD_ALERT,
    RECORD_DECISION,
    RECORD_OUTCOME,
    RECORD_SNAPSHOT,
    RECORD_SPAN,
    TelemetryArchive,
)
from repro.observability.audit import DecisionRecord
from repro.observability.explain import span_summary
from repro.observability.flight import FlightRecorder
from repro.resources import TenantAccount, TenantRegistry, TenantSpec
from repro.service.backend import (
    ExecutionBackend,
    ExecutionPlane,
    InProcessBackend,
    peak_rss_bytes,
)
from repro.service.request import SubmissionRequest
from repro.service.slo import SLOSpec, SLOTracker
from repro.service.stats import LatencyWindow

#: service snapshot layout version (part of the SSE/JSON payload).
#: 2: execution-plane fields joined (``backend``, ``workers``,
#:    ``steals``); ``admission_queued`` includes backend queues and
#:    ``stalls`` folds remote-worker stall seconds in.
#: 3: ``peak_rss_bytes`` joined: the coordinator's own peak resident
#:    set at the top, each worker's own on its ``workers`` row.
SERVICE_SNAPSHOT_VERSION = 3

#: seconds between full-snapshot records written to the archive (the
#: per-second publish tick would bloat the log ~10x for no added
#: insight; outcomes carry the per-submission record anyway).
SNAPSHOT_ARCHIVE_INTERVAL_S = 10.0

#: finished submissions kept queryable over HTTP.
DEFAULT_HISTORY = 256

#: seconds between service snapshot publishes.
DEFAULT_PUBLISH_INTERVAL_S = 1.0

#: submission states, in lifecycle order.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"


class ServiceDraining(Exception):
    """The service is draining and refuses new submissions (HTTP 503)."""


@dataclass
class SubmissionRecord:
    """One submission's lifecycle inside the service."""

    id: str
    request: SubmissionRequest
    state: str = STATE_QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    admission_wait: float = 0.0
    error: Optional[str] = None
    #: JSON-safe result summary, set on success.
    outcome: Optional[Dict[str, Any]] = None
    #: set once the submission reached a terminal state (loop thread).
    done: asyncio.Event = field(default_factory=asyncio.Event)
    #: executing worker in a sharded pool (None in-process / undispatched).
    worker_id: Optional[int] = None
    # internal bookkeeping, not serialized:
    account: Optional[TenantAccount] = None
    declared_max_bytes: int = 0
    #: the live in-process run, while it is in flight: the only
    #: reference the service keeps, dropped when the submission finishes
    #: so remembered records do not pin whole engine object graphs.
    run: Optional[QueryRun] = None
    #: submission sequence number (seeds the source streams; fixed at
    #: submit time so results do not depend on dispatch order).
    sequence: int = 0
    #: off the execution plane's outcome, beside :attr:`outcome`: the
    #: lease's high-water mark and (spans on) the summary of the
    #: submission's own span subtree.
    memory_peak_bytes: Optional[int] = None
    span_summary: Optional[Dict[str, Any]] = None

    @property
    def finished(self) -> bool:
        return self.state in (STATE_DONE, STATE_FAILED)

    def latency(self, now: float) -> float:
        """Submit-to-now (or submit-to-finish) seconds, queue included."""
        end = self.finished_at if self.finished_at is not None else now
        return end - self.submitted_at

    def to_dict(self, now: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.request.tenant,
            "strategy": self.request.strategy,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "admission_wait": self.admission_wait,
            "latency_s": self.latency(now),
            "worker": self.worker_id,
            "error": self.error,
            "outcome": self.outcome,
        }


class QueryService:
    """The long-running multi-tenant engine behind ``repro serve``.

    Single-threaded: every call happens on the thread that drives the
    kernel — for an ``AsyncioKernel``, its loop, which also serves the
    HTTP routes (:class:`~repro.service.http.ServiceServer`).
    Construction is cheap and loop-free; :meth:`start` must run inside
    the loop.
    """

    def __init__(self, params: Optional[SimulationParameters] = None,
                 seed: int = 0,
                 global_memory_bytes: Optional[int] = None,
                 admission: str = "priority",
                 tenants: Optional[List[TenantSpec]] = None,
                 strict_tenants: bool = False,
                 history: int = DEFAULT_HISTORY,
                 publish_interval_s: float = DEFAULT_PUBLISH_INTERVAL_S,
                 flight_dump: Optional[Union[str, Path]] = None,
                 span_dump: Optional[Union[str, Path]] = None,
                 archive_dir: Optional[Union[str, Path]] = None,
                 slos: Optional[Sequence[SLOSpec]] = None,
                 workers: int = 1,
                 kernel: Optional[Kernel] = None) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}")
        if not 0.0 < publish_interval_s < math.inf:
            # NaN would never wake the publish loop, <= 0 busy-loops it.
            raise ConfigurationError(
                f"publish interval must be positive and finite, got "
                f"{publish_interval_s}")
        self.params = params if params is not None else SimulationParameters()
        self.seed = seed
        self.global_memory_bytes = global_memory_bytes
        self.admission = admission
        self.publish_interval_s = publish_interval_s
        self.flight_dump = (Path(flight_dump)
                            if flight_dump is not None else None)
        self.span_dump = Path(span_dump) if span_dump is not None else None

        #: the coordinator's own execution plane: the machine every
        #: control-plane view reads, and where submissions run unless a
        #: worker pool carries them.
        self.plane = ExecutionPlane(self.params, seed, global_memory_bytes,
                                    admission, name="service",
                                    kernel=kernel or AsyncioKernel())
        self.kernel = self.plane.kernel
        self.machine = self.plane.machine
        self.controller = self.plane.controller
        self.governed = self.controller is not None
        # The audit ring exposes ONE on_record callable; the flight
        # recorder and the archive both want it, so they register as
        # observers behind a single dispatcher.
        self._audit_observers: List[Callable[[DecisionRecord], None]] = []
        self.recorder: Optional[FlightRecorder] = None
        if self.flight_dump is not None:
            self.recorder = FlightRecorder().attach(self.machine.telemetry)
            self._audit_observers.append(self.recorder.record_decision)
        if self.span_dump is not None \
                and self.machine.telemetry.spans is None:
            from repro.observability.spans import SpanRecorder
            self.machine.telemetry.spans = SpanRecorder(self.kernel)

        #: opened by :meth:`open`: nothing is created on disk (nor its
        #: writer thread started) for a service that never serves.
        self.archive: Optional[TelemetryArchive] = None
        self._archive_dir = archive_dir
        if archive_dir is not None:
            self._audit_observers.append(self._archive_decision)
        self._last_snapshot_archived = float("-inf")
        self.slo: Optional[SLOTracker] = None
        if slos:
            self.slo = SLOTracker(slos)
        #: SLO alert transitions seen (firing + resolved).
        self.alerts_total = 0
        if self._audit_observers:
            self.machine.telemetry.audit.on_record = self._dispatch_audit

        # The execution plane: in-process on this kernel (default), or
        # a sharded worker-process pool (``workers > 1``).
        self.workers = workers
        if workers > 1:
            from repro.service.workers import WorkerPoolBackend
            self.backend: ExecutionBackend = WorkerPoolBackend(workers)
        else:
            self.backend = InProcessBackend()

        self.tenants = TenantRegistry(tenants, strict=strict_tenants)
        self.latency = LatencyWindow()
        self.publisher = MetricsPublisher()

        #: all known submissions by id (running + bounded recent history).
        self.records: Dict[str, SubmissionRecord] = {}
        self._recent: List[str] = []
        self._history = max(1, history)
        self._sequence = 0
        self._batches_done = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        #: refused submissions: tenant quota + drain-time refusals.
        self.rejected = 0
        self.draining = False
        self._started = False
        self._stopped = False
        #: epoch time :meth:`open` ran (``/healthz`` uptime base).
        self.started_wall: Optional[float] = None
        #: fires once the service is drained and idle: ends ``kernel.run``.
        self._shutdown = self.kernel.event(name="service-shutdown")
        self._run_task: Optional["asyncio.Task[None]"] = None
        self._publish_task: Optional["asyncio.Task[None]"] = None

    # -- lifecycle -----------------------------------------------------------
    def _dispatch_audit(self, record: DecisionRecord) -> None:
        for observer in self._audit_observers:
            observer(record)

    def _archive_decision(self, record: DecisionRecord) -> None:
        assert self.archive is not None
        self.archive.append({
            "kind": RECORD_DECISION, "t": time.time(), "at": record.time,
            "name": record.kind, "subject": record.subject,
        })

    def open(self) -> None:
        """Accept work from here on (any kernel; :meth:`start` calls it)."""
        if self._started:
            raise SimulationError("QueryService started twice")
        self._started = True
        self.started_wall = time.time()
        if self._archive_dir is not None:
            self.archive = TelemetryArchive(self._archive_dir)
        self.publisher.publish(self.snapshot())

    async def start(self) -> None:
        """Bring the backend and the kernel up on the running loop, then
        :meth:`open`; returns once the service accepts work."""
        if self._started:
            raise SimulationError("QueryService started twice")
        # Execution plane first: workers must be up (leases carved,
        # ready handshakes in) before anything can be submitted.
        await self.backend.start(self)
        self._run_task = asyncio.ensure_future(self.kernel.run(
            until_event=self._shutdown))  # type: ignore[call-arg]
        self._publish_task = asyncio.ensure_future(self._publish_loop())
        self.open()

    async def _publish_loop(self) -> None:
        try:
            while not self._stopped:
                await asyncio.sleep(self.publish_interval_s)
                self._evaluate_slo()
                self.publisher.publish(self.snapshot())
                self._archive_snapshot()
        except asyncio.CancelledError:
            pass

    def _evaluate_slo(self) -> None:
        """One burn-rate evaluation tick: archive + broadcast transitions."""
        if self.slo is None:
            return
        now = self.kernel.wall_now
        for transition in self.slo.evaluate(now):
            self.alerts_total += 1
            event = dict(transition)
            event["kind"] = RECORD_ALERT
            event["at"] = now
            if self.archive is not None:
                self.archive.append(dict(event, t=time.time()))
            # publish_event reaches /stream subscribers as an `alert`
            # SSE event without replacing the latest snapshot frame.
            self.publisher.publish_event(
                dict(event, version=SERVICE_SNAPSHOT_VERSION))

    def _archive_snapshot(self, force: bool = False) -> None:
        """Write a (throttled, slimmed) snapshot record to the archive."""
        if self.archive is None:
            return
        now = self.kernel.wall_now
        if not force and (now - self._last_snapshot_archived
                          < SNAPSHOT_ARCHIVE_INTERVAL_S):
            return
        self._last_snapshot_archived = now
        snap = self.snapshot()
        # Per-submission detail lives in outcome records; the snapshot
        # record keeps the aggregates only.
        snap.pop("queries", None)
        snap.pop("recent", None)
        snap["kind"] = RECORD_SNAPSHOT
        snap["t"] = time.time()
        self.archive.append(snap)

    def drain(self) -> None:
        """Stop admitting; the kernel shuts down once in-flight work ends."""
        if self.draining:
            return
        self.draining = True
        # Before start() too: the event is the kernel's from construction
        # on, so a run started later still finds it triggered.
        if self.active == 0 and not self._shutdown.triggered:
            self._shutdown.succeed()

    async def wait_drained(self) -> None:
        """Block until the kernel shut down (a drain ran to completion)."""
        if self._run_task is not None:
            await self._run_task

    async def stop(self) -> None:
        """Drain, wait for in-flight work, stop the backend and the
        publish timer, then :meth:`close`."""
        self.drain()
        if self._run_task is not None:
            await self._run_task
        # In-flight work has drained; tear the execution plane down.
        await self.backend.stop(self)
        if self._publish_task is not None:
            self._publish_task.cancel()
            try:
                await self._publish_task
            except asyncio.CancelledError:
                pass
        self.close()

    def close(self) -> None:
        """Flush a drained service (any kernel; :meth:`stop` calls it):
        the final SLO tick and frame, the archive, flight and span logs."""
        self._stopped = True
        self._evaluate_slo()
        # Final frame first, so /stream clients see the drained state
        # before the `event: end` marker.
        self.publisher.publish(self.snapshot())
        self.publisher.close()
        if self.archive is not None:
            self._archive_snapshot(force=True)
            self.archive.close()
        if self.recorder is not None and self.flight_dump is not None:
            self.recorder.latest_snapshot = self.snapshot()
            self.recorder.dump(self.flight_dump, reason="drain")
        if self.span_dump is not None \
                and self.machine.telemetry.spans is not None:
            self.machine.telemetry.spans.write_json(self.span_dump)

    # -- submission ----------------------------------------------------------
    @property
    def active(self) -> int:
        """Submissions currently queued or running."""
        return self.submitted - self.completed - self.failed

    def submit(self, request: SubmissionRequest) -> SubmissionRecord:
        """Accept one submission (loop thread only).

        Raises :class:`ServiceDraining` once drain started and
        :class:`~repro.resources.tenants.QuotaExceeded` when the tenant
        is over quota — the HTTP layer maps these to 503 / 429.
        """
        if not self._started or self._stopped:
            raise SimulationError("service is not running")
        if self.draining:
            self.rejected += 1
            raise ServiceDraining("service is draining; try another mediator")
        workload = self.plane.workload(request.scale)
        unknown = set(request.slow) - set(workload.relation_names)
        if unknown:
            raise ConfigurationError(
                f"unknown relation(s) in slow map: {sorted(unknown)}")
        initial, min_bytes, max_bytes = request.resolved_budgets(self.params)
        limit = self.backend.admission_limit_bytes(self)
        if self.governed and limit is not None and min_bytes > limit:
            self.rejected += 1
            if limit == self.global_memory_bytes:
                raise ConfigurationError(
                    f"minimum working set {min_bytes} exceeds the global "
                    f"memory pool {limit}; it could never be admitted")
            raise ConfigurationError(
                f"minimum working set {min_bytes} exceeds the per-worker "
                f"memory carve-out {limit}; it could never be admitted "
                f"on any worker")
        try:
            account = self.tenants.begin(request.tenant, max_bytes)
        except Exception:
            self.rejected += 1
            raise
        self._sequence += 1
        record = SubmissionRecord(
            id=f"s-{self._sequence:06d}", request=request,
            # wall_now, not now: submit runs on the loop *between* kernel
            # dispatches, where the dispatch clock still shows the last
            # event — any idle gap would be billed to this submission.
            submitted_at=self.kernel.wall_now, account=account,
            declared_max_bytes=max_bytes, sequence=self._sequence)
        self.records[record.id] = record
        self.submitted += 1
        process = spawn_main(
            self.kernel,
            self.backend.launch(self, record, initial, min_bytes,
                                max_bytes),
            f"query:{record.id}")
        process.add_callback(
            lambda _event: self._finish(record, process))
        return record

    def _finish(self, record: SubmissionRecord, process: Process) -> None:
        """Completion callback (kernel thread): close out one submission."""
        # wall_now on both ends (see submit): the dispatch clock lags a
        # busy loop, and a latency measured across two clocks goes
        # negative under load.
        now = self.kernel.wall_now
        record.finished_at = now
        run, record.run = record.run, None
        ok = process.failure is None
        if ok:
            record.state = STATE_DONE
            # The plane's outcome dict, whichever transport carried it.
            outcome = dict(process.value)
            record.memory_peak_bytes = outcome.pop("memory_peak_bytes")
            spans = outcome.pop("query_spans")
            if spans is not None:
                record.span_summary = span_summary(spans)
            self._batches_done += outcome["batches_processed"]
            self.completed += 1
            record.outcome = outcome
        else:
            record.state = STATE_FAILED
            record.error = repr(process.failure)
            self.failed += 1
            if run is not None:
                # Failed on this kernel: the live batch count snapshot()
                # was reporting must not drop out of the total.
                self._batches_done += run.batches_processed
                record.memory_peak_bytes = run.world.memory.peak_bytes
        latency = record.latency(now)
        self.latency.observe(latency, now)
        if self.slo is not None:
            self.slo.observe(record.request.tenant, latency, now)
        if self.archive is not None:
            self.archive.append(self._outcome_record(record, ok, latency))
            self._archive_span_summary(record)
        if record.account is not None:
            self.tenants.finish(record.account, record.declared_max_bytes,
                                ok=ok, waited_s=record.admission_wait,
                                latency_s=latency)
        self._remember(record)
        record.done.set()
        if self.draining and self.active == 0 \
                and not self._shutdown.triggered:
            self._shutdown.succeed()

    def _outcome_record(self, record: SubmissionRecord, ok: bool,
                        latency: float) -> Dict[str, Any]:
        """The per-submission archive record (kind ``outcome``)."""
        out: Dict[str, Any] = {
            "kind": RECORD_OUTCOME,
            # Epoch time, not the service clock: history spans restarts.
            "t": time.time(),
            "at": record.finished_at,
            "id": record.id,
            "tenant": record.request.tenant,
            "strategy": record.request.strategy,
            "priority": self.tenants.priority_for(
                record.request.tenant, record.request.priority),
            "ok": ok,
            "latency_s": latency,
            "wait_s": record.admission_wait,
            "memory_peak_bytes": record.memory_peak_bytes,
            "worker": record.worker_id,
        }
        if record.error is not None:
            out["error"] = record.error
        if record.outcome is not None:
            out["response_time"] = record.outcome["response_time"]
            out["result_tuples"] = record.outcome["result_tuples"]
            out["stall_time"] = record.outcome["stall_time"]
        return out

    def _archive_span_summary(self, record: SubmissionRecord) -> None:
        """Archive the submission's span summary as one record."""
        if record.span_summary is None:
            return
        entry = {"kind": RECORD_SPAN, "t": time.time(),
                 "at": record.finished_at, "id": record.id,
                 "tenant": record.request.tenant,
                 "summary": record.span_summary}
        if record.worker_id is not None:
            entry["worker"] = record.worker_id
        assert self.archive is not None
        self.archive.append(entry)

    def _remember(self, record: SubmissionRecord) -> None:
        """Keep the newest N finished submissions queryable, prune the rest."""
        self._recent.append(record.id)
        while len(self._recent) > self._history:
            evicted = self._recent.pop(0)
            self.records.pop(evicted, None)

    # -- views ---------------------------------------------------------------
    def record_for(self, submission_id: str) -> Optional[SubmissionRecord]:
        return self.records.get(submission_id)

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-safe view of the whole service (``kind: service``)."""
        now = self.kernel.wall_now
        broker = self.machine.broker
        stalls = self.machine.telemetry.stalls.by_cause()
        for cause, seconds in self.backend.stall_totals().items():
            stalls[cause] = stalls.get(cause, 0.0) + seconds
        stalls = dict(sorted(stalls.items()))
        active_records = sorted(
            (record for record in self.records.values()
             if not record.finished), key=lambda r: r.id)
        batches = self._batches_done + sum(
            record.run.batches_processed for record in active_records
            if record.run is not None)
        recent = [self.records[rid] for rid in reversed(self._recent)
                  if rid in self.records]
        return {
            "version": SERVICE_SNAPSHOT_VERSION,
            "kind": "service",
            "now": now,
            "draining": self.draining,
            "submitted": self.submitted,
            "active": self.active,
            "admission_queued": ((self.controller.queue_depth
                                  if self.controller is not None else 0)
                                 + self.backend.queued_jobs()),
            "backend": self.backend.name,
            "workers": self.backend.describe(),
            "steals": self.backend.steals_total,
            "peak_rss_bytes": peak_rss_bytes(),
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "batches": batches,
            "decisions": self.machine.telemetry.audit.appended,
            "stream_dropped": self.publisher.dropped_total,
            "latency": self.latency.summary(now),
            "pool": {
                "total": broker.total_bytes or 0,
                "leased": broker.leased_bytes,
                "spare": broker.spare_bytes() or 0,
                "active_leases": len(broker.leases),
            },
            "stalls": stalls,
            "uptime_s": (time.time() - self.started_wall
                         if self.started_wall is not None else 0.0),
            "alerts": self.alerts_total,
            "slo": (self.slo.status(now) if self.slo is not None else None),
            "archive": (self.archive.stats()
                        if self.archive is not None else None),
            "tenants": self.tenants.snapshot(),
            "queries": [record.to_dict(now) for record in active_records],
            "recent": [record.to_dict(now) for record in recent[:32]],
        }

    def __repr__(self) -> str:
        state = ("draining" if self.draining
                 else "serving" if self._started else "new")
        return (f"QueryService({state}, {self.active} active, "
                f"{self.completed} completed)")
