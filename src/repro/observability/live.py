"""Mid-flight snapshots of a running query and their Prometheus view.

The live observability plane is pull-shaped: on every sampler tick the
engine assembles a plain-data :func:`build_live_snapshot` dict —
per-fragment progress and throughput, queue depths, delivery rates,
memory occupancy, the stall-attribution breakdown (whose values sum
exactly to the stall time by construction) — and hands it to a
:class:`MetricsPublisher`.  The HTTP routes (``/metrics``, ``/stream``,
which ``repro top`` reads) run on the same loop and only ever read the
last published snapshot, so a scrape is whole and costs the engine
nothing.

:func:`live_prometheus_text` renders one snapshot in the Prometheus text
exposition format for live scraping (unlike
:func:`repro.observability.export.prometheus_text`, which renders a
finished run's virtual-time snapshot for offline ingestion).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.observability.export import PrometheusText, prom_float, prom_labels

if TYPE_CHECKING:
    import asyncio

#: live snapshot layout version (part of the SSE/JSON payload).
LIVE_SNAPSHOT_VERSION = 1

#: frames a stream subscriber may lag behind before the oldest is dropped.
DEFAULT_SUBSCRIPTION_CAPACITY = 8


def build_live_snapshot(world: Any, runtime: Any, processor: Any,
                        strategy: str) -> Dict[str, Any]:
    """One JSON-safe snapshot of an in-flight execution.

    Called by the engine (sampler tick or final flush), so every runtime
    structure it reads is quiescent while it reads it.
    """
    sim = world.sim
    now = sim.now
    # Name-sorted, matching the order the Prometheus exposition emits the
    # per-cause series in: a scraper re-summing the series in document
    # order reproduces stall_time bit-for-bit (float addition is
    # order-sensitive).
    stalls = dict(sorted(world.telemetry.stalls.by_cause().items()))
    fragments: List[Dict[str, Any]] = []
    for fragment in runtime.fragments.values():
        started = fragment.started_at
        busy = (now if fragment.finished_at is None
                else fragment.finished_at) - (started or 0.0)
        fragments.append({
            "name": fragment.name,
            "kind": fragment.kind.value,
            "chain": fragment.chain.name,
            "status": fragment.status.value,
            "tuples_in": fragment.tuples_in,
            "tuples_out": fragment.tuples_out,
            "batches": fragment.batches,
            "throughput": (fragment.tuples_out / busy
                           if started is not None and busy > 0 else 0.0),
        })
    queues: Dict[str, Dict[str, Any]] = {}
    for source, queue in world.cm.queues.items():
        rate = world.cm.estimators[source].delivery_rate
        queues[source] = {
            "tuples": queue.tuples_available,
            "messages": len(queue._messages),
            "rate": rate if rate is not None else 0.0,
        }
    return {
        "version": LIVE_SNAPSHOT_VERSION,
        "strategy": strategy,
        "now": now,
        "result_tuples": runtime.result_tuples,
        "batches": processor.batches_processed,
        "context_switches": processor.context_switches,
        # Summed from the same mapping that is exported per cause, so
        # the per-cause series sum to this total exactly.
        "stall_time": sum(stalls.values()),
        "stalls": stalls,
        "decisions": len(world.telemetry.audit),
        "samples": len(world.telemetry.samples),
        "memory": {
            "used": world.memory.used_bytes,
            "total": world.memory.total_bytes,
            "peak": world.memory.peak_bytes,
        },
        "fragments": fragments,
        "queues": queues,
    }


class SnapshotSubscription:
    """One bounded, drop-oldest frame queue hanging off a publisher.

    Created by :meth:`MetricsPublisher.subscribe`.  The publisher appends
    every published snapshot; when the queue is full the *oldest* frame
    is discarded (and counted) so a slow or stalled SSE client can never
    hold back the publisher or grow memory without bound.  Its one
    reader awaits :meth:`next` on the publisher's loop.
    """

    def __init__(self, publisher: "MetricsPublisher", capacity: int) -> None:
        if capacity < 1:
            raise ValueError("subscription capacity must be >= 1")
        self._publisher = publisher
        self.capacity = capacity
        #: frames dropped from *this* subscription because it lagged.
        self.dropped = 0
        self._frames: Deque[Tuple[Dict[str, Any], int]] = deque()
        self._closed = False
        #: the future :meth:`next` is parked on while the queue is empty.
        self._waiter: Optional["asyncio.Future[None]"] = None

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def next(self) -> Optional[Tuple[Dict[str, Any], int]]:
        """The next ``(snapshot, seq)``, waiting for one to be published;
        None once the publisher (or this subscription) closed and every
        queued frame was taken."""
        import asyncio

        while not self._frames:
            if self._publisher.closed or self._closed:
                return None
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        return self._frames.popleft()

    def close(self) -> None:
        """Detach from the publisher (idempotent)."""
        self._closed = True
        self._publisher._subscriptions.discard(self)
        self._wake()


class MetricsPublisher:
    """Single-slot, sequence-numbered snapshot exchange on one loop.

    The engine :meth:`publish`-es; readers take :meth:`latest` (scrapes)
    or :meth:`subscribe` (lossy-but-ordered SSE streams).  Publisher and
    readers share one thread, so nothing here locks.  The published
    dict is treated as immutable by all parties.
    """

    def __init__(self) -> None:
        self._snapshot: Optional[Dict[str, Any]] = None
        self._seq = 0
        self._closed = False
        self._subscriptions: "set[SnapshotSubscription]" = set()
        #: frames dropped across all subscriptions (slow-client metric).
        self.dropped_total = 0

    def _fan_out(self, frame: Dict[str, Any], install: bool) -> int:
        """Stamp ``frame`` with the next sequence number and queue it on
        every subscription (drop-oldest when one is full)."""
        self._seq += 1
        frame = dict(frame, seq=self._seq)
        if install:
            self._snapshot = frame
        for subscription in self._subscriptions:
            if len(subscription._frames) >= subscription.capacity:
                subscription._frames.popleft()
                subscription.dropped += 1
                self.dropped_total += 1
            subscription._frames.append((frame, self._seq))
            subscription._wake()
        return self._seq

    def publish(self, snapshot: Dict[str, Any]) -> int:
        """Install a fresh snapshot; returns its sequence number."""
        return self._fan_out(snapshot, install=True)

    def publish_event(self, frame: Dict[str, Any]) -> int:
        """Fan an out-of-band frame (e.g. an SLO alert) to subscribers.

        Unlike :meth:`publish` the frame does **not** replace the
        latest snapshot — ``/metrics`` scrapes and late subscribers
        must keep seeing a ``kind: service`` frame, not an alert.
        """
        return self._fan_out(frame, install=False)

    def subscribe(self, capacity: int = DEFAULT_SUBSCRIPTION_CAPACITY
                  ) -> SnapshotSubscription:
        """Register a bounded per-client frame queue.

        The latest snapshot (if any) is pre-queued so a late subscriber
        renders a frame without waiting for the next publish tick.
        """
        subscription = SnapshotSubscription(self, capacity)
        self._subscriptions.add(subscription)
        if self._snapshot is not None:
            subscription._frames.append((self._snapshot, self._seq))
        return subscription

    def close(self) -> None:
        """Wake streamers so they can observe the end of the run."""
        self._closed = True
        for subscription in self._subscriptions:
            subscription._wake()

    @property
    def closed(self) -> bool:
        return self._closed

    def latest(self) -> Tuple[Optional[Dict[str, Any]], int]:
        """The most recent snapshot (or None) and its sequence number."""
        return self._snapshot, self._seq


def live_prometheus_text(snapshot: Optional[Dict[str, Any]], *,
                         stream_dropped: Optional[int] = None) -> str:
    """Render one live snapshot in the Prometheus text format.

    Before the first sampler tick (``snapshot is None``) only
    ``repro_live_up`` is exposed, so a scrape racing engine start-up is
    still valid exposition text.  ``stream_dropped`` (when not None) adds
    the publisher-wide slow-SSE-client drop counter to the exposition.
    """
    text = PrometheusText(number=prom_float)
    emit = text.emit
    emit("repro_live_up", "gauge",
         "1 while the live engine is publishing snapshots.",
         [("", 1.0 if snapshot is not None else 0.0)])
    if stream_dropped is not None:
        emit("repro_live_stream_dropped_frames_total", "counter",
             "SSE frames dropped because stream clients lagged.",
             [("", stream_dropped)])
    if snapshot is None:
        return text.render()

    emit("repro_live_snapshot_seq", "counter",
         "Sequence number of this snapshot.", [("", snapshot["seq"])])
    emit("repro_live_now_seconds", "gauge",
         "Wall-clock seconds since the run started.",
         [("", snapshot["now"])])
    emit("repro_live_result_tuples", "gauge",
         "Result tuples produced so far.", [("", snapshot["result_tuples"])])
    emit("repro_live_batches_total", "counter",
         "Batches the DQP has processed.", [("", snapshot["batches"])])
    emit("repro_live_context_switches_total", "counter",
         "Fragment-to-fragment switches charged.",
         [("", snapshot["context_switches"])])
    emit("repro_live_decisions_total", "counter",
         "Scheduler decisions recorded so far.",
         [("", snapshot["decisions"])])
    emit("repro_live_stall_time_seconds", "gauge",
         "Engine idle time so far; the per-cause series sum to this.",
         [("", snapshot["stall_time"])])
    emit("repro_live_stall_seconds_total", "counter",
         "Engine idle time by attributed cause.",
         [(prom_labels(cause=cause), seconds)
          for cause, seconds in sorted(snapshot["stalls"].items())])
    memory = snapshot["memory"]
    emit("repro_live_memory_used_bytes", "gauge",
         "Query memory in use.", [("", memory["used"])])
    emit("repro_live_memory_total_bytes", "gauge",
         "Query memory budget.", [("", memory["total"])])
    emit("repro_live_memory_peak_bytes", "gauge",
         "Peak query memory so far.", [("", memory["peak"])])

    fragments = sorted(snapshot["fragments"], key=lambda f: f["name"])
    for field, kind, help_text in (
            ("tuples_in", "counter", "Tuples consumed per fragment."),
            ("tuples_out", "counter", "Tuples produced per fragment."),
            ("batches", "counter", "Batches processed per fragment."),
            ("throughput", "gauge",
             "Output tuples per active second, per fragment.")):
        suffix = "_total" if kind == "counter" else "_tuples_per_second"
        emit(f"repro_live_fragment_{field}{suffix}", kind, help_text,
             [(prom_labels(fragment=f["name"], kind=f["kind"]), f[field])
              for f in fragments])

    sources = sorted(snapshot["queues"].items())
    emit("repro_live_queue_depth_tuples", "gauge",
         "Tuples buffered per source queue.",
         [(prom_labels(source=source), queue["tuples"])
          for source, queue in sources])
    emit("repro_live_queue_depth_messages", "gauge",
         "Messages buffered per source queue.",
         [(prom_labels(source=source), queue["messages"])
          for source, queue in sources])
    emit("repro_live_source_rate_tuples_per_second", "gauge",
         "Estimated delivery rate per source.",
         [(prom_labels(source=source), queue["rate"])
          for source, queue in sources])
    return text.render()
