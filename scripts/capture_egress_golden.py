#!/usr/bin/env python
"""Capture the telemetry *egress* formats for the regression harness.

Where ``capture_golden.py`` pins what a run computes, this pins what
leaves the process: the three Prometheus expositions, the three
``chrome://tracing`` event lists, the SSE framing, and — for both HTTP
front-ends — every route's status, content type and JSON key set.  The
inputs are fixed plain data (no run, no clock), so the fixtures only move
when an output format does.

``tests/test_egress_formats.py`` re-renders the same inputs and compares
byte-for-byte with ``tests/golden/egress/``.  Regenerate (only when a
format change is intended) with::

    PYTHONPATH=src python scripts/capture_egress_golden.py
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.engine import FragmentStat
from repro.experiments import chrome_trace_events
from repro.observability import (
    DecisionRecord,
    FlightEntry,
    Span,
    flight_trace_events,
    prometheus_text,
    span_trace_events,
)
from repro.observability.live import MetricsPublisher, live_prometheus_text
from repro.observability.server import (
    ObservabilityServer,
    stream_publisher,
    write_sse_event,
)
from repro.service.stats import service_prometheus_text

EGRESS_DIR = (Path(__file__).resolve().parent.parent
              / "tests" / "golden" / "egress")

#: a label value every escaper must survive.
AWKWARD = 'we"ird\\name'

OFFLINE_SNAPSHOT: Dict[str, Any] = {
    "version": 1, "strategy": "DSE", "response_time": 12.5,
    "result_tuples": 300, "stall_time": 1.75,
    "stall_breakdown": {"source-wait:A": 1.5, "timeout": 0.25},
    "decisions": [{"kind": "degrade", "subject": "pA", "time": 1.0},
                  {"kind": "degrade", "subject": "pB", "time": 2.0},
                  {"kind": "mf-stop", "subject": "pA", "time": 3.0}],
    "samples": [],
    "metrics": {
        "dqp.batches": {"kind": "counter", "value": 42},
        "memory.used-bytes": {"kind": "gauge", "value": 1024.5},
        "pool.bytes": {"kind": "gauge", "value": float("inf")},
        "batch.seconds": {"kind": "histogram", "buckets": [0.001, 0.01],
                          "counts": [3, 4, 1], "count": 8, "sum": 0.0625},
    },
}

LIVE_SNAPSHOT: Dict[str, Any] = {
    "version": 1, "seq": 7, "strategy": "DSE", "now": 1.25,
    "result_tuples": 10, "batches": 42, "context_switches": 3,
    "decisions": 2, "samples": 5, "stall_time": 0.5,
    "stalls": {"source-wait:A": 0.3, "timeout": 0.2},
    "memory": {"used": 1024, "total": 4096, "peak": 2048},
    "fragments": [
        {"name": "pB", "kind": "PC", "chain": "C2", "status": "done",
         "tuples_in": 200, "tuples_out": 180, "batches": 8,
         "throughput": 99.0},
        {"name": AWKWARD, "kind": "MF", "chain": "C1", "status": "running",
         "tuples_in": 100, "tuples_out": 90, "batches": 4,
         "throughput": 72.0}],
    "queues": {"A": {"tuples": 12, "messages": 1, "rate": 500.0},
               AWKWARD: {"tuples": 0, "messages": 0, "rate": 0.0}},
}


def _slo(objective: str, alerting: bool) -> Dict[str, Any]:
    window = {"window_s": 300.0, "burn_threshold": 14.4, "events": 4,
              "bad": 1, "firing": alerting, "firing_since": None,
              "fired_total": int(alerting)}
    return {"objective": objective, "tenant": "vip", "metric": "p99",
            "threshold_s": 60.0, "target": 0.99, "error_budget": 0.01,
            "events": 4, "bad": 1, "compliance": 0.75, "alerting": alerting,
            "windows": {"fast": dict(window, burn_rate=25.0),
                        "slow": dict(window, window_s=3600.0,
                                     burn_threshold=6.0, burn_rate=2.5)}}


def _tenant(name: str, completed: int) -> Dict[str, Any]:
    return {"name": name, "priority": 1.0, "in_flight": 1,
            "completed": completed, "failed": 0, "rejected": 2,
            "mean_wait_s": 0.125}


def _worker(worker_id: int, state: str) -> Dict[str, Any]:
    return {"id": worker_id, "state": state, "pid": 1000 + worker_id,
            "queued": worker_id, "active": 2, "completed": 5, "failed": 0,
            "steals": 1, "restarts": worker_id, "pool_bytes": 1 << 20}


SERVICE_SNAPSHOT: Dict[str, Any] = {
    "version": 2, "kind": "service", "seq": 9, "now": 30.5,
    "draining": False, "submitted": 12, "active": 3, "admission_queued": 1,
    "backend": "worker-pool", "steals": 1, "completed": 8, "failed": 1,
    "rejected": 2, "batches": 640, "decisions": 17, "stream_dropped": 4,
    "workers": [_worker(0, "up"), _worker(1, "down")],
    "latency": {"count": 8, "observed": 8, "p50_s": 0.5, "p95_s": 1.5,
                "p99_s": 2.0, "max_s": 2.0, "mean_s": 0.75,
                "throughput_qps": 0.25},
    "pool": {"total": 8 << 20, "leased": 3 << 20, "spare": 5 << 20,
             "active_leases": 3},
    "stalls": {"admission-wait": 0.5, AWKWARD: 0.25},
    "uptime_s": 30.5, "alerts": 1,
    "slo": [_slo("vip:p99<=60s@99%", True), _slo(AWKWARD, False)],
    "archive": {"directory": "/tmp/archive", "queued": 2,
                "queue_capacity": 4096, "dropped_total": 1,
                "write_errors": 0, "records_written": 20,
                "segments_sealed": 1, "segments_deleted": 0,
                "last_write_age_s": 0.5},
    "tenants": [_tenant(AWKWARD, 3), _tenant("vip", 5)],
    "queries": [], "recent": [],
}

#: the in-process service with one worker, no SLOs and no archive.
SERVICE_SNAPSHOT_PLAIN: Dict[str, Any] = dict(
    SERVICE_SNAPSHOT, backend="in-process", workers=[], slo=None,
    archive=None, draining=True,
    latency={key: value for key, value in SERVICE_SNAPSHOT["latency"].items()
             if key != "throughput_qps"})


def prometheus_fixtures() -> Dict[str, str]:
    return {
        "prometheus_offline.prom": prometheus_text(OFFLINE_SNAPSHOT),
        "prometheus_live.prom": live_prometheus_text(LIVE_SNAPSHOT,
                                                     stream_dropped=3),
        "prometheus_live_no_drops.prom": live_prometheus_text(LIVE_SNAPSHOT),
        "prometheus_live_none.prom": live_prometheus_text(
            None, stream_dropped=0),
        "prometheus_service.prom": service_prometheus_text(SERVICE_SNAPSHOT),
        "prometheus_service_plain.prom": service_prometheus_text(
            SERVICE_SNAPSHOT_PLAIN),
        "prometheus_service_none.prom": service_prometheus_text(None),
    }


# -- chrome traces ---------------------------------------------------------
FLIGHT_ENTRIES = [
    FlightEntry(0.0, "phase", {"name": "run-start"}),
    FlightEntry(0.125, "batch", {"fragment": "pA", "tuples": 64}),
    FlightEntry(0.5, "stall", {"cause": "source-wait:A", "duration": 0.25}),
    FlightEntry(0.5, "stall", {"cause": "timeout"}),       # no duration
    FlightEntry(0.75, "decision", {"name": "degrade", "subject": "pA"}),
    FlightEntry(1.0, "sample", {"memory_used": 4096}),
    FlightEntry(1.0, "stall", {"cause": "tiny", "duration": 1e-9}),
    FlightEntry(1.25, "custom", {"detail": 1}),            # lane on demand
]

SPANS = [
    Span(0, "admission-wait", "admit q1", 0.0, 0.5),
    Span(1, "query", "q1", 0.5, 4.0, caused_by=0, attrs={"tenant": "vip"}),
    Span(2, "planning", "plan#1", 0.5, 0.5, parent_id=1),  # zero length
    Span(3, "exec-phase", "phase#1", 0.5, 3.5, parent_id=1),
    Span(4, "fragment", "pA", 0.625, 3.0, parent_id=3,
         attrs={"kind": "PC"}),
    Span(5, "batch", "pA#1", 0.625, 0.75, parent_id=4, attrs={"tuples": 64}),
    Span(6, "stall", "source-wait:A", 0.75, 1.25, parent_id=3),
    Span(7, "lease-grow", "grow", 1.5, 1.5, parent_id=1),
    Span(8, "budget-replan", "replan", 1.5, None, parent_id=1, caused_by=7),
    Span(9, "mystery", "unknown kind", 2.0, 2.0000000001),  # dur clamps to 1
    Span(10, "batch", "dangling cause", 3.0, 3.5, caused_by=99),
]


def _traced_result() -> Any:
    """A hand-built result: two chains, one unfinished fragment, a chain
    that only the timeline knows, and decisions with and without args."""
    stats = {
        "pA": FragmentStat("pA", "PC", "C1", 0.5, 2.0, 100, 90, 4, 0.125),
        "pB": FragmentStat("pB", "MF", "C2", 0.0, 1.0, 200, 200, 8, 0.25),
        "pC": FragmentStat("pC", "CF", "C2", 2.5, None, 10, 0, 1, 0.0),
        "pD": FragmentStat("pD", "PC", "C1", 2.0, 2.0000000001, 1, 1, 1, 0.0),
    }
    late = FragmentStat("pE", "CF", "C9", 3.0, 4.0, 5, 5, 1, 0.0625)
    decisions = [
        DecisionRecord(1.0, "degrade", "pA", critical=3.5, bmi=2.5, bmt=1.0,
                       details={"temp": "tA"}),
        DecisionRecord(1.5, "mf-stop", "pB"),
        DecisionRecord(9.0, "degrade", "pA", bmi=0.0),
    ]
    return SimpleNamespace(
        strategy="DSE", response_time=4.0, fragment_stats=stats,
        timeline=lambda: sorted(list(stats.values()) + [late],
                                key=lambda s: (s.started_at, s.name)),
        decisions=decisions)


def trace_fixtures() -> Dict[str, str]:
    def render(events: Any) -> str:
        # No sort_keys: the key order inside each event is part of what
        # the `.trace.json` files look like on disk.
        return json.dumps(events, indent=1) + "\n"

    untraced = _traced_result()
    untraced.decisions = []
    return {
        "trace_flight.json": render(flight_trace_events(FLIGHT_ENTRIES)),
        "trace_spans.json": render(span_trace_events(SPANS)),
        "trace_fragments.json": render(chrome_trace_events(_traced_result())),
        "trace_fragments_untraced.json": render(
            chrome_trace_events(untraced)),
    }


# -- SSE framing -----------------------------------------------------------
class _ScriptedPublisher(MetricsPublisher):
    """Fans an alert and closes the moment a client subscribes, so one
    ``stream_publisher`` pass sees snapshot, alert and end without a
    second task or a clock."""

    def subscribe(self, *args: Any, **kwargs: Any) -> Any:
        subscription = super().subscribe(*args, **kwargs)
        self.publish_event({"kind": "alert", "state": "firing",
                            "objective": "vip:p99<=60s@99%"})
        self.close()
        return subscription


class _BufferWriter(io.BytesIO):
    """A stream writer that keeps what it is given."""

    async def drain(self) -> None:
        pass


def sse_fixtures() -> Dict[str, str]:
    frames = io.BytesIO()
    write_sse_event(frames, {"kind": "service", "now": 1.5, "b": [1, 2]}, 4)
    write_sse_event(frames, {"kind": "alert", "state": "resolved"}, 5,
                    event="alert")
    stream = _BufferWriter()
    publisher = _ScriptedPublisher()
    publisher.publish({"kind": "service", "now": 2.0})
    asyncio.run(stream_publisher(stream, publisher))
    return {"sse_frames.txt": frames.getvalue().decode("utf-8"),
            "sse_stream.txt": stream.getvalue().decode("utf-8")}


# -- routes ----------------------------------------------------------------
def probe(port: int, method: str, path: str,
          body: Optional[Any] = None) -> Dict[str, Any]:
    """Status, content type and (for JSON bodies) the top-level key set."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload,
                     {"Content-Type": "application/json"} if payload else {})
        response = conn.getresponse()
        content_type = response.getheader("Content-Type")
        seen = {"status": response.status, "content_type": content_type}
        if content_type == "text/event-stream":
            seen["cache_control"] = response.getheader("Cache-Control")
            for raw in response:        # first frame, then hang up
                if raw.startswith(b"data:"):
                    seen["keys"] = sorted(json.loads(raw[5:]))
                    break
            return seen
        raw_body = response.read()
        try:
            data = json.loads(raw_body)
        except json.JSONDecodeError:
            data = None
        seen["keys"] = sorted(data) if isinstance(data, dict) else None
        seen["body"] = data     # callers pop it; never written to disk
        return seen
    finally:
        conn.close()


def live_routes() -> Dict[str, Any]:
    publisher = MetricsPublisher()
    publisher.publish(LIVE_SNAPSHOT)

    def client_side(port: int) -> Dict[str, Any]:
        return {f"{method} {path}": probe(port, method, path)
                for method, path in (("GET", "/metrics"), ("GET", "/healthz"),
                                     ("GET", "/stream"), ("GET", "/nope"),
                                     ("GET", "/healthz?verbose=1"))}

    async def scenario() -> Dict[str, Any]:
        server = await ObservabilityServer(publisher).start()
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, client_side, server.port)
        finally:
            await server.stop()

    seen = asyncio.run(scenario())
    for entry in seen.values():
        entry.pop("body", None)
    return seen


def service_routes() -> Dict[str, Any]:
    from repro.resources import TenantSpec
    from repro.service import QueryService, ServiceServer, parse_slo_specs

    fast = dict(scale=0.0005, wait_us=20.0, memory_bytes=1 << 20)
    seen: Dict[str, Any] = {}

    async def scenario(archive_dir: str) -> None:
        service = QueryService(
            seed=3, global_memory_bytes=4 << 20,
            tenants=[TenantSpec("vip", priority=1.0),
                     TenantSpec("capped", memory_limit_bytes=1024)],
            publish_interval_s=0.05, archive_dir=archive_dir,
            slos=parse_slo_specs(["vip:p99<=60s@99%"]))
        await service.start()
        server = await ServiceServer(service).start()

        def client_side() -> None:
            port = server.port
            seen["POST /submit"] = probe(port, "POST", "/submit",
                                         dict(fast, tenant="vip"))
            submission = seen["POST /submit"]["body"]["id"]
            seen["POST /submit (not JSON)"] = probe(port, "POST", "/submit",
                                                    "nonsense")
            seen["POST /submit (unknown field)"] = probe(
                port, "POST", "/submit", {"bogus": 1})
            seen["POST /submit (over quota)"] = probe(
                port, "POST", "/submit", dict(fast, tenant="capped"))
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                record = probe(port, "GET", f"/submissions/{submission}")
                if record["body"]["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            seen["GET /submissions/ID"] = record
            seen["GET /submissions/ID (unknown)"] = probe(
                port, "GET", "/submissions/s-999999")
            time.sleep(0.15)    # a publish tick folds the completion in
            for path in ("/healthz", "/metrics", "/slo", "/stream",
                         "/submissions", "/nope"):
                seen[f"GET {path}"] = probe(port, "GET", path)
            seen["POST /nope"] = probe(port, "POST", "/nope")
            seen["POST /drain"] = probe(port, "POST", "/drain")
            seen["POST /submit (draining)"] = probe(
                port, "POST", "/submit", dict(fast, tenant="vip"))

        try:
            await asyncio.get_running_loop().run_in_executor(
                None, client_side)
            await service.wait_drained()
        finally:
            await service.stop()
            await server.stop()

    with tempfile.TemporaryDirectory() as archive_dir:
        asyncio.run(scenario(archive_dir))
    for entry in seen.values():
        entry.pop("body", None)
    return seen


def route_fixtures() -> Dict[str, str]:
    def render(routes: Dict[str, Any]) -> str:
        return json.dumps(routes, indent=2, sort_keys=True) + "\n"

    return {"routes_live.json": render(live_routes()),
            "routes_service.json": render(service_routes())}


def all_fixtures() -> Dict[str, str]:
    return {**prometheus_fixtures(), **trace_fixtures(), **sse_fixtures(),
            **route_fixtures()}


def main() -> int:
    EGRESS_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(all_fixtures().items()):
        (EGRESS_DIR / name).write_text(text, encoding="utf-8")
        print("wrote", EGRESS_DIR / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
