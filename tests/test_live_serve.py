"""The live observability plane: /metrics, /healthz, /stream, repro top.

The acceptance behaviour pinned here: scraping ``/metrics`` *mid-flight*
returns valid Prometheus exposition text with per-fragment throughput
series, and the per-cause stall series re-summed in document order
reproduce ``repro_live_stall_time_seconds`` bit-for-bit.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.core.strategies import make_policy
from repro.exec.live import LiveQueryEngine
from repro.experiments import figure5_workload
from repro.observability import (
    MetricsPublisher,
    build_live_snapshot,
    live_prometheus_text,
)
from repro.observability.top import _parse_endpoint, render_top
from repro.wrappers import JitteredDelay


# --------------------------------------------------------------------------
# MetricsPublisher
# --------------------------------------------------------------------------

def test_publisher_latest_and_sequence():
    publisher = MetricsPublisher()
    assert publisher.latest() == (None, 0)
    assert publisher.publish({"now": 1.0}) == 1
    assert publisher.publish({"now": 2.0}) == 2
    snapshot, seq = publisher.latest()
    assert seq == 2 and snapshot["now"] == 2.0
    assert snapshot["seq"] == 2  # the published dict carries its seq


def _take(subscription, count=1):
    """The next ``count`` frames of ``subscription``, each awaited on a
    loop (None for each one past the end of the stream)."""
    async def take():
        return [await asyncio.wait_for(subscription.next(), 5.0)
                for _ in range(count)]
    return asyncio.run(take())


def test_publisher_close_wakes_waiters_without_a_snapshot():
    publisher = MetricsPublisher()
    subscription = publisher.subscribe()

    async def scenario():
        waiting = asyncio.ensure_future(subscription.next())
        await asyncio.sleep(0)
        assert not waiting.done()       # parked: nothing published yet
        publisher.close()
        return await asyncio.wait_for(waiting, 5.0)

    assert asyncio.run(scenario()) is None
    assert publisher.closed


def test_publish_wakes_a_parked_subscriber():
    publisher = MetricsPublisher()
    subscription = publisher.subscribe()

    async def scenario():
        waiting = asyncio.ensure_future(subscription.next())
        await asyncio.sleep(0)
        assert not waiting.done()
        publisher.publish({"now": 3.0})
        return await asyncio.wait_for(waiting, 5.0)

    snapshot, seq = asyncio.run(scenario())
    assert seq == 1 and snapshot["now"] == 3.0


def test_subscription_is_bounded_and_drops_oldest():
    publisher = MetricsPublisher()
    subscription = publisher.subscribe(capacity=3)
    for index in range(5):
        publisher.publish({"now": float(index)})
    # Capacity 3: frames 0 and 1 were dropped, 2..4 remain in order.
    assert subscription.dropped == 2
    assert publisher.dropped_total == 2
    got = [snapshot["now"] for snapshot, _seq in _take(subscription, 3)]
    assert got == [2.0, 3.0, 4.0]


def test_late_subscriber_gets_the_latest_frame_pre_queued():
    publisher = MetricsPublisher()
    publisher.publish({"now": 7.0})
    subscription = publisher.subscribe()
    [(snapshot, seq)] = _take(subscription)
    assert snapshot["now"] == 7.0 and seq == 1


def test_subscription_finished_after_close_and_drain():
    publisher = MetricsPublisher()
    subscription = publisher.subscribe(capacity=2)
    publisher.publish({"now": 1.0})
    publisher.close()
    # The queued frame still comes out; then the stream ends.
    [(snapshot, _seq), end, again] = _take(subscription, 3)
    assert snapshot["now"] == 1.0
    assert end is None and again is None


def test_closed_subscription_detaches_from_the_publisher():
    publisher = MetricsPublisher()
    subscription = publisher.subscribe(capacity=1)
    subscription.close()
    publisher.publish({"now": 1.0})
    assert subscription.dropped == 0
    assert publisher.dropped_total == 0
    assert _take(subscription) == [None]


def test_subscription_capacity_must_be_positive():
    publisher = MetricsPublisher()
    with pytest.raises(ValueError):
        publisher.subscribe(capacity=0)


def test_stalled_subscriber_sheds_without_affecting_publisher_or_peers():
    """A slow SSE client only loses *its own* frames (satellite: the
    drop-oldest path under a stalled subscriber, timing-free)."""
    publisher = MetricsPublisher()
    stalled = publisher.subscribe(capacity=3)    # never pops
    healthy = publisher.subscribe(capacity=3)    # keeps up
    seqs = []
    for index in range(10):
        seqs.append(publisher.publish({"now": float(index)}))
        [(snapshot, _seq)] = _take(healthy)
        assert snapshot["now"] == float(index)
    # publish() returned synchronously every time with increasing seq --
    # the stalled peer exerted no backpressure.
    assert seqs == list(range(1, 11))
    assert healthy.dropped == 0
    assert stalled.dropped == 7          # capacity 3 of 10 frames kept
    assert publisher.dropped_total == 7  # global shed counter
    latest, seq = publisher.latest()
    assert seq == 10 and latest["now"] == 9.0
    # The stalled queue holds exactly the newest three, in order.
    kept = [snapshot["now"] for snapshot, _seq in _take(stalled, 3)]
    assert kept == [7.0, 8.0, 9.0]


def test_publish_event_fans_out_without_replacing_the_snapshot():
    """Alert frames reach subscribers but never become ``latest()`` —
    /metrics and late subscribers must keep seeing a *service* snapshot,
    not the last alert."""
    publisher = MetricsPublisher()
    publisher.publish({"kind": "service", "now": 1.0})
    subscription = publisher.subscribe()
    _take(subscription)  # drain the pre-queued snapshot
    seq = publisher.publish_event({"kind": "alert", "state": "firing"})
    assert seq == 2
    [(frame, frame_seq)] = _take(subscription)
    assert frame["kind"] == "alert" and frame_seq == 2
    latest, latest_seq = publisher.latest()
    assert latest["kind"] == "service"  # unchanged by the event
    assert latest_seq == 2              # but the sequence did advance
    late = publisher.subscribe()
    [(pre_queued, _seq)] = _take(late)
    assert pre_queued["kind"] == "service"


# --------------------------------------------------------------------------
# Exposition text
# --------------------------------------------------------------------------

def test_prometheus_text_before_first_snapshot_is_just_up_zero():
    text = live_prometheus_text(None)
    assert "repro_live_up 0.0" in text
    assert text.endswith("\n")
    assert "repro_live_stall" not in text


def _parse_prometheus(text: str) -> list[tuple[str, float]]:
    samples = []
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name, value = line.rsplit(" ", 1)
        samples.append((name, float(value)))
    return samples


def test_prometheus_text_renders_a_synthetic_snapshot():
    snapshot = {
        "seq": 7, "strategy": "DSE", "now": 1.25, "result_tuples": 10,
        "batches": 42, "context_switches": 3, "decisions": 2,
        "stall_time": 0.5, "stalls": {"source-wait:A": 0.3, "timeout": 0.2},
        "samples": 5,
        "memory": {"used": 1024, "total": 4096, "peak": 2048},
        "fragments": [{"name": "pA", "kind": "MF", "chain": "C1",
                       "status": "running", "tuples_in": 100,
                       "tuples_out": 90, "batches": 4, "throughput": 72.0}],
        "queues": {"A": {"tuples": 12, "messages": 1, "rate": 500.0}},
    }
    samples = dict(_parse_prometheus(live_prometheus_text(snapshot)))
    assert samples["repro_live_up"] == 1.0
    assert samples["repro_live_batches_total"] == 42.0
    assert samples['repro_live_fragment_throughput_tuples_per_second'
                   '{fragment="pA",kind="MF"}'] == 72.0
    assert samples['repro_live_stall_seconds_total{cause="source-wait:A"}'] \
        == 0.3
    assert samples['repro_live_queue_depth_tuples{source="A"}'] == 12.0


# --------------------------------------------------------------------------
# repro top rendering
# --------------------------------------------------------------------------

def test_render_top_without_a_snapshot():
    assert render_top(None) == ["repro top — waiting for first snapshot..."]


def test_render_top_layout():
    snapshot = {
        "strategy": "DSE", "now": 2.5, "result_tuples": 1500,
        "batches": 30, "decisions": 4, "stall_time": 1.25,
        "stalls": {"source-wait:A": 1.0, "timeout": 0.25},
        "memory": {"used": 2e6, "total": 8e6, "peak": 3e6},
        "fragments": [
            {"name": "pA", "kind": "MF", "status": "running",
             "tuples_in": 100, "tuples_out": 90, "batches": 4,
             "throughput": 10.0},
            {"name": "pB", "kind": "MF", "status": "done",
             "tuples_in": 200, "tuples_out": 180, "batches": 8,
             "throughput": 99.0},
        ],
        "queues": {"A": {"tuples": 7, "messages": 1, "rate": 100.0}},
    }
    lines = render_top(snapshot, width=100)
    assert "DSE" in lines[0] and "t=2.50s" in lines[0]
    assert lines[1].startswith("memory [")
    assert "source-wait:A=1.00s" in lines[2]
    table = [line for line in lines if line.startswith(("pA", "pB"))]
    assert table[0].startswith("pB")  # sorted by throughput, descending
    assert any(line.startswith("SOURCE") for line in lines)
    assert all(len(line) <= 100 for line in lines)


def test_write_sse_event_names_alert_frames():
    import io

    from repro.observability.server import write_sse_event

    buffer = io.BytesIO()
    write_sse_event(buffer, {"kind": "alert", "state": "firing"}, 7,
                    event="alert")
    text = buffer.getvalue().decode("utf-8")
    assert text.startswith("event: alert\n")
    assert "id: 7\n" in text
    assert json.loads(text.split("data: ", 1)[1].strip())["state"] \
        == "firing"
    # Unnamed frames stay default `message` events.
    buffer = io.BytesIO()
    write_sse_event(buffer, {"kind": "service"}, 8)
    assert not buffer.getvalue().startswith(b"event:")


# --------------------------------------------------------------------------
# One segment per response (no header/body split for delayed ACK to stall)
# --------------------------------------------------------------------------

class _RecordingWriter:
    """Stands in for the connection's stream writer: records every write
    that would reach the wire, one entry per send."""

    def __init__(self):
        self.sends = []

    def write(self, data):
        self.sends.append(bytes(data))

    async def drain(self):
        pass


@pytest.mark.parametrize("path, status", [
    ("/healthz", b"200"), ("/metrics", b"200"), ("/submissions/s-1", b"200"),
    ("/nope", b"404")])
def test_a_response_leaves_in_one_send(path, status):
    from repro.observability.server import ObservabilityServer

    server = ObservabilityServer(MetricsPublisher(), routes={
        ("GET", "/healthz"): lambda request: (200, {"status": "ok"}),
        ("GET", "/metrics"): lambda request: (200, "repro_up 1.0\n"),
        ("GET", "/submissions/*"):
            lambda request: (200, {"id": request.tail})})
    writer = _RecordingWriter()

    async def answer():
        reader = asyncio.StreamReader()
        reader.feed_data(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"
                         .encode())
        reader.feed_eof()
        try:
            return await server._answer(reader, writer)
        finally:
            await server.stop()

    assert asyncio.run(answer()) is True        # keep-alive
    assert len(writer.sends) == 1, writer.sends
    head, _, body = writer.sends[0].partition(b"\r\n\r\n")
    assert head.split()[1] == status
    assert f"Content-Length: {len(body)}".encode() in head
    if path.startswith("/submissions/"):
        assert json.loads(body) == {"id": "s-1"}


# --------------------------------------------------------------------------
# Auto-reconnect (satellite: watch/top survive a dropped stream)
# --------------------------------------------------------------------------

def _scripted_stream(script):
    """A stream_snapshots stand-in driven by a per-connection script.

    Each entry: {"frames": [...], "end": bool}; omitting "end" makes the
    connection die with ConfigurationError after its frames (a dropped
    TCP stream).  The last entry repeats forever.
    """
    calls = {"count": 0}

    def stream(endpoint, timeout, status):
        behavior = script[min(calls["count"], len(script) - 1)]
        calls["count"] += 1
        for frame in behavior.get("frames", ()):
            status.frames += 1
            yield frame
        if behavior.get("end"):
            status.ended = True
            return
        raise ConfigurationError("stream dropped")

    stream.calls = calls
    return stream


def test_reconnect_resumes_after_a_dropped_stream():
    from repro.observability.top import stream_snapshots_reconnect

    sleeps, notices = [], []
    stream = _scripted_stream([
        {"frames": [{"now": 1.0}, {"now": 2.0}]},           # drops
        {"frames": [{"now": 3.0}], "end": True},            # clean end
    ])
    frames = list(stream_snapshots_reconnect(
        "127.0.0.1:1", on_reconnect=lambda d, n: notices.append((d, n)),
        sleep=sleeps.append, _stream=stream))
    assert [f["now"] for f in frames] == [1.0, 2.0, 3.0]
    assert stream.calls["count"] == 2
    assert sleeps == [0.5]            # one backoff between connections
    assert notices == [(0.5, 1)]      # the CLI notice hook fired once


def test_reconnect_gives_up_after_max_consecutive_failures():
    from repro.observability.top import stream_snapshots_reconnect

    sleeps = []
    stream = _scripted_stream([{}])   # every connection dies frameless
    with pytest.raises(ConfigurationError):
        list(stream_snapshots_reconnect(
            "127.0.0.1:1", max_failures=2, sleep=sleeps.append,
            _stream=stream))
    # Attempts: fail, sleep, fail, sleep, fail -> give up (3 connections).
    assert stream.calls["count"] == 3
    assert sleeps == [0.5, 1.0]


def test_reconnect_backoff_doubles_caps_and_resets_on_a_frame():
    from repro.observability.top import stream_snapshots_reconnect

    sleeps = []
    stream = _scripted_stream([
        {}, {}, {}, {}, {}, {},                      # six dead connections
        {"frames": [{"now": 1.0}]},                  # one frame -> reset
        {},                                          # dies again
        {"frames": [{"now": 2.0}], "end": True},
    ])
    frames = list(stream_snapshots_reconnect(
        "127.0.0.1:1", max_failures=10, sleep=sleeps.append,
        _stream=stream))
    assert [f["now"] for f in frames] == [1.0, 2.0]
    # 0.5 doubles to the 8s cap, then the received frame resets it.
    assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0,  # dead streak
                      0.5, 1.0]  # post-frame drop restarts at 0.5


def test_reconnect_stops_cleanly_on_server_end_without_sleeping():
    from repro.observability.top import stream_snapshots_reconnect

    sleeps = []
    stream = _scripted_stream([{"frames": [{"now": 1.0}], "end": True}])
    frames = list(stream_snapshots_reconnect(
        "127.0.0.1:1", sleep=sleeps.append, _stream=stream))
    assert [f["now"] for f in frames] == [1.0]
    assert sleeps == []               # no reconnect machinery engaged


@pytest.mark.parametrize("port", [-1, 65536, 70000])
def test_an_out_of_range_port_is_refused_before_any_bind(port, monkeypatch):
    import socket

    from repro.observability.server import ObservabilityServer

    binds = []
    monkeypatch.setattr(socket.socket, "bind",
                        lambda sock, address: binds.append(address))
    with pytest.raises(ConfigurationError,
                       match=f"port must be in 0..65535, got {port}"):
        ObservabilityServer(MetricsPublisher(), port=port)
    assert binds == []


def test_a_busy_port_is_a_configuration_error():
    import socket

    from repro.observability.server import ObservabilityServer

    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        with pytest.raises(ConfigurationError,
                           match=f"cannot bind 127.0.0.1:{port}: "):
            ObservabilityServer(MetricsPublisher(), port=port)


def test_parse_endpoint():
    assert _parse_endpoint("127.0.0.1:9100") == ("127.0.0.1", 9100)
    assert _parse_endpoint(":9100") == ("127.0.0.1", 9100)
    # The full-URL form printed by `repro serve` works too.
    assert _parse_endpoint("http://10.0.0.5:9131") == ("10.0.0.5", 9131)
    assert _parse_endpoint("http://10.0.0.5:9131/stream") == ("10.0.0.5", 9131)
    with pytest.raises(ConfigurationError):
        _parse_endpoint("no-port")


# --------------------------------------------------------------------------
# A real serving run, scraped mid-flight
# --------------------------------------------------------------------------

def _http_get(port: int, path: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


@pytest.fixture(scope="module")
def serving_run(tmp_path_factory):
    """One live DSE run with the plane armed, scraped while in flight.

    Collects /metrics and /healthz bodies during the run plus the first
    few SSE events, then dumps the armed flight recorder post-run so the
    ``repro top --replay`` tests read a *recorded* dump rather than a
    synthetic one (one wall-clock run shared by the whole module keeps
    the suite fast).
    """
    tmp = tmp_path_factory.mktemp("serving-run")
    workload = figure5_workload(scale=0.01)
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_sample_interval=0.02)

    served = threading.Event()
    port = {}
    engine = LiveQueryEngine(
        workload.catalog, workload.qep, make_policy("DSE"),
        {rel: JitteredDelay((10.0 if rel == "A" else 1.0) * 100e-6)
         for rel in workload.relation_names},
        params=params, seed=9, serve_port=0,
        flight_dump=tmp / "flight.json",
        on_serve=lambda server: (port.update(value=server.port),
                                 served.set()))

    outcome = {}

    def run():
        try:
            outcome["result"] = asyncio.run(engine.run())
        except BaseException as exc:  # surfaced after join
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    assert served.wait(timeout=10.0), "server never came up"

    scrapes, healths = [], []
    stream_events = []
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port["value"],
                                          timeout=10)
        conn.request("GET", "/stream",
                     headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        assert response.status == 200
        for raw in response:
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith("data:"):
                stream_events.append(json.loads(line.split(":", 1)[1]))
                if len(stream_events) >= 3:
                    break
        conn.close()
        while thread.is_alive() and len(scrapes) < 50:
            status, body = _http_get(port["value"], "/metrics")
            assert status == 200
            scrapes.append(body)
            status, body = _http_get(port["value"], "/healthz")
            assert status == 200
            healths.append(json.loads(body))
    finally:
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    # The recorder stays attached after a green run: dump it now so the
    # --replay tests below read a genuinely *recorded* flight dump.
    dump_path = engine.recorder.dump(tmp / "recorded.json",
                                     reason="post-run test dump")
    return {"scrapes": scrapes, "healths": healths,
            "stream_events": stream_events, "result": outcome["result"],
            "dump_path": dump_path}


def test_midflight_scrapes_are_valid_exposition_text(serving_run):
    assert serving_run["scrapes"], "run finished before a single scrape"
    for body in serving_run["scrapes"]:
        samples = _parse_prometheus(body)  # every line parses
        names = dict(samples)
        assert names["repro_live_up"] == 1.0
        assert any(name.startswith("repro_live_fragment_throughput")
                   for name, _ in samples)
        assert any(name.startswith("repro_live_queue_depth_tuples")
                   for name, _ in samples)


def test_midflight_stall_series_sum_exactly_to_stall_time(serving_run):
    saw_nonzero = False
    for body in serving_run["scrapes"]:
        total = None
        causes = []
        for name, value in _parse_prometheus(body):
            if name == "repro_live_stall_time_seconds":
                total = value
            elif name.startswith("repro_live_stall_seconds_total"):
                causes.append(value)
        assert total is not None
        assert sum(causes) == total  # exact, not approx: order is pinned
        saw_nonzero = saw_nonzero or total > 0
    assert saw_nonzero, "slowed source never produced an attributed stall"


def test_healthz_reports_progressing_snapshots(serving_run):
    healths = serving_run["healths"]
    assert healths and all(h["status"] == "ok" for h in healths)
    assert healths[-1]["snapshots"] >= healths[0]["snapshots"] >= 1


def test_stream_first_event_is_a_complete_snapshot(serving_run):
    events = serving_run["stream_events"]
    assert events, "SSE stream delivered no events"
    event = events[0]
    assert event["strategy"] == "DSE"
    assert {"now", "fragments", "queues", "stalls",
            "stall_time", "memory", "seq"} <= set(event)


def test_stream_events_advance_monotonically(serving_run):
    """Each SSE event is a newer snapshot: strictly increasing seq and
    non-decreasing simulated time and batch counts."""
    events = serving_run["stream_events"]
    assert len(events) >= 2, "stream closed after a single event"
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(set(seqs)), f"seq not strictly increasing: {seqs}"
    for earlier, later in zip(events, events[1:]):
        assert later["now"] >= earlier["now"]
        assert later["batches"] >= earlier["batches"]


def test_top_replay_renders_the_recorded_flight_dump(serving_run, capsys):
    """`repro top --replay` over the dump recorded from the live run
    above renders the embedded final snapshot without any server."""
    from repro.cli import main

    assert main(["top", "--replay", str(serving_run["dump_path"])]) == 0
    out = capsys.readouterr().out
    assert "DSE" in out
    assert "memory [" in out
    # The replayed snapshot is the run's last sampler tick, so it shows
    # real progress from the recorded run.
    event = serving_run["stream_events"][0]
    header = out.splitlines()[0]
    assert "t=" in header and "batches" in header
    assert event["seq"] >= 1


def test_recorded_dump_roundtrips_through_the_loader(serving_run):
    from repro.observability.flight import load_flight_dump

    dump = load_flight_dump(serving_run["dump_path"])
    assert dump["reason"] == "post-run test dump"
    assert dump["entries"], "armed recorder captured no entries"
    assert dump["snapshot"] is not None
    times = [entry.time for entry in dump["entries"]]
    assert times == sorted(times)


def test_serving_run_still_returns_a_normal_result(serving_run):
    result = serving_run["result"]
    assert result.result_tuples > 0
    assert result.metrics is not None
    assert result.samples, "wall-clock sampler collected nothing"


def test_snapshot_stalls_are_name_sorted():
    """build_live_snapshot pins the cause order so document-order
    re-summation of the exported series reproduces the total exactly."""

    class _Stalls:
        def by_cause(self):
            return {"timeout": 0.2, "source-wait:A": 0.1, "memory-wait": 0.3}

    class _Telemetry:
        stalls = _Stalls()
        audit = []
        samples = []

    class _Memory:
        used_bytes = total_bytes = peak_bytes = 0

    class _CM:
        queues = {}
        estimators = {}

    class _Sim:
        now = 1.0

    class _World:
        sim = _Sim()
        telemetry = _Telemetry()
        memory = _Memory()
        cm = _CM()

    class _Runtime:
        fragments = {}
        result_tuples = 0

    class _Processor:
        batches_processed = 0
        context_switches = 0

    snapshot = build_live_snapshot(_World(), _Runtime(), _Processor(), "DSE")
    assert list(snapshot["stalls"]) == sorted(snapshot["stalls"])
    assert snapshot["stall_time"] == sum(snapshot["stalls"].values())
