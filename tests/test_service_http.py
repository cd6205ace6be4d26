"""The daemon's HTTP front door and the graceful SIGTERM drain.

Two layers:

* an in-process :class:`~repro.service.http.ServiceServer` exercised
  over real sockets — submit (202/400/429/503), healthz, metrics,
  submissions, the SSE stream;
* a subprocess ``repro serve`` sent a real SIGTERM mid-flight — the
  acceptance shape for graceful drain: in-flight submissions finish,
  new ones get 503, the flight recorder and span log land on disk, and
  the daemon exits 0.
"""

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resources import TenantSpec
from repro.service import QueryService, ServiceServer, SubmissionRequest

FAST = dict(scale=0.0005, wait_us=20.0, memory_bytes=1 << 20)


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload,
                     {"Content-Type": "application/json"}
                     if payload else {})
        response = conn.getresponse()
        raw = response.read().decode("utf-8")
        try:
            return response.status, json.loads(raw)
        except json.JSONDecodeError:
            return response.status, raw
    finally:
        conn.close()


def _raw_request(port, head):
    """Send raw request bytes; the status and JSON body of the answer."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        answer = b""
        while chunk := sock.recv(65536):    # the server closes after a 400
            answer += chunk
    headers, _, body = answer.partition(b"\r\n\r\n")
    return int(headers.split()[1]), body.decode("utf-8")


@pytest.fixture(scope="module")
def http_session(tmp_path_factory):
    """One served service session; every HTTP interaction collected."""
    out = {}
    archive_dir = tmp_path_factory.mktemp("http-archive")
    out["archive_dir"] = archive_dir

    async def scenario():
        from repro.service import parse_slo_specs

        service = QueryService(
            seed=3, global_memory_bytes=4 << 20,
            tenants=[TenantSpec("vip", priority=1.0),
                     TenantSpec("capped", memory_limit_bytes=1024)],
            publish_interval_s=0.05, archive_dir=archive_dir,
            slos=parse_slo_specs(["vip:p99<=60s@99%"]))
        await service.start()
        server = await ServiceServer(service).start()
        loop = asyncio.get_running_loop()

        def client_side():
            port = server.port
            out["submit"] = _request(port, "POST", "/submit",
                                     dict(FAST, tenant="vip"))
            out["bad_json"] = _request(port, "POST", "/submit", "nonsense")
            out["bad_field"] = _request(port, "POST", "/submit",
                                        {"bogus": 1})
            out["quota"] = _request(port, "POST", "/submit",
                                    dict(FAST, tenant="capped"))
            # Headers only: the server must answer from the length alone
            # (an oversized body is refused unread).
            for name, length in (("bad_length", "abc"),
                                 ("negative_length", "-1"),
                                 ("oversized_body", str(64 * 1024 + 1))):
                out[name] = _raw_request(
                    port, f"POST /submit HTTP/1.1\r\nHost: test\r\n"
                          f"Content-Length: {length}\r\n\r\n".encode())
            # A head over the 64 KiB bound is refused, not buffered.
            out["oversized_head"] = _raw_request(
                port, f"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                      f"X-Pad: {'a' * (70 << 10)}\r\n\r\n".encode())
            out["not_found"] = _request(port, "GET", "/submissions/s-999999")
            out["unknown"] = _request(port, "GET", "/nope")
            submission_id = out["submit"][1]["id"]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                status, record = _request(port, "GET",
                                          f"/submissions/{submission_id}")
                assert status == 200
                if record["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            out["record"] = record
            # Let a publish tick fold the completion into the snapshot.
            time.sleep(0.15)
            out["healthz"] = _request(port, "GET", "/healthz")
            out["slo"] = _request(port, "GET", "/slo")
            out["metrics"] = _request(port, "GET", "/metrics")
            out["submissions"] = _request(port, "GET", "/submissions")
            _request(port, "POST", "/drain")
            out["post_drain_submit"] = _request(port, "POST", "/submit",
                                                dict(FAST, tenant="vip"))

        def read_stream():
            # Runs concurrently with stop(): the end marker only arrives
            # once the publisher closes during the service's shutdown.
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=10)
            conn.request("GET", "/stream",
                         headers={"Accept": "text/event-stream"})
            response = conn.getresponse()
            assert response.status == 200
            frames, saw_end = [], False
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("data:"):
                    frames.append(json.loads(line.split(":", 1)[1]))
                elif line.startswith("event:") and "end" in line:
                    saw_end = True
                    break
            conn.close()
            out["frames"], out["saw_end"] = frames, saw_end

        stream_task = None
        try:
            await loop.run_in_executor(None, client_side)
            stream_task = loop.run_in_executor(None, read_stream)
            await service.wait_drained()
            await service.stop()
            await stream_task
            stream_task = None
        finally:
            if stream_task is not None:
                await service.stop()
                await stream_task
            await server.stop()

    asyncio.run(scenario())
    return out


def test_submit_is_accepted_with_an_id(http_session):
    status, body = http_session["submit"]
    assert status == 202
    assert re.fullmatch(r"s-\d{6}", body["id"])
    assert body["tenant"] == "vip"


def test_submission_record_is_queryable_until_done(http_session):
    record = http_session["record"]
    assert record["state"] == "done", record
    assert record["outcome"]["result_tuples"] > 0
    assert record["latency_s"] > 0


def test_malformed_bodies_get_400(http_session):
    assert http_session["bad_json"][0] == 400
    assert http_session["bad_field"][0] == 400
    assert "unknown submission field" in http_session["bad_field"][1]["error"]
    for name in ("bad_length", "negative_length", "oversized_body"):
        status, body = http_session[name]
        assert status == 400, (name, status, body)
        assert body.count("\n") == 1 and body.endswith("\n")
        assert "Content-Length" in json.loads(body)["error"]
    status, body = http_session["oversized_head"]
    assert status == 400
    assert "request head over 65536 bytes" in json.loads(body)["error"]


def test_quota_exhaustion_gets_429_with_the_tenant(http_session):
    status, body = http_session["quota"]
    assert status == 429
    assert body["tenant"] == "capped"


def test_unknown_paths_and_ids_get_404(http_session):
    assert http_session["not_found"][0] == 404
    assert http_session["unknown"][0] == 404


def test_healthz_and_metrics_reflect_the_session(http_session):
    status, health = http_session["healthz"]
    assert status == 200 and health["status"] == "ok"
    assert health["snapshots"] >= 1
    status, text = http_session["metrics"]
    assert status == 200
    assert "repro_service_up 1.0" in text
    assert 'repro_service_tenant_completed_total{tenant="vip"} 1.0' in text


def test_healthz_reports_uptime_drain_state_and_archive(http_session):
    _status, health = http_session["healthz"]
    assert health["uptime_s"] >= 0.0
    assert health["state"] == "serving"
    assert health["draining"] is False
    assert health["alerts"] == 0
    archive = health["archive"]
    assert archive["directory"] == str(http_session["archive_dir"])
    assert archive["segments"] >= 1          # the active segment exists
    assert archive["dropped_total"] == 0
    assert archive["records_written"] >= 1   # the finished submission
    assert archive["last_write_age_s"] is not None


def test_slo_endpoint_reports_the_declared_objective(http_session):
    status, body = http_session["slo"]
    assert status == 200
    assert body["alerts"] == 0
    objectives = {o["objective"]: o for o in body["objectives"]}
    assert set(objectives) == {"vip:p99<=60s@99%"}
    status = objectives["vip:p99<=60s@99%"]
    assert status["events"] >= 1             # the completed submission
    assert status["bad"] == 0
    assert status["alerting"] is False
    assert set(status["windows"]) == {"fast", "slow"}


def test_archive_replays_the_session_outcomes(http_session):
    from repro.service import load_outcomes

    records, reader = load_outcomes(http_session["archive_dir"])
    assert reader.skipped_lines == 0
    finished_id = http_session["record"]["id"]
    assert finished_id in [r["id"] for r in records]
    assert all(r["tenant"] == "vip" for r in records)


def test_submissions_listing_has_the_finished_record(http_session):
    status, listing = http_session["submissions"]
    assert status == 200
    submission_id = http_session["submit"][1]["id"]
    assert submission_id in [r["id"] for r in listing["recent"]]


def test_submit_during_drain_gets_503(http_session):
    status, body = http_session["post_drain_submit"]
    assert status == 503
    assert "draining" in body["error"]


def test_stream_delivers_service_frames_then_ends(http_session):
    assert http_session["frames"], "SSE stream delivered no frames"
    frame = http_session["frames"][0]
    assert frame["kind"] == "service"
    assert {"version", "latency", "tenants", "pool"} <= set(frame)
    assert http_session["saw_end"], "stream never sent the end marker"


# --------------------------------------------------------------------------
# One loop serves everyone: a stalled client, a keep-alive connection
# --------------------------------------------------------------------------

async def _ask(reader, writer, method, path, body=None):
    """One request on an open keep-alive connection: (status, JSON)."""
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                 f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    return int(head.split()[1]), json.loads(await reader.readexactly(length))


async def _sse_frame(reader):
    """The next SSE frame's ``data`` object."""
    frame = await asyncio.wait_for(reader.readuntil(b"\n\n"), 10.0)
    return json.loads(frame.split(b"data: ", 1)[1])


def test_a_stalled_stream_client_holds_back_nothing_else():
    """A ``/stream`` client that never reads while 200 frames of 64 KiB
    (13 MB) fan out: ``/healthz`` and ``/submit`` on another connection
    still answer, a second subscriber gets every frame in order, only
    the stalled subscription drops (and keeps dropping once the socket
    buffers are full, at most 4 MB here), and its queue and its
    connection's write buffer stay bounded."""
    import socket

    pad = "x" * (64 << 10)
    out = {"answers": [], "frames": [], "dropped": []}

    async def scenario():
        service = QueryService(seed=3, global_memory_bytes=4 << 20,
                               publish_interval_s=3600.0)
        await service.start()
        server = await ServiceServer(service).start()
        publisher = service.publisher
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            stalled.connect(("127.0.0.1", server.port))
            stalled.sendall(b"GET /stream HTTP/1.1\r\nHost: test\r\n\r\n")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=1 << 20)
            writer.write(b"GET /stream HTTP/1.1\r\nHost: test\r\n\r\n")
            await reader.readuntil(b"\r\n\r\n")
            assert (await _sse_frame(reader))["kind"] == "service"
            while len(publisher._subscriptions) < 2:
                await asyncio.sleep(0.01)
            ask = await asyncio.open_connection("127.0.0.1", server.port)
            for index in range(200):
                publisher.publish_event({"kind": "flood", "index": index,
                                         "pad": pad})
                out["frames"].append((await _sse_frame(reader))["index"])
                if index % 50 == 49:
                    out["answers"].append(await _ask(*ask, "GET",
                                                     "/healthz"))
                    out["answers"].append(await _ask(
                        *ask, "POST", "/submit", dict(FAST, tenant="t")))
                    out["dropped"].append(publisher.dropped_total)
            subscriptions = list(publisher._subscriptions)
            out["queued"] = [len(s._frames) for s in subscriptions]
            out["shed"] = sorted(s.dropped for s in subscriptions)
            out["buffered"] = [
                w.transport.get_write_buffer_size()
                for w in server._connections.values()]
            for connection in (writer, ask[1]):
                connection.close()
        finally:
            stalled.close()
            await service.stop()
            await server.stop()

    asyncio.run(scenario())
    assert out["frames"] == list(range(200))       # in order, none lost
    assert [status for status, _body in out["answers"]] == [200, 202] * 4
    dropped = out["dropped"]
    assert dropped == sorted(dropped)
    assert 0 < dropped[-2] < dropped[-1]            # it keeps dropping
    assert out["shed"] == [0, dropped[-1]]
    assert max(out["queued"]) <= 8
    # The transport's 64 KiB high-water mark plus the frame that crossed it.
    assert max(out["buffered"]) <= 2 * len(pad) + 4096


def test_keep_alive_requests_leave_nothing_to_the_cyclic_collector(
        assert_no_cyclic_garbage):
    """200 requests on one keep-alive connection (``/submit`` plus
    ``/submissions/ID`` polls until each is done) are freed by reference
    count.  (On CPython 3.11 an asyncio socket transport is a reference
    cycle of its own: one per connection, opened before the count.)"""
    loop = asyncio.new_event_loop()
    service = QueryService(seed=3, global_memory_bytes=4 << 20,
                           publish_interval_s=3600.0)
    server = ServiceServer(service)

    async def open_():
        await service.start()
        await server.start()
        return await asyncio.open_connection("127.0.0.1", server.port)

    async def requests(count):
        sent = 0
        while sent < count:
            status, body = await _ask(*connection, "POST", "/submit",
                                      dict(FAST, tenant="t"))
            sent += 1
            assert status == 202, body
            while sent < count:
                status, record = await _ask(*connection, "GET",
                                            f"/submissions/{body['id']}")
                sent += 1
                assert status == 200, record
                if record["state"] == "done":
                    break
                await asyncio.sleep(0.001)

    try:
        connection = loop.run_until_complete(open_())
        loop.run_until_complete(requests(20))       # warm-up
        assert_no_cyclic_garbage(
            lambda: loop.run_until_complete(requests(200)))
        connection[1].close()
        loop.run_until_complete(service.stop())
        loop.run_until_complete(server.stop())
    finally:
        loop.close()


# --------------------------------------------------------------------------
# Graceful SIGTERM drain, end to end (a real `repro serve` subprocess)
# --------------------------------------------------------------------------

def _spawn_daemon(*flags):
    """``repro serve --port 0 FLAGS`` as a subprocess, once its banner
    is out: ``(process, bound host, bound port)``."""
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=repo)
    for line in daemon.stdout:
        match = re.search(r"serving on http://(\S+):(\d+)", line)
        if match:
            return daemon, match.group(1), int(match.group(2))
    daemon.kill()
    output, _ = daemon.communicate()
    raise AssertionError(f"daemon never printed its address: {output}")


@pytest.mark.skipif(os.name == "nt", reason="POSIX signals")
def test_sigterm_drains_in_flight_work_and_flushes_recorders(
        tmp_path, capsys):
    flight = tmp_path / "flight.json"
    spans = tmp_path / "spans.json"
    archive_dir = tmp_path / "archive"
    daemon, _, port = _spawn_daemon(
        "--global-memory", "64M", "--tenant", "gold:2",
        "--publish-interval", "0.1",
        "--archive-dir", str(archive_dir),
        "--slo", "gold:p99<=60s@99%",
        "--flight-dump", str(flight), "--span-dump", str(spans))
    try:

        # One slow-ish submission that will still be in flight at SIGTERM.
        status, body = _request(port, "POST", "/submit", {
            "tenant": "gold", "scale": 0.002, "wait_us": 2000.0,
            "memory_bytes": 1 << 20})
        assert status == 202, body

        daemon.send_signal(signal.SIGTERM)
        # The daemon keeps serving while draining: the in-flight query
        # finishes, but new submissions are refused with 503.  Wait for
        # the signal handler to land before probing.
        deadline = time.monotonic() + 10.0
        draining = False
        while time.monotonic() < deadline and not draining:
            try:
                status, health = _request(port, "GET", "/healthz")
                draining = status == 200 and health["draining"]
            except OSError:
                pass
            if not draining:
                time.sleep(0.05)
        assert draining, "daemon never reported draining after SIGTERM"
        refused = _request(port, "POST", "/submit",
                           dict(FAST, tenant="gold"))
        assert refused[0] == 503, refused

        stdout, _ = daemon.communicate(timeout=60.0)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()

    assert daemon.returncode == 0, stdout
    assert "SIGTERM: draining" in stdout
    summary = re.search(r"drained: (\d+) completed, (\d+) failed, "
                        r"(\d+) rejected", stdout)
    assert summary is not None, stdout
    completed, failed, rejected = map(int, summary.groups())
    assert completed == 1, stdout     # the in-flight query finished
    assert failed == 0, stdout
    assert rejected >= 1, stdout      # the 503'd submission

    dump = json.loads(flight.read_text())
    assert dump["reason"] == "drain"
    assert dump["snapshot"]["draining"] is True
    span_export = json.loads(spans.read_text())
    assert span_export["spans"], "span log flushed empty"

    # The SIGTERM drain flushed the durable archive: `repro history`
    # replays the completed outcome (with its SLO report) offline, from
    # the files alone -- the daemon is gone.
    from repro.cli import main

    assert main(["history", str(archive_dir), "--json", "--slo-report",
                 "--slo", "gold:p99<=60s@99%"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["skipped_lines"] == 0
    assert report["summary"]["completed"] == 1
    assert report["summary"]["tenants"]["gold"]["completed"] == 1
    (slo,) = report["slo"]
    assert slo["objective"] == "gold:p99<=60s@99%"
    assert slo["met"] is True


@pytest.mark.skipif(os.name == "nt", reason="POSIX signals")
def test_sigterm_drains_when_nobody_reads_the_output_any_more():
    """Whatever read the daemon's output has gone: its drain notice
    cannot be written (BrokenPipeError), and SIGTERM still drains and
    exits 0."""
    daemon, _, _ = _spawn_daemon()
    try:
        daemon.stdout.close()
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=10.0) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


@pytest.mark.skipif(os.name == "nt", reason="POSIX signals")
def test_serve_host_strict_tenants_and_submit_priority_take_effect(
        tmp_path, capsys):
    """``serve --host`` is the bound address; ``serve --strict-tenants``
    refuses an undeclared tenant, which ``repro submit`` reports as HTTP
    429 and exit 1; ``submit --priority`` reaches the archived outcome
    (over the tenant's own priority 2)."""
    from repro.cli import main
    from repro.service.history import load_outcomes

    archive_dir = tmp_path / "archive"
    # 127.0.0.2 is loopback too, and not the default host.
    daemon, host, port = _spawn_daemon(
        "--host", "127.0.0.2", "--strict-tenants", "--tenant", "gold:2",
        "--archive-dir", str(archive_dir))
    try:
        assert host == "127.0.0.2"
        endpoint = f"{host}:{port}"
        assert main(["submit", "--connect", endpoint, "--tenant", "nobody",
                     "--scale", "0.0005"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HTTP 429: ") and "strict" in err, err
        assert main(["submit", "--connect", endpoint, "--tenant", "gold",
                     "--priority", "3", "--scale", "0.0005",
                     "--wait-us", "20", "--memory", "1M", "--wait"]) == 0
        assert " done: " in capsys.readouterr().out
        daemon.send_signal(signal.SIGTERM)
        stdout, _ = daemon.communicate(timeout=60.0)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    assert daemon.returncode == 0, stdout
    assert "drained: 1 completed, 0 failed, 1 rejected" in stdout
    records, _ = load_outcomes(str(archive_dir))
    assert [(record["tenant"], record["priority"]) for record in records] \
        == [("gold", 3.0)]
