"""``repro top`` — a terminal dashboard for a live run.

Connects to the SSE ``/stream`` endpoint of a serving live run
(``repro live --serve PORT``) and redraws a compact dashboard on every
published snapshot: run clock and result progress, the memory budget
bar, per-fragment throughput, source queue depths, and the live
stall-attribution breakdown.

The drawing pipeline is deliberately split so it can be tested without
a terminal:

* :func:`render_top` — pure ``snapshot dict -> list[str]``;
* :func:`stream_snapshots` — a generator of snapshot dicts from an SSE
  socket (plain :mod:`http.client`, no dependencies);
* :func:`run_top` — the curses loop gluing the two together
  (:mod:`curses` is imported lazily so headless platforms can still use
  ``--once`` / ``--replay``).

``--replay DUMP`` renders the final snapshot embedded in a
flight-recorder dump instead of connecting anywhere — the post-mortem
twin of the live view.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError

#: reconnect backoff: first retry delay, cap, and consecutive-failure
#: budget before `repro watch` / `repro top` give up for real.
RECONNECT_BACKOFF_S = 0.5
RECONNECT_MAX_BACKOFF_S = 8.0
RECONNECT_MAX_FAILURES = 6

#: how long each redraw waits for a 'q' keypress: the dashboard
#: redraws at most every 0.5 s however fast snapshots arrive.
_KEY_POLL_MS = 500

#: glyphs for the memory bar; ASCII so any terminal renders it.
_BAR_FILL = "#"
_BAR_EMPTY = "-"


def _bar(fraction: float, width: int) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return _BAR_FILL * filled + _BAR_EMPTY * (width - filled)


def _fmt_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    return f"{value:,.0f}"


def _fmt_mb(value: Optional[float]) -> str:
    """A byte figure in MB; ``-`` before the process reported one."""
    return "-" if value is None else f"{value / 1e6:.1f}MB"


def render_top(snapshot: Optional[Dict[str, Any]], width: int = 80) -> List[str]:
    """Render one snapshot as fixed-width text lines (pure function).

    Dispatches on the snapshot's ``kind``: a multi-tenant service
    snapshot (``repro serve``) gets the fleet view, anything else the
    single-query view — so ``repro top --connect`` works against both
    a serving live run and the always-on daemon.
    """
    if snapshot is None:
        return ["repro top — waiting for first snapshot..."]
    if snapshot.get("kind") == "service":
        return render_service_top(snapshot, width)
    lines: List[str] = []
    header = (f"repro top — {snapshot['strategy']}  "
              f"t={snapshot['now']:.2f}s  "
              f"tuples={_fmt_count(snapshot['result_tuples'])}  "
              f"batches={_fmt_count(snapshot['batches'])}  "
              f"decisions={snapshot['decisions']}")
    lines.append(header[:width])

    memory = snapshot["memory"]
    total = memory["total"] or 1
    used_frac = memory["used"] / total
    bar_width = max(10, width - 46)
    lines.append(f"memory [{_bar(used_frac, bar_width)}] "
                 f"{memory['used'] / 1e6:6.1f}/{total / 1e6:.1f} MB "
                 f"(peak {memory['peak'] / 1e6:.1f})"[:width])

    stall_time = snapshot["stall_time"]
    stalls = sorted(snapshot["stalls"].items(), key=lambda kv: -kv[1])
    stall_text = "  ".join(f"{cause}={seconds:.2f}s"
                           for cause, seconds in stalls[:4]) or "none"
    lines.append(f"stalls {stall_time:8.2f}s total  {stall_text}"[:width])
    lines.append("")

    lines.append(f"{'FRAGMENT':<18} {'KIND':<5} {'STATUS':<8} "
                 f"{'IN':>9} {'OUT':>9} {'BATCH':>7} {'TUP/S':>10}"[:width])
    fragments = sorted(snapshot["fragments"],
                       key=lambda f: (-f["throughput"], f["name"]))
    for fragment in fragments:
        lines.append(
            f"{fragment['name']:<18.18} {fragment['kind']:<5} "
            f"{fragment['status']:<8} {_fmt_count(fragment['tuples_in']):>9} "
            f"{_fmt_count(fragment['tuples_out']):>9} "
            f"{_fmt_count(fragment['batches']):>7} "
            f"{fragment['throughput']:>10.1f}"[:width])
    lines.append("")

    lines.append(f"{'SOURCE':<18} {'QUEUED':>9} {'MSGS':>6} {'RATE':>10}"[:width])
    for source, queue in sorted(snapshot["queues"].items()):
        lines.append(f"{source:<18.18} {_fmt_count(queue['tuples']):>9} "
                     f"{queue['messages']:>6} {queue['rate']:>10.1f}"[:width])
    return lines


def render_service_top(snapshot: Dict[str, Any],
                       width: int = 80) -> List[str]:
    """The multi-tenant fleet view of one service snapshot."""
    lines: List[str] = []
    state = "DRAINING" if snapshot["draining"] else "serving"
    header = (f"repro top — service ({state})  "
              f"up={snapshot['now']:.1f}s  "
              f"active={snapshot['active']}  "
              f"queued={snapshot['admission_queued']}  "
              f"done={_fmt_count(snapshot['completed'])}  "
              f"failed={snapshot['failed']}  "
              f"rejected={snapshot['rejected']}")
    lines.append(header[:width])

    latency = snapshot["latency"]
    lines.append(
        f"latency p50={latency['p50_s'] * 1e3:.1f}ms "
        f"p95={latency['p95_s'] * 1e3:.1f}ms "
        f"p99={latency['p99_s'] * 1e3:.1f}ms  "
        f"rate={latency.get('throughput_qps', 0.0):.1f} q/s  "
        f"batches={_fmt_count(snapshot['batches'])}"[:width])

    pool = snapshot["pool"]
    if pool["total"]:
        bar_width = max(10, width - 48)
        leased_frac = pool["leased"] / pool["total"]
        lines.append(f"pool   [{_bar(leased_frac, bar_width)}] "
                     f"{pool['leased'] / 1e6:6.1f}/"
                     f"{pool['total'] / 1e6:.1f} MB "
                     f"({pool['active_leases']} leases)"[:width])
    else:
        lines.append(f"pool   unbounded "
                     f"({pool['active_leases']} leases, "
                     f"{pool['leased'] / 1e6:.1f} MB leased)"[:width])

    stalls = sorted(snapshot["stalls"].items(), key=lambda kv: -kv[1])
    stall_text = "  ".join(f"{cause}={seconds:.2f}s"
                           for cause, seconds in stalls[:4]) or "none"
    lines.append(f"stalls {stall_text}"[:width])
    rss = snapshot.get("peak_rss_bytes")
    if rss is not None:
        lines.append(f"rss    coordinator peak {_fmt_mb(rss)}"[:width])
    lines.append("")

    workers = snapshot.get("workers") or []
    if workers:
        up = sum(1 for row in workers if row["state"] == "up")
        lines.append(f"{'WORKER':<8} {'STATE':<6} {'ACTIVE':>7} "
                     f"{'QUEUED':>7} {'DONE':>8} {'STEALS':>7} "
                     f"{'RESTARTS':>9} {'PEAK RSS':>9}   "
                     f"fleet {up}/{len(workers)} up, "
                     f"{snapshot.get('steals', 0)} steals"[:width])
        for row in workers:
            lines.append(
                f"{row['id']:<8} {row['state']:<6} {row['active']:>7} "
                f"{row['queued']:>7} {_fmt_count(row['completed']):>8} "
                f"{row['steals']:>7} {row['restarts']:>9} "
                f"{_fmt_mb(row.get('peak_rss_bytes')):>9}"[:width])
        lines.append("")

    lines.append(f"{'TENANT':<14} {'PRI':>5} {'FLIGHT':>7} {'DONE':>8} "
                 f"{'FAIL':>5} {'REJ':>5} {'WAIT':>9} {'LATENCY':>9} "
                 f"{'SLO':>7}"[:width])
    for tenant in snapshot["tenants"]:
        lines.append(
            f"{tenant['name']:<14.14} {tenant['priority']:>5.1f} "
            f"{tenant['in_flight']:>7} {_fmt_count(tenant['completed']):>8} "
            f"{tenant['failed']:>5} {tenant['rejected']:>5} "
            f"{tenant['mean_wait_s'] * 1e3:>7.1f}ms "
            f"{tenant['mean_latency_s'] * 1e3:>7.1f}ms "
            f"{_tenant_slo_status(snapshot, tenant['name']):>7}"[:width])
    lines.append("")

    lines.append(f"{'QUERY':<12} {'TENANT':<12} {'STRAT':<7} "
                 f"{'STATE':<8} {'WAIT':>9} {'AGE':>9}"[:width])
    rows = list(snapshot["queries"]) + list(snapshot["recent"])
    for record in rows[:12]:
        lines.append(
            f"{record['id']:<12.12} {record['tenant']:<12.12} "
            f"{record['strategy']:<7.7} {record['state']:<8} "
            f"{record['admission_wait'] * 1e3:>7.1f}ms "
            f"{record['latency_s'] * 1e3:>7.1f}ms"[:width])
    return lines


def worker_transitions(previous: Optional[Dict[str, Any]],
                       current: Dict[str, Any]) -> List[str]:
    """Fleet changes between two service snapshots, as notice lines.

    Pure and deterministic (``repro watch`` prints these to stderr):
    a worker whose state flipped yields ``worker N down``/``worker N
    up``; a restart counter that advanced yields a respawn notice even
    when the down/up flip happened between two publishes.
    """
    notices: List[str] = []
    before = {row["id"]: row
              for row in (previous or {}).get("workers") or []}
    for row in current.get("workers") or []:
        prior = before.get(row["id"])
        if prior is None:
            continue
        restarted = row["restarts"] - prior["restarts"]
        if restarted > 0:
            notices.append(
                f"worker {row['id']} died and was respawned "
                f"(restarts {row['restarts']}, now {row['state']})")
        elif row["state"] != prior["state"]:
            notices.append(f"worker {row['id']} {row['state']}")
    return notices


def _tenant_slo_status(snapshot: Dict[str, Any], name: str) -> str:
    """The SLO column cell: FIRING, worst compliance %, or ``-``.

    Objectives declared for ``*`` cover every tenant; a tenant with no
    covering objective shows ``-``.
    """
    objectives = [o for o in (snapshot.get("slo") or [])
                  if o.get("tenant") in (name, "*")]
    if not objectives:
        return "-"
    if any(o.get("alerting") for o in objectives):
        return "FIRING"
    worst = min(float(o.get("compliance", 1.0)) for o in objectives)
    return f"{worst * 100:.2f}%"


def _parse_endpoint(endpoint: str) -> Tuple[str, int]:
    # Accept a full URL (`http://host:port[/...]`, as printed by
    # `repro serve`) as well as the bare HOST:PORT form.
    if "//" in endpoint:
        endpoint = endpoint.split("//", 1)[1]
    endpoint = endpoint.split("/", 1)[0]
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ConfigurationError(
            f"expected HOST:PORT to connect to, got {endpoint!r}")
    return (host or "127.0.0.1", int(port))


def open_connection(endpoint: str,
                    timeout: float = 10.0) -> http.client.HTTPConnection:
    """A keep-alive connection to a serving run or daemon (lazy: nothing
    is sent, and nothing can fail to connect, before the first request)."""
    host, port = _parse_endpoint(endpoint)
    return http.client.HTTPConnection(host, port, timeout=timeout)


def request_json(conn: http.client.HTTPConnection, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, Dict[str, Any]]:
    """One JSON request/response on ``conn``: ``(status, body)``.

    A body that is not a JSON object (the plain-text 404) comes back as
    ``{"error": text}`` so callers print one shape.
    """
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body,
                 {"Content-Type": "application/json"} if body else {})
    response = conn.getresponse()
    text = response.read().decode("utf-8", errors="replace")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if not isinstance(data, dict):
        data = {"error": text.strip() or f"HTTP {response.status}"}
    return response.status, data


class StreamStatus:
    """Out-of-band status of one :func:`stream_snapshots` pass.

    A server that finishes sends ``event: end`` before closing; a server
    that died (restart, SIGKILL) just drops the TCP stream.  The
    generator return value can't distinguish the two, so callers that
    want to reconnect pass a status object and check :attr:`ended`.
    """

    def __init__(self) -> None:
        #: the server sent the explicit ``event: end`` marker.
        self.ended = False
        #: frames yielded during this connection.
        self.frames = 0


def stream_snapshots(endpoint: str, timeout: float = 10.0,
                     status: Optional[StreamStatus] = None
                     ) -> Iterator[Dict[str, Any]]:
    """Yield snapshot dicts from a live run's SSE ``/stream`` endpoint.

    Ends cleanly when the run finishes (the server sends ``event: end``
    and closes).  Raises :class:`ConfigurationError` when nothing is
    listening at ``endpoint``.  SLO alert frames arrive interleaved with
    snapshots (``kind: alert``); callers filter on ``kind``.
    """
    conn = open_connection(endpoint, timeout)
    try:
        conn.request("GET", "/stream", headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        if response.status != 200:
            raise ConfigurationError(
                f"{endpoint}/stream answered HTTP {response.status}")
        ended = False
        for raw in response:
            line = raw.decode("utf-8", errors="replace").rstrip("\n\r")
            if line.startswith("event:") and line.split(":", 1)[1].strip() == "end":
                ended = True
                if status is not None:
                    status.ended = True
            elif line.startswith("data:") and not ended:
                if status is not None:
                    status.frames += 1
                yield json.loads(line.split(":", 1)[1].strip())
            elif ended and not line:
                return
    except (ConnectionError, OSError) as exc:
        raise ConfigurationError(
            f"cannot stream from {endpoint}: {exc} "
            f"(is `repro live --serve` or `repro serve` running?)")
    finally:
        conn.close()


def stream_snapshots_reconnect(
        endpoint: str, timeout: float = 10.0,
        backoff_s: float = RECONNECT_BACKOFF_S,
        max_backoff_s: float = RECONNECT_MAX_BACKOFF_S,
        max_failures: int = RECONNECT_MAX_FAILURES,
        on_reconnect: Optional[Callable[[float, int], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        fail_fast: bool = False,
        _stream: Callable[..., Iterator[Dict[str, Any]]] = stream_snapshots,
        ) -> Iterator[Dict[str, Any]]:
    """:func:`stream_snapshots` with capped-exponential-backoff reconnect.

    A dropped connection (service restart, network blip) re-attaches
    instead of killing the dashboard: the delay starts at ``backoff_s``
    and doubles up to ``max_backoff_s``; any successfully received frame
    resets it.  Only a server-sent ``event: end`` ends the stream
    cleanly; ``max_failures`` *consecutive* dead connections re-raise
    the last error.  With ``fail_fast``, a connection that dies before
    the stream *ever* produced a frame raises immediately — the CLI
    uses this so a typo'd endpoint is one crisp error, not a silent
    20-second retry loop (a server that was once up still reconnects).
    ``on_reconnect(delay, attempt)`` is called before each sleep (the
    CLI prints a notice there); ``sleep`` and ``_stream`` are
    injectable so tests run without a clock or socket.
    """
    delay = backoff_s
    failures = 0
    connected = False
    while True:
        status = StreamStatus()
        error: Optional[ConfigurationError] = None
        try:
            for snapshot in _stream(endpoint, timeout, status):
                if status.frames == 1:
                    connected = True
                    failures = 0
                    delay = backoff_s
                yield snapshot
        except ConfigurationError as exc:
            error = exc
        if status.ended:
            return
        failures += 1
        if (fail_fast and not connected) or failures > max_failures:
            if error is not None:
                raise error
            raise ConfigurationError(
                f"stream from {endpoint} dropped {failures} times in a "
                f"row; giving up")
        if on_reconnect is not None:
            on_reconnect(delay, failures)
        sleep(delay)
        delay = min(delay * 2, max_backoff_s)


def replay_snapshot(dump_path: str) -> Optional[Dict[str, Any]]:
    """The final live snapshot embedded in a flight-recorder dump."""
    from repro.observability.flight import load_flight_dump

    dump = load_flight_dump(dump_path)
    return dump.get("snapshot")


def run_top(endpoint: str) -> int:
    """The interactive curses loop ('q' quits). Returns an exit code."""
    import curses

    def _loop(screen: Any) -> None:
        curses.curs_set(0)
        screen.nodelay(True)
        screen.timeout(_KEY_POLL_MS)
        last_alert: Optional[Dict[str, Any]] = None
        # fail_fast: a dashboard pointed at a dead endpoint should say
        # so immediately, not spin through the whole backoff ladder.
        for snapshot in stream_snapshots_reconnect(endpoint,
                                                   fail_fast=True):
            if snapshot.get("kind") == "alert":
                # Alerts arrive between snapshots; remember the newest
                # and show it with the next redraw instead of tearing
                # the layout apart mid-frame.
                last_alert = snapshot
                continue
            height, width = screen.getmaxyx()
            screen.erase()
            lines = render_top(snapshot, width - 1)
            if last_alert is not None:
                lines.append(
                    f"alert  {last_alert.get('state', '?')} "
                    f"{last_alert.get('objective', '?')} "
                    f"[{last_alert.get('window', '?')}] "
                    f"burn={last_alert.get('burn_rate', 0.0):.1f}"[:width - 1])
            for row, line in enumerate(lines):
                if row >= height - 1:
                    break
                screen.addstr(row, 0, line)
            screen.refresh()
            if screen.getch() in (ord("q"), ord("Q")):
                return

    curses.wrapper(_loop)
    return 0
