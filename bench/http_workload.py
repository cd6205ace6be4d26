"""``serve_http_pool``: the operator's path, end to end over HTTP.

``python -m repro serve --workers 2`` runs as a subprocess with the
default modelled machine, so the server tree mostly sleeps out modelled
delays.  The generator is an *open loop*: submission ``i`` is due at
``i / RATE`` seconds whatever the server does, and its latency runs from
that due time to the poll that first sees a terminal state — the same
``POST /submit`` + ``GET /submissions/ID`` protocol ``repro submit
--wait`` speaks.  Two threads, two keep-alive connections, stdlib
``http.client`` with default socket options: no ``TCP_NODELAY`` /
``TCP_QUICKACK``, so a server-side stall stays visible.

Everything about the server is observed from outside: HTTP answers,
``/proc/<pid>/stat`` CPU ticks and ``VmHWM`` of the process tree, the
exit code and the ``drained:`` line it prints.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostclock
from declared import (
    MAX_LATE_P99_MS,
    RunResult,
    median,
    per_layer_zeros,
    percentile,
)

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

RATE = 10.0
WORKERS = 2
SCALE = 0.0005
TENANTS = ("gold", "silver", "bronze")
REQUEST_TIMEOUT_S = 10.0
POLL_PAUSE_S = 0.010
#: how long after the last submission the poller may still wait.
SETTLE_TIMEOUT_S = 15.0
_TICK = os.sysconf("SC_CLK_TCK")
_HEADERS = {"Content-Type": "application/json"}


class HarnessError(RuntimeError):
    """The harness could not drive the server (not a program failure
    the run can count; the run is abandoned and the tree killed)."""


# -- /proc -----------------------------------------------------------------------

def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after the ")".
    return text[text.rindex(")") + 2:].split()


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant, from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items()
                    if parent == pid)
    return tree


def cpu_seconds(pid: int) -> float:
    """On-CPU seconds of every thread of ``pid``: the scheduler's exact
    nanoseconds (``schedstat``) where the kernel keeps them, else the
    tick-sampled ``utime + stime`` (which misjudges short bursts)."""
    exact = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as stat:
                exact += int(stat.read().split()[0])
        return exact / 1e9
    except (OSError, ValueError, IndexError):
        pass
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(match.group(1)) / 1024.0 if match else 0.0


# -- the server subprocess ---------------------------------------------------------

class Server:
    """One ``repro serve`` process tree in its own process group."""

    def __init__(self) -> None:
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.log = OUT / f"serve_{os.getpid()}.log"

    def start(self) -> None:
        """Spawn and wait for the first 200 from ``/healthz``."""
        OUT.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", str(WORKERS)]
        for priority, tenant in zip((2, 1, 0), TENANTS):
            command += ["--tenant", f"{tenant}:{priority}"]
        started = time.perf_counter()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=OUT, start_new_session=True)
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise HarnessError(
                    f"server exited {self.process.returncode} during "
                    f"start-up: {self.log.read_text()[-500:]}")
            if not self.port:
                match = re.search(r"serving on http://[^:]+:(\d+)",
                                  self.log.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port:
                try:
                    self.healthz()
                    return
                except (OSError, http.client.HTTPException):
                    pass
            time.sleep(0.005)
        raise HarnessError("server did not answer /healthz within 60 s")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def healthz(self) -> Dict[str, Any]:
        connection = self.connect()
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise http.client.HTTPException(
                    f"/healthz answered {response.status}")
            return json.loads(body)
        finally:
            connection.close()

    def drain(self, timeout: float = 30.0) -> int:
        """``POST /drain`` and wait for the exit code."""
        assert self.process is not None
        connection = self.connect()
        try:
            connection.request("POST", "/drain", body=b"{}",
                               headers=_HEADERS)
            connection.getresponse().read()
        finally:
            connection.close()
        return self.process.wait(timeout=timeout)

    def drained_line(self) -> Optional[Tuple[int, int, int]]:
        match = re.search(r"drained: (\d+) completed, (\d+) failed, "
                          r"(\d+) rejected", self.log.read_text())
        return tuple(map(int, match.groups())) if match else None  # type: ignore[return-value]

    def kill(self) -> None:
        """Kill the whole process group and wait until it is empty
        (idempotent; every exit path calls it)."""
        if self.process is None:
            return
        group = self.process.pid  # start_new_session made it the leader
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                break  # no member left, workers and tracker included
            self.process.poll()  # reap the leader
            time.sleep(0.01)
        self.process.wait()
        self.log.unlink(missing_ok=True)


def timed_start(server: Server, timer: hostclock.SectionTimer) -> float:
    """Spawn -> first 200 from ``/healthz`` at the reference host speed
    (three interpreters importing the program: CPU-bound)."""
    _ready, wall, _cpu, factor = timer.run(server.start)
    return wall * factor


# -- the open-loop generator -------------------------------------------------------

@dataclass
class Phase:
    """Client-side record of one open-loop phase."""

    submitted: int = 0
    #: id -> (tenant, due time) of submissions not yet seen terminal.
    outstanding: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    #: (tenant, due -> observed-terminal seconds, record) per completion.
    finished: List[Tuple[str, float, Dict[str, Any]]] = field(
        default_factory=list)
    late_s: List[float] = field(default_factory=list)
    submit_rtt_s: List[float] = field(default_factory=list)
    poll_rtt_s: List[float] = field(default_factory=list)
    non_2xx: int = 0
    #: transport errors and per-request timeouts.
    errors: int = 0
    spans: List[Dict[str, Any]] = field(default_factory=list)
    wall_s: float = 0.0
    #: host-speed samples, one after each submission.
    speeds: List[float] = field(default_factory=list)


def _request(connection: http.client.HTTPConnection, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, Any]:
    connection.request(method, path, body=body,
                       headers=_HEADERS if body is not None else {})
    response = connection.getresponse()
    return response.status, json.loads(response.read() or b"null")


def run_phase(server: Server, seed: int, first_index: int, count: int,
              keep_spans: bool) -> Phase:
    """``count`` submissions at ``RATE``/s on this thread's connection
    while a second thread polls every outstanding id on its own."""
    phase = Phase()
    lock = threading.Lock()
    submitting = threading.Event()
    submitting.set()
    settle_deadline = [float("inf")]

    def span(name: str, start: float, end: float, run: str) -> None:
        if keep_spans:
            phase.spans.append({"name": name, "start": start, "end": end,
                                "parent": None, "run": run})

    def poll() -> None:
        connection = server.connect()
        try:
            while True:
                with lock:
                    pending = list(phase.outstanding.items())
                if not pending and not submitting.is_set():
                    return
                if time.perf_counter() > settle_deadline[0]:
                    return
                for submission_id, (tenant, due) in pending:
                    asked = time.perf_counter()
                    try:
                        status, record = _request(
                            connection, "GET",
                            f"/submissions/{submission_id}")
                    except (OSError, http.client.HTTPException):
                        phase.errors += 1
                        connection.close()
                        connection = server.connect()
                        continue
                    seen = time.perf_counter()
                    phase.poll_rtt_s.append(seen - asked)
                    span("http.poll", asked, seen, submission_id)
                    if status != 200:
                        phase.non_2xx += 1
                        with lock:  # aged out: it can never be observed
                            del phase.outstanding[submission_id]
                    elif record["state"] in ("done", "failed"):
                        phase.finished.append((tenant, seen - due, record))
                        span("due-to-done", due, seen, submission_id)
                        with lock:
                            del phase.outstanding[submission_id]
                time.sleep(POLL_PAUSE_S)
        finally:
            connection.close()

    poller = threading.Thread(target=poll, name="bench-poller")
    connection = server.connect()
    started = time.perf_counter()
    poller.start()
    try:
        for offset in range(count):
            index = first_index + offset
            due = started + offset / RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            tenant = TENANTS[index % len(TENANTS)]
            body = json.dumps({
                "tenant": tenant, "strategy": "DSE", "scale": SCALE,
                "seed": seed + index, "wait_us": 50, "jitter": 1.0,
            }).encode()
            sent = time.perf_counter()
            phase.late_s.append(sent - due)
            phase.submitted += 1
            try:
                status, answer = _request(connection, "POST", "/submit",
                                          body)
            except (OSError, http.client.HTTPException):
                phase.errors += 1
                connection.close()
                connection = server.connect()
                continue
            answered = time.perf_counter()
            phase.submit_rtt_s.append(answered - sent)
            if status == 202:
                span("http.submit", sent, answered, answer["id"])
                with lock:
                    phase.outstanding[answer["id"]] = (tenant, due)
            else:
                phase.non_2xx += 1
            # This thread idles until the next due time; 10 ms of that
            # go to sampling the host speed the server tree's CPU
            # seconds are scaled by.
            phase.speeds.append(hostclock.speed())
    finally:
        settle_deadline[0] = time.perf_counter() + SETTLE_TIMEOUT_S
        submitting.clear()
        poller.join()
        connection.close()
    phase.wall_s = time.perf_counter() - started
    return phase


# -- the workload ---------------------------------------------------------------------

def _failures(phase: Phase, expected_tuples: int) -> int:
    """Submissions that did not end ``done`` with the right result: not
    accepted, errored, never seen terminal, failed, or wrong."""
    good = sum(1 for _t, _l, record in phase.finished
               if record["state"] == "done" and record["outcome"]
               and record["outcome"]["result_tuples"] == expected_tuples)
    return phase.submitted - good


def _tree_sample(server: Server) -> Dict[int, Tuple[float, float]]:
    assert server.process is not None
    return {pid: (cpu_seconds(pid), peak_rss_mb(pid))
            for pid in tree_pids(server.process.pid)}


def _closing_checks(server: Server, observed_done: int, submitted: int
                    ) -> List[str]:
    """``/healthz`` idle, clean drain, counters equal to what we saw."""
    problems = []
    health = server.healthz()
    deadline = time.perf_counter() + 3.0
    while health["active"] != 0 and time.perf_counter() < deadline:
        time.sleep(0.2)  # healthz reads the last published snapshot
        health = server.healthz()
    if health["active"] != 0:
        problems.append(f"serve_http_pool: /healthz shows "
                        f"{health['active']} active before drain")
    code = server.drain()
    if code != 0:
        problems.append(f"serve_http_pool: server exited {code}")
    line = server.drained_line()
    if line is None:
        problems.append("serve_http_pool: no 'drained:' line on exit")
    elif line != (observed_done, 0, 0) or sum(line) != submitted:
        problems.append(
            f"serve_http_pool: server drained {line[0]} completed / "
            f"{line[1]} failed / {line[2]} rejected; the client saw "
            f"{observed_done} done of {submitted} submitted")
    return problems


def measure(seed: int, seconds: float, setup_repeats: int,
            expected_tuples: int) -> RunResult:
    timer = hostclock.SectionTimer()
    server = Server()
    try:
        setup = [timed_start(server, timer)]
        before = _tree_sample(server)
        phase = run_phase(server, seed, 0, max(1, round(RATE * seconds)),
                          keep_spans=False)
        after = _tree_sample(server)
        failed = _failures(phase, expected_tuples)
        problems = _closing_checks(server, len(phase.finished),
                                   phase.submitted)
    finally:
        server.kill()
    for _ in range(setup_repeats - 1):  # more cold starts, drained again
        extra = Server()
        try:
            setup.append(timed_start(extra, timer))
            extra.drain()
        finally:
            extra.kill()
    latencies = [latency * 1e3 for _t, latency, _r in phase.finished]
    cpu = sum(after[pid][0] - before.get(pid, (0.0, 0.0))[0]
              for pid in after)
    speed = hostclock.mean_speed(phase.speeds)
    metrics = {
        "setup_s": median(setup),
        "capacity_qps": len(phase.finished) / phase.wall_s,
        # CPU seconds grow when the host slows (21.9 % spread over ten
        # runs unscaled), so they are reported at the reference speed;
        # the latencies are bounded by sleeps and stalls and stay as
        # the clock read them.
        "cpu_ms_per_query": cpu * speed / max(1, len(phase.finished)) * 1e3,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": sum(rss for _cpu, rss in after.values()),
    }
    late_p99 = percentile(phase.late_s, 0.99) * 1e3
    return RunResult(metrics, phase.submitted, failed, problems,
                     voids=_voids(late_p99), info={
                         "gen.late_p99_ms": round(late_p99, 3),
                         "host_speed": round(speed, 3),
                         "transport_errors": phase.errors,
                         "non_2xx": phase.non_2xx,
                         "server_processes": len(after),
                     })


def _voids(late_p99_ms: float) -> List[str]:
    if late_p99_ms > MAX_LATE_P99_MS:
        return [f"generator ran late: p99 {late_p99_ms:.1f} ms > "
                f"{MAX_LATE_P99_MS:g} ms behind its schedule"]
    return []


def trace(seed: int, seconds: float, expected_tuples: int
          ) -> Tuple[RunResult, List[Dict[str, Any]]]:
    """Client-side tracing only: the first half of the schedule keeps no
    spans (the reference), the second half records a span per submit,
    per poll and per due -> done interval.  Returns the spans too."""
    half = max(1, round(RATE * seconds / 2))
    server = Server()
    try:
        server.start()
        reference = run_phase(server, seed, 0, half, keep_spans=False)
        before = _tree_sample(server)
        own_cpu = time.process_time()
        phase = run_phase(server, seed, half, half, keep_spans=True)
        own_cpu = time.process_time() - own_cpu
        after = _tree_sample(server)
        health = server.healthz()
        failed = (_failures(reference, expected_tuples)
                  + _failures(phase, expected_tuples))
        problems = _closing_checks(
            server, len(reference.finished) + len(phase.finished),
            reference.submitted + phase.submitted)
        line = server.drained_line() or (0, 0, 0)
    finally:
        server.kill()

    done = max(1, len(phase.finished))
    latencies = [latency * 1e3 for _t, latency, _r in phase.finished]
    rtts = phase.submit_rtt_s + phase.poll_rtt_s
    assert server.process is not None
    coordinator = server.process.pid
    worker_pids = {row["pid"] for row in health["workers"]}

    def cpu_delta(pids: Any) -> float:
        return sum(after[pid][0] - before.get(pid, (0.0, 0.0))[0]
                   for pid in pids if pid in after)

    completed = [row["completed"] for row in health["workers"]]
    tree_cpu = cpu_delta(after)
    late_p99 = percentile(phase.late_s, 0.99) * 1e3

    def tenant_p50(tenant: str) -> float:
        return percentile([latency * 1e3 for name, latency, _r
                           in phase.finished if name == tenant], 0.50)

    metrics = per_layer_zeros()
    metrics.update({
        "exec.aio_idle_fraction":
            max(0.0, 1.0 - tree_cpu / (phase.wall_s * (1 + WORKERS))),
        "service.submitted": float(sum(line)),
        "service.completed": float(line[0]),
        "service.failed": float(line[1]),
        "service.rejected": float(line[2]),
        "service.latency_p99_ms": percentile(latencies, 0.99),
        "service.tenant_gold_p50_ms": tenant_p50("gold"),
        "service.tenant_bronze_p50_ms": tenant_p50("bronze"),
        "service.http.submit_rtt_p50_ms":
            percentile(phase.submit_rtt_s, 0.50) * 1e3,
        "service.http.poll_rtt_p50_ms":
            percentile(phase.poll_rtt_s, 0.50) * 1e3,
        "service.http.rtt_over_30ms_fraction":
            sum(1 for rtt in rtts if rtt > 0.030) / max(1, len(rtts)),
        "service.http.polls_per_query": len(phase.poll_rtt_s) / done,
        "service.http.non_2xx": float(phase.non_2xx + reference.non_2xx),
        "service.coordinator_cpu_ms_per_query":
            cpu_delta([coordinator]) / done * 1e3,
        "service.workers.cpu_ms_per_query":
            cpu_delta(worker_pids) / done * 1e3,
        "service.workers.balance":
            (min(completed) / max(completed)
             if completed and max(completed) else 0.0),
        "service.workers.steals":
            float(sum(row["steals"] for row in health["workers"])),
        "service.workers.restarts":
            float(sum(row["restarts"] for row in health["workers"])),
        "gen.sample_count": float(len(phase.finished)),
        "gen.late_p99_ms": late_p99,
        "gen.cpu_fraction": own_cpu / phase.wall_s,
        "gen.host_speed": hostclock.mean_speed(phase.speeds),
        "trace.overhead_ratio":
            (percentile(latencies, 0.50)
             / max(1e-9, percentile([latency * 1e3 for _t, latency, _r
                                     in reference.finished], 0.50))),
    })
    result = RunResult(metrics, reference.submitted + phase.submitted,
                       failed, problems, voids=_voids(late_p99), info={
                           "transport_errors":
                               phase.errors + reference.errors,
                       })
    return result, phase.spans
