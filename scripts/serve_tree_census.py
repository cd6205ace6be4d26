#!/usr/bin/env python
"""Census of the processes behind ``repro serve --workers 2``.

Starts the daemon on a free port, submits 20 queries over HTTP and
waits until each is done, then walks the daemon's process tree in
``/proc`` and prints every process with its role (coordinator, worker
N, or other), its peak resident set (``VmHWM``) and its thread count
(``Threads``).

Exit status 1 when the tree holds any process besides the coordinator
and its two workers (a ``multiprocessing`` resource tracker, a helper
nobody reaps), when the coordinator maps numpy (it executes no query,
so it never draws), when the coordinator runs more than one thread (it
serves HTTP, the pool and the kernel on one loop; only
``--archive-dir`` adds a writer thread, and the census passes none),
or when a worker runs more threads than a bare
``python -c "import numpy.random"`` child measured here first: numpy's
BLAS may start a pool of its own, and a worker adds none to it.  The
MB figures are printed, not gated: they differ from host to host.

    PYTHONPATH=src python scripts/serve_tree_census.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
WORKERS = 2
SUBMISSIONS = 20
#: one small query: a few milliseconds of modelled work each.
BODY = {"tenant": "census", "strategy": "DSE", "scale": 0.0005,
        "wait_us": 20.0, "memory_bytes": 256 << 10}
TIMEOUT_S = 60.0
#: modules (and, for a package, its submodules) a pool worker never
#: executes and so must never import.
WORKER_DENIED = ("repro.cli", "repro.optimizer", "repro.parallel",
                 "repro.experiments.runner", "repro.query.generator",
                 "repro.service.service", "repro.observability.archive",
                 "repro.observability.explain", "repro.sim.engine")
#: the hook every process of the daemon's tree imports at startup: on
#: SIGUSR1 / SIGUSR2 it writes its ``repro`` modules to
#: ``<pid>.ready`` / ``<pid>.served`` in OUT.
MODULE_HOOK = """
import os, signal, sys

def _write_modules(signum, _frame):
    stage = "ready" if signum == signal.SIGUSR1 else "served"
    path = os.path.join(OUT, f"{os.getpid()}.{stage}")
    with open(path + ".tmp", "w") as out:
        out.write(" ".join(sorted(
            m for m in sys.modules if m.split(".")[0] == "repro")))
    os.replace(path + ".tmp", path)

signal.signal(signal.SIGUSR1, _write_modules)
signal.signal(signal.SIGUSR2, _write_modules)
"""


def _request(port: int, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Any:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(
            method, path,
            body=json.dumps(body).encode() if body is not None else None,
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read() or b"null")
        if response.status // 100 != 2:
            raise RuntimeError(f"{method} {path} answered {response.status}: "
                               f"{payload}")
        return payload
    finally:
        connection.close()


def _parent(pid: int) -> Optional[int]:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None  # exited while listed
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(root: int) -> List[int]:
    """Every process below ``root``, from the ppid field of /proc."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            parent = _parent(int(entry.name))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry.name))
    found, frontier = [], [root]
    while frontier:
        for child in sorted(children.get(frontier.pop(), [])):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb(pid: int) -> float:
    status = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(match.group(1)) / 1024.0 if match else 0.0


def threads(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"Threads:\s+(\d+)", status).group(1))


#: a child that imports numpy's random module and prints its own
#: thread count: what a worker runs before any thread of the pool's.
BARE_NUMPY = (r"import re, numpy.random; print(re.search(r'Threads:\s+(\d+)', "
              r"open('/proc/self/status').read()).group(1))")


def maps_numpy(pid: int) -> bool:
    return "numpy" in Path(f"/proc/{pid}/maps").read_text()


def _start(log: Path, hook: Path
           ) -> "tuple[subprocess.Popen[bytes], int]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log, "w") as out:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            stdout=out, stderr=subprocess.STDOUT, env=env, cwd=log.parent)
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            raise RuntimeError(f"serve exited {daemon.returncode}: "
                               f"{log.read_text()[-500:]}")
        match = re.search(r"serving on http://[^:]+:(\d+)", log.read_text())
        if match:
            return daemon, int(match.group(1))
        time.sleep(0.05)
    raise RuntimeError("serve printed no 'serving on' line")


def _run_queries(port: int) -> None:
    ids = [_request(port, "POST", "/submit", dict(BODY, seed=index))["id"]
           for index in range(SUBMISSIONS)]
    deadline = time.monotonic() + TIMEOUT_S
    for submission in ids:
        while True:
            state = _request(port, "GET", f"/submissions/{submission}")["state"]
            if state == "done":
                break
            if state == "failed" or time.monotonic() > deadline:
                raise RuntimeError(f"{submission} ended {state}")
            time.sleep(0.02)


def modules(pids: List[int], stage: str, sig: int,
            out: Path) -> Dict[int, List[str]]:
    """Each process's ``repro`` modules, written by its hook on ``sig``."""
    for pid in pids:
        os.kill(pid, sig)
    deadline = time.monotonic() + TIMEOUT_S
    paths = {pid: out / f"{pid}.{stage}" for pid in pids}
    while not all(path.exists() for path in paths.values()):
        if time.monotonic() > deadline:
            raise RuntimeError(f"no module list from {sorted(paths)}")
        time.sleep(0.02)
    return {pid: path.read_text().split() for pid, path in paths.items()}


def denied(loaded: List[str]) -> List[str]:
    return [module for module in loaded
            if any(module == name or module.startswith(name + ".")
                   for name in WORKER_DENIED)]


def main() -> int:
    if not Path("/proc/self/stat").exists():
        print("serve_tree_census: needs /proc (Linux)", file=sys.stderr)
        return 1
    baseline = int(subprocess.run([sys.executable, "-c", BARE_NUMPY],
                                  capture_output=True, text=True,
                                  check=True).stdout)
    print(f"bare numpy   threads {baseline}")
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        hook = out / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(
            MODULE_HOOK.replace("OUT", repr(str(out))))
        daemon, port = _start(out / "serve.log", hook)
        try:
            workers = {row["pid"]: row["id"]
                       for row in _request(port, "GET", "/healthz")["workers"]}
            pids = [daemon.pid] + sorted(workers)
            ready_rss = {pid: peak_rss_mb(pid) for pid in pids}
            ready = modules(pids, "ready", signal.SIGUSR1, out)
            _run_queries(port)
            served = modules(pids, "served", signal.SIGUSR2, out)
            tree = descendants(daemon.pid)
            rows = [(daemon.pid, "coordinator")] + [
                (pid, f"worker {workers[pid]}" if pid in workers else "other")
                for pid in tree]
            print(f"{'':<21} {'repro':>7}  {'VmHWM':>8}  "
                  f"{'VmHWM after':>11}")
            print(f"{'role':<12} {'pid':<8} {'modules':>7}  "
                  f"{'at ready':>8}  {'the queries':>11}  threads")
            for pid, role in rows:
                print(f"{role:<12} {pid:<8} {len(ready.get(pid, [])):>7}  "
                      f"{ready_rss.get(pid, 0.0):5.1f} MB  "
                      f"{peak_rss_mb(pid):8.1f} MB  {threads(pid):>7}")
            print(f"{'total':<30} {sum(ready_rss.values()):5.1f} MB  "
                  f"{sum(peak_rss_mb(pid) for pid, _ in rows):8.1f} MB")
            problems = []
            if sorted(tree) != sorted(workers) or len(workers) != WORKERS:
                problems.append(f"the tree is not the coordinator and its "
                                f"{WORKERS} workers: {rows}")
            if maps_numpy(daemon.pid):
                problems.append("the coordinator maps numpy")
            if threads(daemon.pid) > 1:
                problems.append(f"the coordinator runs "
                                f"{threads(daemon.pid)} threads, not 1")
            problems.extend(
                f"worker {workers[pid]} runs {threads(pid)} threads, a bare "
                f"numpy child {baseline}" for pid in workers
                if threads(pid) > baseline)
            problems.extend(
                f"worker {workers[pid]} loads {denied(served[pid])}, which "
                f"it never executes" for pid in workers
                if denied(served[pid]))
            problems.extend(
                f"worker {workers[pid]} imported "
                f"{sorted(set(served[pid]) - set(ready[pid]))} after ready"
                for pid in workers if served[pid] != ready[pid])
        finally:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
    for problem in problems:
        print(f"serve_tree_census: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
