#!/usr/bin/env python
"""Every function in ``src/repro`` that no product entry point reaches.

Runs a fixed product drive with a profiler in every process it starts,
the ``repro serve`` pool's workers and the sweeps' forked shards
included: each ``repro`` command with small arguments, ``repro live
--serve 0`` scraped while it runs, ``repro serve`` on one and on two
workers (with an archive, a flight dump, a span dump and an objective)
driven by ``submit --wait``, ``top --once``, ``watch --frames``, its
HTTP routes, ``history`` and SIGTERM, every example, each bench
workload's quick pass and ``pytest benchmarks --benchmark-only``.  The
profiler is a ``sitecustomize`` on every child's ``PYTHONPATH``: it
records each code object that starts running and writes those of
``src/repro`` when its process exits.

Each ``def`` in ``src/repro`` is then matched to the code objects that
ran, by file, first line and name (a decorated function's code starts
at its first decorator).  Dunders, the bodies of ``Protocol`` classes
and abstract methods are declarations and exempt.  Any other function
that did not run must be named in ``reachability_allow.txt`` next to
this script, one ``module:qualname  # reason`` a line, for one of the
reasons in :data:`REASONS`.

Exit status 1 when a drive step does not end as it should (an exit
status, a daemon that does not drain every submission completed, a
step whose processes record nothing), when a function is unreached and
not allow-listed, or when the allow-list names a function that does not
exist or gives another reason.  Prints the size and a digest of the
reached set, so two runs can be compared.

    python scripts/reachability.py
"""

from __future__ import annotations

import ast
import hashlib
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
from types import CodeType
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW = Path(__file__).resolve().parent / "reachability_allow.txt"
#: the only reasons a function may stay unreached.
REASONS = (
    "fault handling",        # worker death, disk errors, timeouts, overflow
    "interactive terminal",  # the curses dashboard
    "test reference",        # a reference implementation tests compare to
    "pending bench gates",   # named by bench/trace_targets.py
    "pending test removal",  # reached only by the tests written for it
)
TIMEOUT_S = 300.0

#: ``(file, first line, name)``: what identifies a function's code.
Key = Tuple[str, int, str]

#: the profiler every process of the drive imports at startup.  It keeps
#: each code object that starts running (a set insert per call) and, at
#: exit, writes those under PACKAGE to a new file in $REACHABILITY_OUT.
#: ``os._exit`` is wrapped too: a forked sweep shard leaves through it.
HOOK = """
import atexit, os, sys, threading

_OUT = os.environ.get("REACHABILITY_OUT")
if _OUT:
    _seen = set()
    _exit = os._exit

    def _profile(frame, event, _arg):
        if event == "call":
            _seen.add(frame.f_code)

    def _dump():
        prefix = PACKAGE + os.sep
        rows = {f"{os.path.realpath(code.co_filename)}\\t"
                f"{code.co_firstlineno}\\t{code.co_name}"
                for code in list(_seen)}
        path = os.path.join(_OUT, f"{os.getpid()}-{len(_seen)}")
        with open(path + ".tmp", "w") as out:
            out.write("\\n".join(sorted(row for row in rows
                                        if row.startswith(prefix))))
        os.replace(path + ".tmp", path)

    def _exit_after_dump(status):
        _dump()
        _exit(status)

    atexit.register(_dump)
    os._exit = _exit_after_dump
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    # pytest-benchmark pauses any profiler while it times a benchmark:
    # this one stays on (a new thread installs it through this call).
    _setprofile = sys.setprofile
    sys.setprofile = lambda function: (
        _setprofile(function) if function is _profile else None)
"""


# -- the def-to-code mapping -------------------------------------------------

def code_key(code: CodeType) -> Key:
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name)


def _declares_protocol(node: ast.ClassDef) -> bool:
    return any((isinstance(base, ast.Name) and base.id == "Protocol")
               or (isinstance(base, ast.Attribute)
                   and base.attr == "Protocol") for base in node.bases)


def _is_abstract(node: ast.AST) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "abstractmethod")
               or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
               for d in getattr(node, "decorator_list", ()))


def definitions(path: Path) -> Dict[Key, Tuple[str, bool]]:
    """Every ``def`` in ``path``: its key -> ``(qualname, exempt)``.

    The qualname is the one Python gives the function (``Class.method``,
    ``outer.<locals>.inner``); exempt are dunders, abstract methods and
    anything in a ``Protocol`` class."""
    found: Dict[Key, Tuple[str, bool]] = {}
    filename = os.path.realpath(path)

    def visit(node: ast.AST, prefix: str, exempt: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.",
                      exempt or _declares_protocol(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                qualname = prefix + child.name
                dunder = child.name.startswith("__") \
                    and child.name.endswith("__")
                found[(filename, first, child.name)] = (
                    qualname, exempt or dunder or _is_abstract(child))
                visit(child, f"{qualname}.<locals>.", exempt)
            else:
                visit(child, prefix, exempt)

    visit(ast.parse(path.read_text(), str(path)), "", False)
    return found


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_definitions() -> Dict[Key, Tuple[str, bool]]:
    """Every ``def`` of ``src/repro``, keyed as :func:`definitions`;
    the qualname is prefixed ``module:``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        for key, (qualname, exempt) in definitions(path).items():
            found[key] = (f"{module}:{qualname}", exempt)
    return found


def read_allow_list(path: Path) -> Tuple[Dict[str, str], List[str]]:
    """``module:qualname -> reason`` and the lines that break the form."""
    allowed, problems = {}, []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = (part.strip() for part in line.partition("#"))
        if reason not in REASONS:
            problems.append(f"{path.name}:{number}: reason {reason!r} is "
                            f"not one of {', '.join(REASONS)}")
        elif name in allowed:
            problems.append(f"{path.name}:{number}: {name} listed twice")
        allowed[name] = reason
    return allowed, problems


# -- the drive ----------------------------------------------------------------

class Drive:
    """Runs the product with the profiler on and keeps what went wrong."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.profiles = scratch / "profiles"
        self.profiles.mkdir()
        hook = scratch / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(
            HOOK.replace("PACKAGE", repr(str(PACKAGE.resolve()))))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(SRC)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
               else []))
        self.env["REACHABILITY_OUT"] = str(self.profiles)
        self.work = scratch / "work"
        self.work.mkdir()
        self.problems: List[str] = []
        self.steps = 0

    def _dumps(self) -> int:
        return sum(1 for path in self.profiles.iterdir()
                   if not path.name.endswith(".tmp"))

    def run(self, *argv: str, expect: int = 0, processes: int = 1,
            stdout: Optional[str] = None, rerun: Tuple[str, ...] = ()
            ) -> str:
        """Run ``python argv`` to its end; it must exit ``expect`` and
        at least ``processes`` of its processes must leave a profile.
        Returns its stdout, which must hold ``stdout`` if given.  With
        ``rerun``, a wrong exit status gets one more run with those
        arguments added, and the step is judged by that run."""
        self.steps += 1
        before = self._dumps()
        label = " ".join(argv)
        started = time.monotonic()
        try:
            done = subprocess.run([sys.executable, *argv], cwd=self.work,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
            if done.returncode != expect and rerun:
                print(f"  exit {done.returncode}: once more with "
                      f"{' '.join(rerun)}", flush=True)
                done = subprocess.run(
                    [sys.executable, *argv, *rerun], cwd=self.work,
                    env=self.env, capture_output=True, text=True,
                    timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{label}: no exit after {TIMEOUT_S:.0f} s")
            return ""
        print(f"  {time.monotonic() - started:5.1f} s  {label}", flush=True)
        if done.returncode != expect:
            self.problems.append(
                f"{label}: exit {done.returncode}, expected {expect}: "
                f"{(done.stderr or done.stdout).strip()[-800:]}")
        elif self._dumps() - before < processes:
            self.problems.append(f"{label}: {self._dumps() - before} of "
                                 f"{processes} processes left a profile")
        elif stdout is not None and stdout not in done.stdout:
            self.problems.append(f"{label}: printed no {stdout!r}")
        return done.stdout

    def repro(self, *argv: str, **kwargs: Any) -> str:
        return self.run("-m", "repro", *argv, **kwargs)

    def start(self, *argv: str, ready: str, log: str
              ) -> Tuple["subprocess.Popen[bytes]", Optional[re.Match]]:
        """Start ``python -m repro argv`` in the background; returns it
        and the match of ``ready`` (a regex) on its output."""
        self.steps += 1
        path = self.work / log
        with open(path, "w") as out:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv], cwd=self.work,
                env=self.env, stdout=out, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and process.poll() is None:
            match = re.search(ready, path.read_text())
            if match:
                return process, match
            time.sleep(0.05)
        self.problems.append(f"repro {' '.join(argv)}: never printed "
                             f"{ready!r}: {path.read_text()[-800:]}")
        return process, None

    def stop(self, process: "subprocess.Popen[bytes]", log: str,
             processes: int, expect: str) -> str:
        """SIGTERM a background daemon; it must exit 0 after printing
        ``expect`` (a regex), and ``processes`` must leave profiles."""
        before = self._dumps()
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            self.problems.append(f"{log}: no exit within 60 s of SIGTERM")
        text = (self.work / log).read_text()
        if process.returncode != 0 or not re.search(expect, text):
            self.problems.append(f"{log}: exit {process.returncode}, "
                                 f"expected 0 and {expect!r}: "
                                 f"{text[-800:]}")
        deadline = time.monotonic() + 10
        while self._dumps() - before < processes \
                and time.monotonic() < deadline:
            time.sleep(0.05)  # a worker writes its profile as it exits
        if self._dumps() - before < processes:
            self.problems.append(f"{log}: {self._dumps() - before} of "
                                 f"{processes} processes left a profile")
        return text

    def get(self, port: int, method: str, path: str,
            body: Optional[Dict[str, Any]] = None, expect: int = 200
            ) -> bytes:
        """One HTTP request from this process; it must answer ``expect``."""
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        try:
            connection.request(method, path, body=None if body is None
                               else json.dumps(body).encode())
            response = connection.getresponse()
            payload = response.read()
        except OSError as exc:
            self.problems.append(f"{method} {path}: {exc}")
            return b""
        finally:
            connection.close()
        if response.status != expect:
            self.problems.append(f"{method} {path}: HTTP {response.status}, "
                                 f"expected {expect}: {payload[:300]!r}")
        return payload

    def reached(self) -> Set[Key]:
        keys = set()
        for path in self.profiles.iterdir():
            if path.name.endswith(".tmp"):
                continue
            for row in path.read_text().splitlines():
                filename, line, name = row.split("\t")
                keys.add((filename, int(line), name))
        return keys


#: one sweep point or run per command: small, but every phase runs.
SMALL = ("--scale", "0.02")


def commands(drive: Drive) -> None:
    """Every ``repro`` command that runs and exits on its own."""
    drive.repro("table1", stdout="Table 1")
    drive.repro("plan", "--scale", "0.05")
    for jobs in ("0", "1"):  # the second run is served from the cache
        drive.repro("fig6", *SMALL, "--relation", "F", "--retrieval-times",
                    "2", "6", "--jobs", jobs, "--cache-dir", "cache",
                    "--csv", "fig6.csv")
    drive.repro("fig8", *SMALL, "--waits-us", "5", "50", "--repetitions",
                "2", "--no-cache", "--csv", "fig8.csv")
    for strategy in ("SEQ", "MA", "DSE-ND", "DPHJ"):
        drive.repro("run", "--strategy", strategy, "--scale", "0.05",
                    "--slow", "A:10")
    drive.repro("run", "--scale", "0.05", "--slow", "F:10", "--error",
                "J1:0.5", "--reopt", "--trace", "--timeline",
                "--chrome-trace", "run-chrome.json", "--spans-out",
                "run-spans.json")
    drive.repro("metrics", "--scale", "0.05", "--slow", "A:10", "--out",
                "telemetry", "--json", "metrics.json", "--csv",
                "metrics.csv", "--prom", "metrics.prom")
    drive.repro("metrics", "--from", "metrics.json")
    drive.repro("trace", "--scale", "0.05", "--slow", "A:10", "--out",
                "trace.json")
    drive.repro("trace", "--from", "trace.json", "--out", "trace2.json")
    drive.repro("anatomy", "--scale", "0.05", "--slow", "A:10")
    drive.repro("explain", "--scale", "0.05", "--slow", "A:10", "--vs",
                "SEQ", "--spans-out", "explain-spans.json")
    drive.repro("explain", "--from", "explain-spans.json")
    drive.repro("multiquery", *SMALL, "--queries", "3", "--strategies",
                "DSE", "MA", "--waits-us", "20", "--global-memory", "896K",
                "inf", "--admission", "fifo", "--query-memory", "384K",
                "--min-memory", "384K", "--max-memory", "2M", "--csv",
                "multiquery.csv", "--cache-dir", "cache")
    drive.repro("multiquery", *SMALL, "--queries", "2", "--strategies",
                "SEQ", "--waits-us", "20", "--inter-arrival", "0.01",
                "--global-memory", "2M", "--admission", "priority",
                "--query-memory", "512K", "--min-memory", "384K")
    drive.repro("reproduce", "--scale", "0.01", "--outdir", "results",
                "--jobs", "2", processes=2)
    drive.repro("live", "--scale", "0.005", "--strategy", "DSE",
                "--timeline", "--flight-dump", "live-flight.json",
                "--stall-after", "30", "--span-dump", "live-spans.json")
    # The watchdog aborts an overrunning run and dumps its last moments.
    drive.repro("live", "--scale", "0.005", "--flight-dump",
                "live-flight.json", "--deadline", "0.2", expect=1)
    drive.repro("top", "--replay", "live-flight.json")


def live_served(drive: Drive) -> None:
    """``repro live --serve 0`` scraped while the run is in flight."""
    live, match = drive.start("live", "--scale", "0.01", "--serve", "0",
                              "--sample-interval", "0.05",
                              ready=r"http://[^:]+:(\d+)", log="live.log")
    if match is not None:
        port = int(match.group(1))
        drive.get(port, "GET", "/healthz")
        drive.get(port, "GET", "/metrics")
        drive.repro("watch", "--connect", f"127.0.0.1:{port}", "--frames",
                    "2")
        drive.repro("top", "--connect", f"127.0.0.1:{port}", "--once")
    try:
        live.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        live.kill()
        live.wait()
    if live.returncode != 0:
        drive.problems.append(f"repro live --serve 0: exit "
                              f"{live.returncode}: "
                              f"{(drive.work / 'live.log').read_text()[-800:]}")


def served(drive: Drive, workers: int) -> None:
    """``repro serve`` on ``workers`` workers, driven by every client."""
    tag = f"serve{workers}"
    archive = f"{tag}-archive"
    daemon, match = drive.start(
        "serve", "--port", "0", "--workers", str(workers),
        "--global-memory", "64M", "--tenant", "gold:2", "--tenant",
        "bronze:0", "--publish-interval", "0.2", "--archive-dir", archive,
        "--flight-dump", f"{tag}-flight.json", "--span-dump",
        f"{tag}-spans.json", "--slo", "gold:p99<=60s@99%",
        ready=r"serving on http://[^:]+:(\d+)", log=f"{tag}.log")
    if match is None:
        daemon.kill()
        daemon.wait()
        return
    port = int(match.group(1))
    connect = ("--connect", f"127.0.0.1:{port}")
    small = ("--scale", "0.005", "--wait-us", "50", "--memory", "8M")
    for strategy in ("DSE", "SEQ", "MA"):
        drive.repro("submit", *connect, "--tenant", "gold", "--strategy",
                    strategy, "--priority", "3", "--count", "2", *small,
                    "--wait", stdout="done")
    drive.repro("submit", *connect, "--tenant", "bronze", "--slow", "A:4",
                *small, "--wait", stdout="done")
    accepted = json.loads(drive.get(
        port, "POST", "/submit", {"tenant": "gold", "strategy": "DSE",
                                  "scale": 0.002, "wait_us": 0,
                                  "memory_bytes": 8 << 20},
        expect=202) or b"{}")
    drive.repro("submit", *connect, "--tenant", "gold", *small)
    drive.repro("top", *connect, "--once")
    drive.repro("watch", *connect, "--frames", "2")
    for path in ("/healthz", "/metrics", "/slo", "/submissions"):
        drive.get(port, "GET", path)
    deadline = time.monotonic() + 60
    while "id" in accepted and time.monotonic() < deadline:
        record = json.loads(drive.get(
            port, "GET", f"/submissions/{accepted['id']}") or b"{}")
        if record.get("state") not in ("queued", "running"):
            break
        time.sleep(0.05)
    drive.get(port, "GET", "/submissions/s-999999", expect=404)
    drive.get(port, "POST", "/submit", {"tenant": "gold",
                                        "strategy": "nope"}, expect=400)
    drive.stop(daemon, f"{tag}.log", processes=workers if workers > 1 else 1,
               expect=r"drained: 9 completed, 0 failed, 0 rejected")
    drive.repro("history", archive, stdout="outcomes")
    drive.repro("history", archive, "--tenant", "gold", "--json",
                "--alerts", "--slo-report", "--slo", "gold:p99<=60s@99%",
                "--since", "-3600", "--until", "0")
    drive.repro("history", archive, "--diff", "-7200..-3600", "-3600..0",
                stdout="METRIC")
    drive.repro("history", archive, "--diff", "-3600..-1800", "-1800..0",
                "--json")
    drive.repro("top", "--replay", f"{tag}-flight.json")
    if workers == 1:  # a pool's span dump holds no query span
        drive.repro("explain", "--from", f"{tag}-spans.json")


def examples(drive: Drive) -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        drive.run(str(script))


def bench(drive: Drive) -> None:
    """Each bench workload's quick pass (serve_http_pool starts a
    coordinator and two workers), then the paper-figure benchmarks."""
    workloads = ("sim_sweep", "sim_multiquery_tightmem", "service_saturated",
                 "serve_http_pool")
    for workload in workloads:
        for trace in ("0", "1"):
            drive.run(str(ROOT / "bench" / "run.py"), "--workload", workload,
                      "--quick", "--trace", trace, "--out",
                      f"bench-{workload}-{trace}.json",
                      processes=4 if workload == "serve_http_pool" else 1)
    # Their timing assertions run under the profiler here: a failed one
    # is run once more, and must pass then.
    drive.run("-m", "pytest", str(ROOT / "benchmarks"), "--benchmark-only",
              "-q", "-o", f"cache_dir={drive.scratch / 'pytest-cache'}",
              rerun=("--last-failed",))


DRIVE: Tuple[Callable[[Drive], None], ...] = (
    commands, live_served, lambda drive: served(drive, 1),
    lambda drive: served(drive, 2), examples, bench)


# -- the verdict --------------------------------------------------------------

def verdict(reached: Set[Key], defined: Dict[Key, Tuple[str, bool]],
            allowed: Dict[str, str]) -> Tuple[List[str], List[str]]:
    """The unreached functions the allow-list does not name, and the
    allow-list entries that name no function of ``src/repro``."""
    unreached = sorted(name for key, (name, exempt) in defined.items()
                       if not exempt and key not in reached)
    names = {name for name, _ in defined.values()}
    return ([name for name in unreached if name not in allowed],
            sorted(name for name in allowed if name not in names))


def main() -> int:
    defined = package_definitions()
    allowed, problems = read_allow_list(ALLOW)
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        drive = Drive(Path(scratch))
        for step in DRIVE:
            step(drive)
        reached = drive.reached() & set(defined)
        problems.extend(drive.problems)
    for problem in problems:
        print(f"reachability: {problem}", file=sys.stderr)
    flagged, stale = verdict(reached, defined, allowed)
    names = sorted(defined[key][0] for key in reached)
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    exempt = sum(1 for _, is_exempt in defined.values() if is_exempt)
    print(f"reached {len(reached)} of {len(defined)} functions "
          f"({exempt} exempt, {len(allowed)} allow-listed) over "
          f"{drive.steps} steps; reached set sha256 {digest}")
    for name in flagged:
        print(f"unreached: {name}", file=sys.stderr)
    for name in stale:
        print(f"allow-listed but not defined: {name}", file=sys.stderr)
    return 1 if problems or flagged or stale else 0


if __name__ == "__main__":
    sys.exit(main())
