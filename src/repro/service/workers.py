"""The sharded execution plane: a work-stealing worker-process pool.

``repro serve --workers N`` splits query execution across N long-lived
worker processes, each an :class:`~repro.service.backend.
ExecutionPlane` (the governed machine the in-process backend calls
directly) behind a socket (:class:`WorkerHost`), with a memory pool
carved out of the coordinator's machine broker
(:meth:`~repro.resources.broker.MemoryBroker.carve_even`).  The
coordinator keeps the whole control plane — tenant gating, refusal
accounting, SLOs, archive, drain — and this module's
:class:`~repro.service.backend.ExecutionBackend` moves admitted
submissions to the fleet and folds their telemetry back.

Topology::

    QueryService (control plane, one asyncio loop)
      └─ WorkerPoolBackend
           ├─ PoolScheduler         per-worker queues, least-loaded
           │                        assignment, work stealing (pure,
           │                        deterministic, unit-testable)
           ├─ one task per worker   reads the worker's socket as an
           │                        asyncio stream: each frame to
           │                        _on_message, its end to _on_death
           └─ worker 0..N-1         a plain child interpreter running
                                    worker_main: an ExecutionPlane (own
                                    kernel, broker with pool = carve,
                                    admission queue) serving the same
                                    socket on its own asyncio loop

A worker is ``python -c`` under :class:`subprocess.Popen`, handed one
end of a :func:`socket.socketpair` and the directory holding the
coordinator's ``repro``: it imports what a job executes, not the
coordinator's ``__main__`` (the CLI), and no resource tracker starts.
Both ends read and write the socket as asyncio streams on their own
loop, so neither process runs a thread for it, and a worker that stops
in the middle of a frame holds back no other worker's results.  A
frame is a 4-byte big-endian signed length and then the pickle; only
:func:`write_message` and :func:`read_message` know it.
The first message is ``(worker id, config)``; the worker imports all a
job imports (:func:`~repro.service.backend.import_execution_modules`)
*before* it answers ``ready``, so no import runs while it serves.
Then, pickled dicts: ``job`` (``id``, ``request``, ``sequence``,
``priority``, the three budgets) and ``stop`` one way;
``ready`` (``worker``, ``pool``, ``peak_rss_bytes``) and
``result`` (``id``, ``ok``, ``payload`` or ``error``, ``wait_s``,
``stalls``, ``peak_rss_bytes``) the other.  A result is constant-size
whatever the worker's uptime: the outcome dict of
:meth:`~repro.service.backend.ExecutionPlane.execute` and the worker
machine's cumulative stall seconds by cause.

A submission's sources are seeded per ``(service seed, request seed,
sequence, relation)`` (:meth:`~repro.service.backend.ExecutionPlane.
wrappers`), so stealing never changes a result.  A worker that dies
(the end of its stream) fails its in-flight submissions with
:class:`WorkerDied` (``worker-died``), is reaped and respawned; queued
submissions are dispatched — or stolen — elsewhere.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.engine import spawn_main
from repro.exec.aio import AsyncioKernel
from repro.exec.core import SimEvent
from repro.service.backend import (
    BACKEND_WORKER_POOL,
    ExecutionPlane,
    import_execution_modules,
    peak_rss_bytes,
)
from repro.service.request import SubmissionRequest

if TYPE_CHECKING:
    from repro.resources import MemoryLease
    from repro.service.service import QueryService, SubmissionRecord

#: in-flight submissions one worker accepts before backlog queues
#: coordinator-side (where it is visible — and stealable).
DEFAULT_WINDOW = 4

#: seconds :meth:`WorkerPoolBackend.start` waits for every worker's
#: ``ready`` handshake before giving up.
DEFAULT_START_TIMEOUT_S = 60.0

#: respawn attempts per worker slot before it is left down for good
#: (a crash *loop* must not melt the host; peers keep serving).
DEFAULT_MAX_RESTARTS = 5

#: the program a worker child runs (argv: the directory holding the
#: coordinator's ``repro``, the inherited socket's descriptor).
_WORKER_BOOT = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from repro.service.workers import worker_main; "
                "worker_main(int(sys.argv[2]))")
_SOURCE_ROOT = str(Path(__file__).resolve().parents[2])

#: a frame's header: the length of the pickle that follows it.
_HEADER = struct.Struct("!i")


def write_message(writer: asyncio.StreamWriter, message: Any) -> None:
    """Queue one frame on ``writer``: the header, then the pickle."""
    body = pickle.dumps(message)
    writer.write(_HEADER.pack(len(body)) + body)


async def read_message(reader: asyncio.StreamReader) -> Any:
    """The next frame's message.  Raises :class:`EOFError` at the end of
    the stream (:class:`asyncio.IncompleteReadError` inside a frame)."""
    (size,) = _HEADER.unpack(await reader.readexactly(_HEADER.size))
    return pickle.loads(await reader.readexactly(size))


class WorkerDied(SimulationError):
    """A worker process exited with this submission in flight."""


class PoolScheduler:
    """Pure dispatch state for the worker fleet (no I/O, no clocks).

    Jobs are *assigned* to the least-loaded worker's queue on arrival
    (ties: round-robin) and *dispatched* when a worker has window room:
    own queue first, otherwise one is stolen from the longest queue
    (ties: lowest id) of a peer that is down or whose window is full.
    Deterministic, so the stealing policy is pinned by unit tests.
    """

    def __init__(self, worker_ids: Iterable[int],
                 window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ConfigurationError(
                f"dispatch window must be >= 1, got {window}")
        ids = sorted(worker_ids)
        if not ids:
            raise ConfigurationError("scheduler needs at least one worker")
        self.window = window
        self.queues: dict[int, deque[str]] = {wid: deque() for wid in ids}
        self.active: dict[int, int] = {wid: 0 for wid in ids}
        self.steals: dict[int, int] = {wid: 0 for wid in ids}
        #: job -> worker whose queue currently holds it (queued only).
        self.assigned: dict[str, int] = {}
        #: workers that cannot run their own queue (dead or respawning).
        self.down: set[int] = set()
        #: assignment tie order: the worker after the last one chosen first.
        self._turns: deque[int] = deque(ids)

    @property
    def steals_total(self) -> int:
        return sum(self.steals.values())

    def backlog(self, worker_id: int) -> int:
        """Queued + active load of one worker."""
        return len(self.queues[worker_id]) + self.active[worker_id]

    def queued_total(self) -> int:
        return sum(len(queue) for queue in self.queues.values())

    def assign(self, job_id: str) -> int:
        """Queue one job on the least-loaded worker; returns its id."""
        worker_id = min(self._turns, key=self.backlog)  # first of equals
        self._turns.rotate(-1 - self._turns.index(worker_id))
        self.queues[worker_id].append(job_id)
        self.assigned[job_id] = worker_id
        return worker_id

    def next_for(self, worker_id: int) -> Optional[str]:
        """The job this worker should run next, or None.

        None when the worker's window is full or there is nothing it
        may run.  The steal source is the longest *queue* (not backlog:
        active jobs cannot move); an up owner with room runs its own.
        """
        if self.active[worker_id] >= self.window:
            return None
        if self.queues[worker_id]:
            job_id = self.queues[worker_id].popleft()
        else:
            donors = [wid for wid, queue in self.queues.items()
                      if wid != worker_id and queue
                      and (self.active[wid] >= self.window
                           or wid in self.down)]
            if not donors:
                return None
            donor = max(donors,
                        key=lambda wid: (len(self.queues[wid]), -wid))
            job_id = self.queues[donor].popleft()
            self.steals[worker_id] += 1
        del self.assigned[job_id]
        self.active[worker_id] += 1
        return job_id

    def finished(self, worker_id: int) -> None:
        """One in-flight job on this worker ended (any way)."""
        if self.active[worker_id] <= 0:
            raise SimulationError(
                f"worker {worker_id} finished with nothing active")
        self.active[worker_id] -= 1

    def forget(self, job_id: str) -> bool:
        """Drop a still-queued job; False if it already dispatched."""
        worker_id = self.assigned.pop(job_id, None)
        if worker_id is None:
            return False
        self.queues[worker_id].remove(job_id)
        return True


@dataclass
class _WorkerSlot:
    """Coordinator-side state of one worker process."""

    id: int
    process: Optional["subprocess.Popen[bytes]"] = None
    #: the coordinator's end of the worker's socket, once it is open.
    writer: Optional[asyncio.StreamWriter] = None
    #: :meth:`WorkerPoolBackend._talk` on this worker's socket.
    task: Optional["asyncio.Task[None]"] = None
    up: bool = False
    pid: Optional[int] = None
    restarts: int = 0
    completed: int = 0
    failed: int = 0
    pool_bytes: Optional[int] = None
    #: the worker's own peak resident set (its latest report).
    peak_rss_bytes: Optional[int] = None
    #: submissions sent to this worker and not yet answered.
    inflight: set[str] = field(default_factory=set)
    #: the worker machine's cumulative stall seconds by cause (latest).
    stalls: dict[str, float] = field(default_factory=dict)


@dataclass
class _Job:
    """One submission travelling through the pool."""

    record: "SubmissionRecord"
    message: dict[str, Any]
    event: SimEvent


class WorkerPoolBackend:
    """N worker processes behind one control plane (see module doc)."""

    name = BACKEND_WORKER_POOL

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.scheduler = PoolScheduler(range(workers))
        self._slots: dict[int, _WorkerSlot] = {
            wid: _WorkerSlot(wid) for wid in range(workers)}
        self._jobs: dict[str, _Job] = {}
        self._service: Optional["QueryService"] = None
        self._stopping = False
        self._carve: Optional[int] = None
        self._leases: list["MemoryLease"] = []
        #: set once every worker has answered ``ready``.
        self._fleet_ready = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------
    async def start(self, service: "QueryService") -> None:
        self._service = service
        if service.governed:
            # The machine broker's whole spare pool becomes N static
            # worker carve-outs; the coordinator holds the leases so the
            # machine pool gauges show the fleet's footprint.
            self._leases = service.machine.broker.carve_even(self.workers)
            if self._leases:
                self._carve = min(lease.total_bytes
                                  for lease in self._leases)
        for wid in range(self.workers):
            self._spawn(wid)
        try:
            await asyncio.wait_for(self._fleet_ready.wait(),
                                   timeout=DEFAULT_START_TIMEOUT_S)
        except asyncio.TimeoutError:
            missing = sorted(wid for wid, slot in self._slots.items()
                             if not slot.up)
            raise SimulationError(
                f"worker pool failed to start: worker(s) {missing} sent "
                f"no ready handshake in {DEFAULT_START_TIMEOUT_S:.0f}s") \
                from None

    def _spawn(self, worker_id: int) -> None:
        ours, theirs = socket.socketpair()
        with theirs:
            # Same process group as the coordinator (no new session):
            # whoever signals the daemon's group reaches its workers.
            process = subprocess.Popen(
                [sys.executable, "-c", _WORKER_BOOT, _SOURCE_ROOT,
                 str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL)
        slot = self._slots[worker_id]
        slot.process = process
        slot.pid = process.pid
        slot.up = False
        slot.task = asyncio.ensure_future(self._talk(slot, ours))

    async def _talk(self, slot: _WorkerSlot, sock: socket.socket) -> None:
        """Send the worker its ``(id, config)``, then hand each frame it
        sends to :meth:`_on_message` until the stream ends: its death."""
        service = self._service
        assert service is not None
        reader, writer = await asyncio.open_connection(sock=sock)
        slot.writer = writer
        write_message(writer, (slot.id, {
            "params": service.params, "seed": service.seed,
            "memory_bytes": self._carve, "admission": service.admission}))
        if self._stopping:  # stop() found no stream to send this on
            write_message(writer, {"op": "stop"})
        try:
            while True:
                self._on_message(slot.id, await read_message(reader))
        except (EOFError, ConnectionError):
            pass
        finally:
            slot.writer = None
            writer.close()
        self._on_death(slot.id)

    async def stop(self, service: "QueryService") -> None:
        self._stopping = True
        for slot in self._slots.values():
            if slot.writer is not None:
                write_message(slot.writer, {"op": "stop"})
        for slot in self._slots.values():
            if slot.task is not None:
                # A worker ends its stream once its jobs are answered.
                await asyncio.wait([slot.task], timeout=10.0)
            if slot.process is not None:
                _reap(slot.process, grace_s=1.0)
            slot.up = False
        for lease in self._leases:
            service.machine.broker.release(lease)
        self._leases = []

    # -- message handling ----------------------------------------------------
    def _on_message(self, worker_id: int, message: dict[str, Any]) -> None:
        op = message.get("op")
        slot = self._slots[worker_id]
        if op == "ready":
            slot.up = True
            self.scheduler.down.discard(worker_id)
            slot.pool_bytes = message.get("pool")
            slot.peak_rss_bytes = message["peak_rss_bytes"]
            if all(peer.up for peer in self._slots.values()):
                self._fleet_ready.set()
            self._pump()
        elif op == "result":
            self._on_result(worker_id, slot, message)

    def _on_result(self, worker_id: int, slot: _WorkerSlot,
                   message: dict[str, Any]) -> None:
        job_id = message.get("id")
        stalls = message.get("stalls")
        if isinstance(stalls, dict):
            slot.stalls = stalls
        slot.peak_rss_bytes = message["peak_rss_bytes"]
        job = self._jobs.pop(job_id, None) if isinstance(job_id, str) \
            else None
        if job is None:
            return  # not in flight (any more): nothing to fold
        slot.inflight.discard(job.record.id)
        self.scheduler.finished(worker_id)
        record = job.record
        record.admission_wait = float(message.get("wait_s", 0.0))
        record.worker_id = worker_id
        if message.get("ok"):
            slot.completed += 1
            if not job.event.triggered:
                job.event.succeed(message["payload"])
        else:
            slot.failed += 1
            if not job.event.triggered:
                job.event.fail(SimulationError(
                    f"worker {worker_id} execution failed: "
                    f"{message.get('error')}"))
        self._pump()

    def _on_death(self, worker_id: int) -> None:
        slot = self._slots[worker_id]
        slot.up = False
        self.scheduler.down.add(worker_id)
        doomed =[self._jobs.pop(job_id) for job_id in sorted(slot.inflight)
                  if job_id in self._jobs]
        slot.inflight.clear()
        for job in doomed:
            self.scheduler.finished(worker_id)
            slot.failed += 1
            if not job.event.triggered:
                job.event.fail(WorkerDied(
                    f"worker-died: worker {worker_id} exited with "
                    f"{job.record.id} in flight"))
        if self._stopping:
            return  # stop() reaps every child
        if slot.process is not None:
            _reap(slot.process, grace_s=0.0)  # a dead worker is no zombie
        slot.restarts += 1
        if slot.restarts <= DEFAULT_MAX_RESTARTS:
            self._spawn(worker_id)
        # Jobs still queued for the dead worker stay queued: living
        # peers steal them right now, the respawn drains the rest.
        self._pump()
        if all(peer.restarts > DEFAULT_MAX_RESTARTS
               for peer in self._slots.values()):
            # The whole fleet is gone and nothing will come back: fail
            # every queued job instead of hanging the control plane.
            for job_id in sorted(self._jobs):
                job = self._jobs.pop(job_id)
                self.scheduler.forget(job_id)
                if not job.event.triggered:
                    job.event.fail(WorkerDied(
                        f"worker-died: no workers left to run "
                        f"{job.record.id}"))

    def _pump(self) -> None:
        """Dispatch queued jobs to every worker with window room."""
        progress = True
        while progress:
            progress = False
            for worker_id in sorted(self._slots):
                slot = self._slots[worker_id]
                if not slot.up:
                    continue
                job_id = self.scheduler.next_for(worker_id)
                if job_id is None:
                    continue
                job = self._jobs.get(job_id)
                if job is None:
                    self.scheduler.finished(worker_id)
                    continue
                self._dispatch(worker_id, slot, job)
                progress = True

    def _dispatch(self, worker_id: int, slot: _WorkerSlot,
                  job: _Job) -> None:
        from repro.service.service import STATE_RUNNING

        assert self._service is not None
        slot.inflight.add(job.record.id)
        record = job.record
        record.state = STATE_RUNNING
        record.started_at = self._service.kernel.wall_now
        record.worker_id = worker_id
        # A dead worker's transport drops the frame; the end of its
        # stream fails the job just marked in flight (worker-died).
        assert slot.writer is not None
        write_message(slot.writer, job.message)

    # -- ExecutionBackend ----------------------------------------------------
    def launch(self, service: "QueryService", record: "SubmissionRecord",
               initial: int, min_bytes: int,
               max_bytes: int) -> Generator[SimEvent, Any, dict[str, Any]]:
        request = record.request
        event = service.kernel.event(name=f"result:{record.id}")
        message = {
            "op": "job",
            "id": record.id,
            "request": request.to_dict(),
            "sequence": record.sequence,
            "priority": service.tenants.priority_for(request.tenant,
                                                     request.priority),
            "initial": initial,
            "min_bytes": min_bytes,
            "max_bytes": max_bytes,
        }
        self._jobs[record.id] = _Job(record=record, message=message,
                                     event=event)
        self.scheduler.assign(record.id)
        self._pump()
        return (yield event)  # WorkerDied / failure re-raises here

    def admission_limit_bytes(self,
                              service: "QueryService") -> Optional[int]:
        return self._carve

    def describe(self) -> list[dict[str, Any]]:
        rows = []
        for worker_id in sorted(self._slots):
            slot = self._slots[worker_id]
            rows.append({
                "id": worker_id,
                "state": "up" if slot.up else "down",
                "pid": slot.pid,
                "queued": len(self.scheduler.queues[worker_id]),
                "active": self.scheduler.active[worker_id],
                "completed": slot.completed,
                "failed": slot.failed,
                "steals": self.scheduler.steals[worker_id],
                "restarts": slot.restarts,
                "pool_bytes": slot.pool_bytes,
                "peak_rss_bytes": slot.peak_rss_bytes,
            })
        return rows

    def stall_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for slot in self._slots.values():
            for cause, seconds in slot.stalls.items():
                totals[cause] = totals.get(cause, 0.0) + seconds
        return totals

    def queued_jobs(self) -> int:
        return self.scheduler.queued_total()

    @property
    def steals_total(self) -> int:
        return self.scheduler.steals_total


# -- the worker process ------------------------------------------------------
class WorkerHost(ExecutionPlane):
    """One worker process: an execution plane fed over a socket.

    Everything that executes a job is the plane the in-process backend
    calls directly (own kernel and machine world, governed broker with
    pool = the coordinator's carve-out, own admission queue); the host
    adds :meth:`serve`: the ``ready`` handshake, a job per frame read on
    its asyncio loop, the result frame and drain.
    """

    def __init__(self, worker_id: int, config: dict[str, Any]) -> None:
        super().__init__(config["params"], config["seed"],
                         config.get("memory_bytes"),
                         config.get("admission", "none"),
                         name=f"worker-{worker_id}", kernel=AsyncioKernel())
        self.worker_id = worker_id
        self._writer: Optional[asyncio.StreamWriter] = None
        self._waits: dict[str, float] = {}
        self._active = 0
        self._stopping = False
        self._shutdown = self.kernel.event(name=f"worker-{worker_id}-shutdown")

    async def serve(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        """Answer ``ready``, run a job per frame read from ``reader`` and
        write its result to ``writer``.  After ``stop`` or the end of the
        stream, finish the jobs in flight, flush, close and return."""
        import_execution_modules()  # before ready: none once it serves
        self._writer = writer
        reading = asyncio.ensure_future(self._read(reader))
        write_message(writer, {"op": "ready", "worker": self.worker_id,
                               "pool": self.machine.broker.total_bytes,
                               "peak_rss_bytes": peak_rss_bytes()})
        await self.kernel.run(  # type: ignore[call-arg]
            until_event=self._shutdown)
        await reading
        try:
            await writer.drain()  # no result written before exit is lost
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass  # the coordinator is gone: nobody to answer

    async def _read(self, reader: asyncio.StreamReader) -> None:
        try:
            while not self._stopping:
                self._handle(await read_message(reader))
        except (EOFError, ConnectionError):
            # Coordinator went away: finish in-flight work, exit.
            self._begin_stop()

    def _begin_stop(self) -> None:
        self._stopping = True
        self._maybe_shutdown()

    def _maybe_shutdown(self) -> None:
        if self._stopping and self._active == 0 \
                and not self._shutdown.triggered:
            self._shutdown.succeed()

    def _handle(self, message: dict[str, Any]) -> None:
        op = message.get("op")
        if op == "stop":
            self._begin_stop()
            return
        if op != "job":
            return
        self._active += 1
        process = spawn_main(self.kernel, self._execute(message),
                             f"job:{message['id']}")
        process.add_callback(lambda _event: self._done(message, process))

    def _execute(self, message: dict[str, Any]
                 ) -> Generator[SimEvent, Any, dict[str, Any]]:
        name: str = message["id"]

        def started(_run: Any, waited: float) -> None:
            self._waits[name] = waited

        return (yield from self.execute(
            name, SubmissionRequest.from_json(message["request"]),
            message["sequence"],
            (message["initial"], message["min_bytes"],
             message["max_bytes"]),
            float(message.get("priority") or 0.0), started))

    def _done(self, message: dict[str, Any], process: Any) -> None:
        self._active -= 1
        wait_s = self._waits.pop(message["id"], 0.0)
        stalls = self.machine.telemetry.stalls.by_cause()
        out: dict[str, Any] = {"op": "result", "id": message["id"],
                               "wait_s": wait_s, "stalls": stalls,
                               "peak_rss_bytes": peak_rss_bytes()}
        if process.failure is not None:
            out.update(ok=False, error=repr(process.failure))
        else:
            out.update(ok=True, payload=process.value)
        assert self._writer is not None
        write_message(self._writer, out)  # dropped if the coordinator is gone
        self._maybe_shutdown()


def _reap(process: "subprocess.Popen[bytes]", grace_s: float) -> None:
    """Wait for a worker child, killing it after ``grace_s`` seconds: a
    child nobody waits for stays in the tree as a zombie."""
    try:
        process.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def worker_main(fd: int) -> None:
    """Entry point of one pool worker child: serves on the inherited
    socket ``fd``, whose first message is ``(worker id, config)``."""
    async def main() -> None:
        reader, writer = await asyncio.open_connection(
            sock=socket.socket(fileno=fd))
        worker_id, config = await read_message(reader)
        await WorkerHost(worker_id, config).serve(reader, writer)

    asyncio.run(main())
