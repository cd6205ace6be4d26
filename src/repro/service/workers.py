"""The sharded execution plane: a work-stealing worker-process pool.

``repro serve --workers N`` splits query execution across N long-lived
worker processes, each an :class:`~repro.service.backend.
ExecutionPlane` — the single-kernel governed machine the in-process
backend calls directly — behind a pipe (:class:`WorkerHost`), with a
memory pool carved out of the coordinator's machine-level
:class:`~repro.resources.broker.MemoryBroker`
(:meth:`~repro.resources.broker.MemoryBroker.carve_even`).  The
coordinator keeps the whole control plane — tenant gating, refusal
accounting, SLOs, archive, drain — and this module supplies the
:class:`~repro.service.backend.ExecutionBackend` that moves admitted
submissions to the fleet and folds their telemetry back.

Topology::

    QueryService (control plane, one asyncio loop)
      └─ WorkerPoolBackend
           ├─ PoolScheduler         per-worker queues, least-loaded
           │                        assignment, work stealing (pure,
           │                        deterministic, unit-testable)
           ├─ reader thread         multiprocessing.connection.wait over
           │                        every worker pipe + a self-wake pipe
           └─ worker 0..N-1         spawn-context Process running
                                    worker_main: an ExecutionPlane (own
                                    kernel, broker with pool = carve,
                                    admission queue) + pipe reader

Wire protocol (one duplex :func:`multiprocessing.Pipe` per worker,
pickled dicts):

* coordinator → worker: ``{"op": "job", "id", "request", "sequence",
  "priority", "initial", "min_bytes", "max_bytes", "stolen"}`` and
  ``{"op": "stop"}``.
* worker → coordinator: ``{"op": "ready", "worker", "pool", "pid"}``
  and ``{"op": "result", "id", "ok", "payload"|"error", "wait_s",
  "stalls"}`` where ``payload`` is the submission's outcome dict
  (:meth:`~repro.service.backend.ExecutionPlane.execute`, which runs it
  through :meth:`~repro.core.multiquery.GovernedMachine.run_query`: five
  headline numbers, ``memory_peak_bytes``, ``span_summary``) — constant
  size, whatever the worker's uptime; its machine-wide telemetry stays
  worker-side except the cumulative per-cause ``stalls`` totals.

Determinism despite stealing: a submission's sources are seeded per
``(service seed, request seed, submission sequence, relation)`` — see
:meth:`~repro.service.backend.ExecutionPlane.wrappers` — so its result
does not depend on *which* worker executed it.

Failure semantics: a worker that dies (EOF/OSError on its pipe) fails
every submission it had in flight with :class:`WorkerDied` (the error
string carries ``worker-died``), bumps its restart counter, and is
respawned with a fresh pipe; submissions still queued coordinator-side
are untouched and simply get dispatched — or stolen — elsewhere.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.engine import spawn_main
from repro.exec.aio import AsyncioKernel
from repro.exec.core import SimEvent
from repro.service.backend import BACKEND_WORKER_POOL, ExecutionPlane

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
        self.queues: Dict[int, Deque[str]] = {wid: deque() for wid in ids}
        self.active: Dict[int, int] = {wid: 0 for wid in ids}
        self.steals: Dict[int, int] = {wid: 0 for wid in ids}
        #: job -> worker whose queue currently holds it (queued only).
        self.assigned: Dict[str, int] = {}
        #: workers that cannot run their own queue (dead or respawning).
        self.down: Set[int] = set()
        #: assignment tie order: the worker after the last one chosen first.
        self._turns: Deque[int] = deque(ids)

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

    def next_for(self, worker_id: int) -> Optional[Tuple[str, bool]]:
        """``(job, stolen)`` this worker should run next, or None.

        None when the worker's window is full or there is nothing it
        may run.  The steal source is the longest *queue* (not backlog:
        active jobs cannot move); an up owner with room runs its own.
        """
        if self.active[worker_id] >= self.window:
            return None
        stolen = False
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
            stolen = True
        del self.assigned[job_id]
        self.active[worker_id] += 1
        return job_id, stolen

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
    process: Optional[Any] = None
    conn: Optional[Any] = None
    up: bool = False
    pid: Optional[int] = None
    restarts: int = 0
    completed: int = 0
    failed: int = 0
    pool_bytes: Optional[int] = None
    #: submissions sent to this worker and not yet answered.
    inflight: Set[str] = field(default_factory=set)
    #: the worker machine's cumulative stall seconds by cause (latest).
    stalls: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Job:
    """One submission travelling through the pool."""

    record: "SubmissionRecord"
    message: Dict[str, Any]
    event: SimEvent
    worker: Optional[int] = None


class WorkerPoolBackend:
    """N worker processes behind one control plane (see module doc)."""

    name = BACKEND_WORKER_POOL

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.scheduler = PoolScheduler(range(workers))
        self._slots: Dict[int, _WorkerSlot] = {
            wid: _WorkerSlot(wid) for wid in range(workers)}
        self._jobs: Dict[str, _Job] = {}
        self._service: Optional["QueryService"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ctx = multiprocessing.get_context("spawn")
        self._reader: Optional[threading.Thread] = None
        self._reader_stop = False
        self._lock = threading.Lock()
        self._stopping = False
        self._carve: Optional[int] = None
        self._leases: List["MemoryLease"] = []
        self._ready: Dict[int, asyncio.Event] = {}
        self._wake_r: Optional[Any] = None
        self._wake_w: Optional[Any] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self, service: "QueryService") -> None:
        self._service = service
        self._loop = asyncio.get_running_loop()
        self._ready = {wid: asyncio.Event() for wid in range(self.workers)}
        if service.governed:
            # The machine broker's whole spare pool becomes N static
            # worker carve-outs; the coordinator holds the leases so the
            # machine pool gauges show the fleet's footprint.
            self._leases = service.machine.broker.carve_even(self.workers)
            if self._leases:
                self._carve = min(lease.total_bytes
                                  for lease in self._leases)
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        for wid in range(self.workers):
            self._spawn(wid)
        self._reader = threading.Thread(target=self._read_loop,
                                        name="worker-pool-reader",
                                        daemon=True)
        self._reader.start()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(event.wait()
                                 for event in self._ready.values())),
                timeout=DEFAULT_START_TIMEOUT_S)
        except asyncio.TimeoutError:
            missing = sorted(wid for wid, event in self._ready.items()
                             if not event.is_set())
            raise SimulationError(
                f"worker pool failed to start: worker(s) {missing} sent "
                f"no ready handshake in {DEFAULT_START_TIMEOUT_S:.0f}s") \
                from None

    def _worker_config(self) -> Dict[str, Any]:
        assert self._service is not None
        service = self._service
        return {
            "params": service.params,
            "seed": service.seed,
            "memory_bytes": self._carve,
            "admission": service.admission,
        }

    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, self._worker_config()),
            name=f"repro-worker-{worker_id}", daemon=True)
        process.start()
        child_conn.close()
        with self._lock:
            slot = self._slots[worker_id]
            slot.process = process
            slot.conn = parent_conn
            slot.up = False
        self._wake()

    def _wake(self) -> None:
        if self._wake_w is not None:
            try:
                self._wake_w.send_bytes(b"w")
            except (OSError, ValueError):
                pass

    async def stop(self, service: "QueryService") -> None:
        self._stopping = True
        with self._lock:
            conns = [slot.conn for slot in self._slots.values()
                     if slot.conn is not None]
        for conn in conns:
            try:
                conn.send({"op": "stop"})
            except (OSError, ValueError, BrokenPipeError):
                pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._join_all)
        with self._lock:
            self._reader_stop = True
        self._wake()
        if self._reader is not None:
            self._reader.join(timeout=5.0)
            self._reader = None
        for pipe_end in (self._wake_r, self._wake_w):
            if pipe_end is not None:
                pipe_end.close()
        self._wake_r = self._wake_w = None
        for lease in self._leases:
            service.machine.broker.release(lease)
        self._leases = []

    def _join_all(self) -> None:
        with self._lock:
            slots = list(self._slots.values())
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            slot.up = False
        with self._lock:
            for slot in slots:
                if slot.conn is not None:
                    try:
                        slot.conn.close()
                    except OSError:
                        pass
                    slot.conn = None

    # -- reader thread -------------------------------------------------------
    def _post(self, callback: Any, *args: Any) -> None:
        """Marshal onto the service loop; swallow a closed loop (the
        host crashed out without :meth:`stop` — nothing to notify)."""
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            with self._lock:
                self._reader_stop = True

    def _read_loop(self) -> None:
        assert self._loop is not None
        while True:
            with self._lock:
                if self._reader_stop:
                    return
                conns = {slot.conn: wid
                         for wid, slot in self._slots.items()
                         if slot.conn is not None}
            wait_on: List[Any] = list(conns)
            if self._wake_r is not None:
                wait_on.append(self._wake_r)
            if not wait_on:
                return
            try:
                ready = multiprocessing.connection.wait(wait_on,
                                                        timeout=1.0)
            except OSError:
                continue  # a pipe died mid-wait; re-snapshot and retry
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        self._wake_r.recv_bytes()
                    except (EOFError, OSError):
                        return
                    continue
                worker_id = conns.get(conn)
                if worker_id is None:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    with self._lock:
                        slot = self._slots[worker_id]
                        if slot.conn is conn:
                            slot.conn = None
                    try:
                        conn.close()
                    except OSError:
                        pass
                    self._post(self._on_death, worker_id)
                    continue
                self._post(self._on_message, worker_id, message)

    # -- loop-side message handling ------------------------------------------
    def _on_message(self, worker_id: int, message: Dict[str, Any]) -> None:
        op = message.get("op")
        slot = self._slots[worker_id]
        if op == "ready":
            slot.up = True
            self.scheduler.down.discard(worker_id)
            slot.pid = message.get("pid")
            slot.pool_bytes = message.get("pool")
            event = self._ready.get(worker_id)
            if event is not None:
                event.set()
            self._pump()
        elif op == "result":
            self._on_result(worker_id, slot, message)

    def _on_result(self, worker_id: int, slot: _WorkerSlot,
                   message: Dict[str, Any]) -> None:
        job_id = message.get("id")
        stalls = message.get("stalls")
        if isinstance(stalls, dict):
            slot.stalls = stalls
        job = self._jobs.pop(job_id, None) if isinstance(job_id, str) \
            else None
        if job is None:
            return  # raced a death verdict; the job already failed
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
            return
        slot.restarts += 1
        if slot.restarts <= DEFAULT_MAX_RESTARTS:
            self._spawn(worker_id)
        # Jobs still queued for the dead worker stay queued: living
        # peers steal them right now, the respawn drains the rest.
        self._pump()
        if not any(s.up or (s.conn is not None) for s in
                   self._slots.values()):
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
                if not slot.up or slot.conn is None:
                    continue
                item = self.scheduler.next_for(worker_id)
                if item is None:
                    continue
                job_id, stolen = item
                job = self._jobs.get(job_id)
                if job is None:
                    self.scheduler.finished(worker_id)
                    continue
                self._dispatch(worker_id, slot, job, stolen)
                progress = True

    def _dispatch(self, worker_id: int, slot: _WorkerSlot, job: _Job,
                  stolen: bool) -> None:
        from repro.service.service import STATE_RUNNING

        assert self._service is not None
        job.worker = worker_id
        slot.inflight.add(job.record.id)
        record = job.record
        record.state = STATE_RUNNING
        record.started_at = self._service.kernel.wall_now
        record.worker_id = worker_id
        try:
            assert slot.conn is not None
            slot.conn.send(dict(job.message, stolen=stolen))
        except (OSError, ValueError, BrokenPipeError):
            # The pipe is gone; the reader thread's EOF turns this into
            # a death verdict which fails the job we just marked
            # in-flight — exactly the worker-died semantics.
            pass

    # -- ExecutionBackend ----------------------------------------------------
    def launch(self, service: "QueryService", record: "SubmissionRecord",
               initial: int, min_bytes: int,
               max_bytes: int) -> Generator[SimEvent, Any, Dict[str, Any]]:
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

    def describe(self) -> List[Dict[str, Any]]:
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
            })
        return rows

    def stall_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
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
    """One worker process: an execution plane fed over a pipe.

    Everything that executes a job is the plane the in-process backend
    calls directly (own kernel and machine world, governed broker with
    pool = the coordinator's carve-out, own admission queue); the host
    adds the pipe reader thread marshalling messages onto its asyncio
    loop, the ``ready`` handshake, the result message and drain.
    """

    def __init__(self, worker_id: int, conn: Any,
                 config: Dict[str, Any]) -> None:
        super().__init__(config["params"], config["seed"],
                         config.get("memory_bytes"),
                         config.get("admission", "none"),
                         name=f"worker-{worker_id}", kernel=AsyncioKernel())
        self.worker_id = worker_id
        self.conn = conn
        self._waits: Dict[str, float] = {}
        self._active = 0
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = self.kernel.event(name=f"worker-{worker_id}-shutdown")

    def run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        run_task = asyncio.ensure_future(self.kernel.run(
            until_event=self._shutdown))  # type: ignore[call-arg]
        reader = threading.Thread(target=self._read_loop,
                                  name="job-reader", daemon=True)
        reader.start()
        self.conn.send({"op": "ready", "worker": self.worker_id,
                        "pool": self.machine.broker.total_bytes,
                        "pid": os.getpid()})
        await run_task
        try:
            self.conn.close()
        except OSError:
            pass

    def _read_loop(self) -> None:
        assert self._loop is not None
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                # Coordinator went away: finish in-flight work, exit.
                self._loop.call_soon_threadsafe(self._begin_stop)
                return
            self._loop.call_soon_threadsafe(self._handle, message)

    def _begin_stop(self) -> None:
        self._stopping = True
        self._maybe_shutdown()

    def _maybe_shutdown(self) -> None:
        if self._stopping and self._active == 0 \
                and not self._shutdown.triggered:
            self._shutdown.succeed()

    def _handle(self, message: Dict[str, Any]) -> None:
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

    def _execute(self, message: Dict[str, Any]
                 ) -> Generator[SimEvent, Any, Dict[str, Any]]:
        from repro.service.service import SubmissionRequest

        name: str = message["id"]

        def started(_run: Any, waited: float) -> None:
            self._waits[name] = waited

        return (yield from self.execute(
            name, SubmissionRequest.from_json(message["request"]),
            message["sequence"],
            (message["initial"], message["min_bytes"],
             message["max_bytes"]),
            float(message.get("priority") or 0.0), started))

    def _done(self, message: Dict[str, Any], process: Any) -> None:
        self._active -= 1
        wait_s = self._waits.pop(message["id"], 0.0)
        stalls = self.machine.telemetry.stalls.by_cause()
        if process.failure is not None:
            out: Dict[str, Any] = {
                "op": "result", "id": message["id"], "ok": False,
                "error": repr(process.failure), "wait_s": wait_s,
                "stalls": stalls,
            }
        else:
            out = {"op": "result", "id": message["id"], "ok": True,
                   "payload": process.value, "wait_s": wait_s,
                   "stalls": stalls}
        try:
            self.conn.send(out)
        except (OSError, ValueError, BrokenPipeError):
            pass  # coordinator is gone; drain and exit
        self._maybe_shutdown()


def worker_main(worker_id: int, conn: Any,
                config: Dict[str, Any]) -> None:
    """Process entry point for one pool worker (spawn context)."""
    WorkerHost(worker_id, conn, config).run()
