"""The execution plane behind the service's control plane.

PR 7 fused the two planes: :class:`~repro.service.service.QueryService`
owned one :class:`~repro.exec.aio.AsyncioKernel` and ran every admitted
submission on it directly.  This module splits them.  The *control
plane* (tenant gating, admission, machine-level memory governance,
bounded aggregation, SLOs, archive, drain) stays in ``QueryService``;
*where the query actually executes* is behind the
:class:`ExecutionBackend` protocol:

* :class:`InProcessBackend` — the submission passes the coordinator's
  :func:`~repro.resources.admission.admitted` bracket and becomes a
  :class:`~repro.core.engine.QueryRun` on the service's own kernel,
  telemetry is recorded in place.  ``repro serve`` with ``--workers 1`` (the
  default) routes here and is bit-identical to the pre-split service.
* :class:`~repro.service.workers.WorkerPoolBackend` — the sharded
  plane: N worker processes, each with its own long-lived kernel and a
  :class:`~repro.resources.broker.MemoryLease` carved from the machine
  broker, fed over a :mod:`multiprocessing` pipe wire protocol with
  least-loaded dispatch and work stealing.

The seam is the :meth:`ExecutionBackend.launch` generator: the control
plane spawns it as a kernel process (so completion flows through the
unchanged ``_finish`` path — latency window, tenant accounting, SLO
observation, archive outcome records), and the backend decides what the
generator *waits on*: an in-process engine join, or a result event
triggered by a remote worker.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Protocol,
)

from repro.core.engine import QueryRun
from repro.core.strategies import make_policy
from repro.exec.core import SimEvent
from repro.exec.live import live_wrappers
from repro.resources import admitted

if TYPE_CHECKING:
    from repro.core.engine import ExecutionResult
    from repro.core.runtime import World
    from repro.experiments.workloads import Figure5Workload
    from repro.service.service import QueryService, SubmissionRecord

#: backend names, as reported in service snapshots / ``/healthz``.
BACKEND_IN_PROCESS = "in-process"
BACKEND_WORKER_POOL = "worker-pool"


class ExecutionBackend(Protocol):
    """Where admitted submissions run; the control plane's only view.

    One backend instance serves one :class:`QueryService` for its whole
    lifetime.  All methods except :meth:`stop` run on the service's
    asyncio loop; implementations must not block it.
    """

    #: stable backend identifier (snapshot / healthz field).
    name: str

    async def start(self, service: "QueryService") -> None:
        """Bring the execution plane up (spawn workers, carve leases)."""

    async def stop(self, service: "QueryService") -> None:
        """Tear the execution plane down (drain ran; nothing in flight)."""

    def launch(self, service: "QueryService", record: "SubmissionRecord",
               workload: "Figure5Workload", initial: int, min_bytes: int,
               max_bytes: int) -> Generator[SimEvent, Any, Any]:
        """The kernel-process generator executing one submission.

        Must return the submission's ExecutionResult (or raise); the
        control plane's completion callback reads it off the process.
        """

    def admission_limit_bytes(self,
                              service: "QueryService") -> Optional[int]:
        """Largest minimum working set any submission could ever admit.

        None when unbounded.  The in-process backend answers the global
        pool; a sharded backend answers one worker's carve-out — a query
        whose minimum exceeds it could never run anywhere and is
        refused up front.
        """

    def describe(self) -> List[Dict[str, Any]]:
        """Per-worker liveness/backlog rows (empty for in-process)."""

    def stall_totals(self) -> Dict[str, float]:
        """Stall seconds by cause accumulated *off* the machine
        telemetry (remote workers); empty for in-process."""

    def queued_jobs(self) -> int:
        """Submissions held in backend dispatch queues (0 in-process)."""

    @property
    def steals_total(self) -> int:
        """Jobs executed by a worker other than the one first assigned."""


class InProcessBackend:
    """The single-kernel execution plane.

    :meth:`launch` is the one query lifecycle on the shared kernel:
    :func:`~repro.resources.admission.admitted` (coordinator-side
    admission, lease, query-view ``World``, release) around one
    :class:`QueryRun` over live wrappers.
    """

    name = BACKEND_IN_PROCESS

    async def start(self, service: "QueryService") -> None:
        return None

    async def stop(self, service: "QueryService") -> None:
        return None

    def launch(self, service: "QueryService", record: "SubmissionRecord",
               workload: "Figure5Workload", initial: int, min_bytes: int,
               max_bytes: int) -> Generator[SimEvent, Any, Any]:
        from repro.service.service import STATE_RUNNING, submission_sources

        request = record.request

        def run(world: "World", waited: float
                ) -> Generator[SimEvent, Any, "ExecutionResult"]:
            record.admission_wait = waited
            record.state = STATE_RUNNING
            record.started_at = service.kernel.wall_now
            query = record.run = QueryRun(
                world, workload.qep, make_policy(request.strategy),
                live_wrappers(world, submission_sources(
                    service.seed, service.params, workload, request,
                    record.sequence)),
                name=record.id)
            result = yield from query.join()
            result.submission_id = record.id
            result.tenant = request.tenant
            return result

        # Query-view worlds skip per-query gauges: the registry must not
        # grow with the submission stream.
        return (yield from admitted(
            service.machine, service.controller, record.id,
            (initial, min_bytes, max_bytes), run,
            priority=service.tenants.priority_for(request.tenant,
                                                  request.priority),
            tenant=request.tenant, attach_memory_metrics=False))

    def admission_limit_bytes(self,
                              service: "QueryService") -> Optional[int]:
        return service.global_memory_bytes

    def describe(self) -> List[Dict[str, Any]]:
        return []

    def stall_totals(self) -> Dict[str, float]:
        return {}

    def queued_jobs(self) -> int:
        return 0

    @property
    def steals_total(self) -> int:
        return 0
