"""The execution plane behind the service's control plane.

The *control plane* (tenant gating, refusal accounting, bounded
aggregation, SLOs, archive, drain) is
:class:`~repro.service.service.QueryService`; *what executes an admitted
submission* is an :class:`ExecutionPlane`: a governed machine
(:class:`~repro.core.multiquery.GovernedMachine`) plus the service's
plans, sources and outcome dict.  *Where* that plane sits is behind
the :class:`ExecutionBackend` protocol — two transports over the same
implementation:

* :class:`InProcessBackend` — the service's own plane, called directly
  (``repro serve`` with ``--workers 1``, the default);
* :class:`~repro.service.workers.WorkerPoolBackend` — N worker
  processes, each a plane with a pipe in front
  (:class:`~repro.service.workers.WorkerHost`) and a pool carved from
  the machine broker, fed with least-loaded dispatch and work stealing.

The seam is the :meth:`ExecutionBackend.launch` generator: the control
plane spawns it as a kernel process, so completion flows through the
one ``_finish`` path, and the backend decides what it *waits on* — the
plane's own generator, or a result event triggered by a remote worker.
Either way it returns the plane's outcome dict.
"""

from __future__ import annotations

import resource
import sys
import zlib
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Protocol,
    Tuple,
)

from repro.config import SimulationParameters
from repro.core.engine import QueryRun
from repro.core.multiquery import GovernedMachine
from repro.core.runtime import World
from repro.core.strategies import make_policy
from repro.exec.api import Kernel
from repro.exec.core import SimEvent
from repro.experiments.workloads import Figure5Workload, figure5_workload
from repro.observability import DecisionAuditLog
from repro.wrappers import JitteredDelay, Wrapper

if TYPE_CHECKING:
    from repro.observability.spans import Span
    from repro.service.request import SubmissionRequest
    from repro.service.service import QueryService, SubmissionRecord

#: backend names, as reported in service snapshots / ``/healthz``.
BACKEND_IN_PROCESS = "in-process"
BACKEND_WORKER_POOL = "worker-pool"

#: machine audit-log ring size (decisions, across all submissions).
DEFAULT_AUDIT_CAPACITY = 4096

#: request scales (any positive float a client sends) a plane keeps a
#: built workload, and its plan's compiled forms, for.
WORKLOAD_CACHE_SIZE = 4


def import_execution_modules() -> None:
    """Import what executing a submission imports beyond the modules
    that import the plane: numpy's random module, for its sources'
    draws.

    Every process that executes submissions calls this before it serves
    (a pool worker before ``ready``, the in-process backend at start),
    so no import lands inside a query's latency.  Not in
    :class:`ExecutionPlane`'s constructor: the pool's coordinator builds
    a plane for its broker and never draws.
    """
    import numpy.random  # noqa: F401


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes (``ru_maxrss``
    is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


class ExecutionPlane(GovernedMachine):
    """A governed machine that executes service submissions.

    It adds what is the service's: the Figure 5 plans by scale, each
    submission's seeded sources, a bounded audit ring and the outcome
    dict.  A submission's result is built from its run's own state; the
    machine-wide telemetry (audit ring, stall totals, span recorder)
    stays on :attr:`machine`, bounded, never copied per submission.
    """

    def __init__(self, params: SimulationParameters, seed: int,
                 memory_bytes: Optional[int], admission: str,
                 name: str, kernel: Kernel) -> None:
        super().__init__(params, seed, memory_bytes, admission, name=name,
                         kernel=kernel)
        self.seed = seed
        # Bounded aggregation over the unbounded stream: the machine's
        # audit log becomes a ring before any submission runs.
        self.machine.telemetry.audit = DecisionAuditLog(
            capacity=DEFAULT_AUDIT_CAPACITY)
        # Not an lru_cache on figure5_workload: callers that time a
        # build must keep getting one.  Least recently used first.
        self._workloads: Dict[float, Figure5Workload] = {}

    def workload(self, scale: float) -> Figure5Workload:
        """The Figure 5 plan at ``scale``, built and validated once while
        among the :data:`WORKLOAD_CACHE_SIZE` most recently used scales."""
        workloads = self._workloads
        workload = workloads.pop(scale, None)
        if workload is None:
            workload = figure5_workload(scale=scale)
            if len(workloads) >= WORKLOAD_CACHE_SIZE:
                del workloads[next(iter(workloads))]
        workloads[scale] = workload
        return workload

    def wrappers(self, world: World, request: "SubmissionRequest",
                 sequence: int) -> Callable[[str], Wrapper]:
        """Per-relation factory of one submission's sources on ``world``:
        its delay profile, run by the modelled wrapper.

        Seeded per ``(service seed, request seed, submission sequence,
        relation)``: every submission sees fresh-but-reproducible delays,
        and — because nothing here depends on the executing process — a
        pool worker builds exactly the sources the coordinator would
        have built, so work stealing never changes a result.  (Not
        ``world.rng``: that keeps one generator per label for the life
        of the machine; none at all for a profile that cannot draw.)
        """
        import numpy as np

        catalog = self.workload(request.scale).catalog
        base_wait = request.wait_us * 1e-6

        def make(relation: str) -> Wrapper:
            model = JitteredDelay(
                base_wait * request.slow.get(relation, 1.0), request.jitter)
            rng = np.random.default_rng(
                [self.seed, request.seed, sequence,
                 zlib.crc32(relation.encode())]) if model.draws else None
            return Wrapper(world.sim, catalog.relation(relation), model,
                           world.cm, rng, world.params)
        return make

    def execute(self, name: str, request: "SubmissionRequest",
                sequence: int, budgets: Tuple[int, int, int],
                priority: float,
                started: Callable[[QueryRun, float], None]
                ) -> Generator[SimEvent, Any, Dict[str, Any]]:
        """The kernel-process generator executing one submission here.

        ``started(run, waited)`` fires once the lease is granted, before
        the run attaches.  Returns :meth:`QueryRun.outcome` plus
        ``query_spans``, the submission's own spans (None with spans
        off): the coordinator summarizes them, so a worker never loads
        the summarizer.
        """
        run, end = yield from self.run_query(
            name, self.workload(request.scale).qep,
            make_policy(request.strategy),
            lambda world: self.wrappers(world, request, sequence), budgets,
            started, priority=priority, tenant=request.tenant)
        return dict(run.outcome(end), query_spans=_own_spans(run))


def _own_spans(query: QueryRun) -> Optional[List[Span]]:
    """One submission's spans on a shared recorder: its query span's
    subtree plus the admission wait that delayed it."""
    recorder = query.world.telemetry.spans
    root = query.runtime.query_span
    if recorder is None or root is None:
        return None
    wait = query.world.admission_span
    selected = [recorder.spans[wait]] if wait is not None else []
    # The subtree walk starts at the root, not at the recorder's history.
    selected.extend(recorder.spans.subtree(root))
    return selected


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
               initial: int, min_bytes: int,
               max_bytes: int) -> Generator[SimEvent, Any, Dict[str, Any]]:
        """The kernel-process generator executing one submission.

        Must return the submission's outcome dict (see
        :meth:`ExecutionPlane.execute`) or raise; the control plane's
        completion callback reads it off the process.
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
    """The service's own :class:`ExecutionPlane`, called directly."""

    name = BACKEND_IN_PROCESS

    async def start(self, service: "QueryService") -> None:
        import_execution_modules()

    async def stop(self, service: "QueryService") -> None:
        return None

    def launch(self, service: "QueryService", record: "SubmissionRecord",
               initial: int, min_bytes: int,
               max_bytes: int) -> Generator[SimEvent, Any, Dict[str, Any]]:
        from repro.service.service import STATE_RUNNING

        def started(run: QueryRun, waited: float) -> None:
            record.admission_wait = waited
            record.state = STATE_RUNNING
            record.started_at = service.kernel.wall_now
            record.run = run

        request = record.request
        return (yield from service.plane.execute(
            record.id, request, record.sequence,
            (initial, min_bytes, max_bytes),
            service.tenants.priority_for(request.tenant, request.priority),
            started))

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
