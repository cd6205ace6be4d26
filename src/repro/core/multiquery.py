"""Multi-query execution on one mediator (the paper's future work).

Section 6: "We also plan to study the behavior of our approach in the
context of multi-query execution.  As soon as we consider such context,
we face the classical tradeoff between throughput and response time."

:class:`MultiQueryEngine` runs several queries concurrently on one
simulated machine: the CPU, disks, page cache and (optionally) the
inbound link are shared; each query keeps its own wrappers, queues,
rate estimation, memory budget, and its own DQO → DQS → DQP stack.
Contention arises naturally from the shared resources — no additional
scheduler is needed above the per-query engines, which is exactly the
setting the paper's discussion contemplates.

**Memory governance** (``global_memory_bytes``): by default every query
gets a private static budget, as in the paper.  With a global pool the
machine's :class:`~repro.resources.broker.MemoryBroker` is bounded and an
:class:`~repro.resources.admission.AdmissionController` queues
submissions whose declared minimum working set does not fit, admitting
them FIFO (or by priority) as running queries release their leases.
Combined with ``dynamic_budget_replanning`` the released bytes are also
*offered* to running queries, whose DQS then re-plans against the grown
budget.  Both this engine and the service's execution plane run every
query through :meth:`GovernedMachine.run_query`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Optional

from repro.catalog.catalog import Catalog
from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.core.dqs import PlanningPolicy
from repro.core.engine import (
    QueryRun,
    main_value,
    seeded_wrappers,
    spawn_main,
)
from repro.core.events import EndOfQEP
from repro.core.runtime import World
from repro.exec import Kernel, SimEvent
from repro.observability import (
    SPAN_ADMISSION_WAIT,
    STALL_ADMISSION_WAIT,
    DecisionRecord,
)
from repro.plan.qep import QEP
from repro.plan.validation import validate_qep
from repro.resources import (
    AdmissionController,
    MemoryBroker,
    check_governance,
)
from repro.wrappers.delays import DelayModel
from repro.wrappers.source import Wrapper


class LeaseBudgets:
    """The optional memory budget of a submission, for the dataclasses
    that declare these three fields (here and in the service)."""

    #: per-query memory budget; None uses the configured default.
    memory_bytes: Optional[int]
    #: minimum working set the query can *start* with (admission gate);
    #: defaults to the initial budget.
    min_memory_bytes: Optional[int]
    #: budget ceiling the lease may grow to via broker offers; defaults
    #: to the initial budget (i.e. static, as in the paper).
    max_memory_bytes: Optional[int]

    def check_budgets(self, prefix: str = "") -> None:
        """Reject a non-positive budget and ``min`` above ``max``."""
        for label in ("memory_bytes", "min_memory_bytes",
                      "max_memory_bytes"):
            value = getattr(self, label)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{prefix}{label} must be positive, got {value}")
        if (self.min_memory_bytes is not None
                and self.max_memory_bytes is not None
                and self.min_memory_bytes > self.max_memory_bytes):
            raise ConfigurationError(
                f"{prefix}min_memory_bytes {self.min_memory_bytes} "
                f"exceeds max_memory_bytes {self.max_memory_bytes}")

    def resolved_budgets(self, params: SimulationParameters) -> tuple[
            int, int, int]:
        """``(initial, min, max)`` lease bytes with defaults applied."""
        initial = (self.memory_bytes if self.memory_bytes is not None
                   else params.query_memory_bytes)
        min_bytes = (self.min_memory_bytes
                     if self.min_memory_bytes is not None else initial)
        max_bytes = (self.max_memory_bytes
                     if self.max_memory_bytes is not None else initial)
        initial = min(max(initial, min_bytes), max_bytes)
        return initial, min_bytes, max_bytes


@dataclass
class QuerySubmission(LeaseBudgets):
    """One query to run: plan, policy, sources and arrival time."""

    name: str
    catalog: Catalog
    qep: QEP
    policy: PlanningPolicy
    delay_models: Mapping[str, DelayModel]
    start_time: float = 0.0
    memory_bytes: Optional[int] = None
    min_memory_bytes: Optional[int] = None
    max_memory_bytes: Optional[int] = None
    #: admission priority (higher admits first under ``priority`` policy).
    priority: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("submission needs a name")
        if not (math.isfinite(self.start_time) and self.start_time >= 0):
            raise ConfigurationError(
                f"query {self.name!r}: start_time must be finite and "
                f">= 0, got {self.start_time}")
        self.check_budgets(f"query {self.name!r}: ")
        if self.memory_bytes is not None:
            if (self.min_memory_bytes is not None
                    and self.memory_bytes < self.min_memory_bytes):
                raise ConfigurationError(
                    f"query {self.name!r}: memory_bytes {self.memory_bytes} "
                    f"below min_memory_bytes {self.min_memory_bytes}")
            if (self.max_memory_bytes is not None
                    and self.memory_bytes > self.max_memory_bytes):
                raise ConfigurationError(
                    f"query {self.name!r}: memory_bytes {self.memory_bytes} "
                    f"exceeds max_memory_bytes {self.max_memory_bytes}")
        validate_qep(self.qep)
        missing = set(self.qep.source_relations()) - set(self.delay_models)
        if missing:
            raise ConfigurationError(
                f"query {self.name!r}: no delay model for {sorted(missing)}")

@dataclass
class QueryOutcome:
    """Per-query measurements of a multi-query run."""

    name: str
    strategy: str
    start_time: float
    completion_time: float
    result_tuples: int
    degradations: int
    memory_splits: int
    stall_time: float
    planning_phases: int
    #: virtual seconds spent queued by admission control before the
    #: lease was granted (0.0 for immediate admission / no governance).
    admission_wait: float = 0.0
    #: lease bytes granted at admission (the initial budget).
    memory_granted_bytes: int = 0
    #: high-water mark of the query's reserved bytes.
    memory_peak_bytes: int = 0
    #: lease grow offers the query accepted mid-flight.
    budget_grows: int = 0

    @property
    def response_time(self) -> float:
        """Arrival to completion — queue wait included."""
        return self.completion_time - self.start_time


@dataclass
class MultiQueryResult:
    """Aggregate outcome of one multi-query run."""

    outcomes: list[QueryOutcome]
    makespan: float
    cpu_busy_time: float
    disk_busy_time: float
    #: the machine's decision audit log (admission, lease grow/shrink,
    #: degradations of every query interleaved in decision-time order).
    decisions: list[DecisionRecord] = field(default_factory=list)
    #: the machine-wide causal span tree (every query's spans, plus the
    #: admission waits that link them); ``None`` when spans were off.
    spans: Optional[list] = None

    @property
    def mean_response_time(self) -> float:
        if not self.outcomes:
            return 0.0
        return (sum(o.response_time for o in self.outcomes)
                / len(self.outcomes))

    @property
    def max_response_time(self) -> float:
        return max((o.response_time for o in self.outcomes), default=0.0)

    @property
    def throughput(self) -> float:
        """Completed queries per (virtual) second."""
        if self.makespan <= 0:
            return 0.0
        return len(self.outcomes) / self.makespan

    @property
    def cpu_utilization(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.cpu_busy_time / self.makespan

    @property
    def queued_queries(self) -> int:
        """Queries that had to wait in the admission queue."""
        return sum(1 for o in self.outcomes if o.admission_wait > 0)

    @property
    def mean_admission_wait(self) -> float:
        if not self.outcomes:
            return 0.0
        return (sum(o.admission_wait for o in self.outcomes)
                / len(self.outcomes))

class GovernedMachine:
    """N queries on one machine :class:`World` (on ``kernel``, a fresh
    ``Simulator`` when None), and the one way a query runs on it.

    A pool size and an admission policy bound the machine's broker and
    queue submissions in front of it (see :func:`check_governance`);
    ``name`` labels the broker's gauges.  No metrics registry: no caller
    returns one.  Spans, stalls and the audit log stay on.
    """

    def __init__(self, params: SimulationParameters, seed: int,
                 memory_bytes: Optional[int], admission: str,
                 name: str = "mediator",
                 kernel: Optional[Kernel] = None) -> None:
        self.machine = World(params.with_overrides(telemetry_enabled=False),
                             seed=seed, kernel=kernel)
        self.kernel = self.machine.sim
        self.controller: Optional[AdmissionController] = None
        if check_governance(memory_bytes, admission):
            machine = self.machine
            machine.broker = MemoryBroker(memory_bytes, sim=self.kernel,
                                          telemetry=machine.telemetry,
                                          name=name)
            self.controller = AdmissionController(
                machine.broker, self.kernel, telemetry=machine.telemetry,
                policy=admission)

    def run_query(self, name: str, qep: QEP, policy: PlanningPolicy,
                  wrappers: Callable[[World], Callable[[str], Wrapper]],
                  budgets: tuple[int, int, int],
                  started: Callable[[QueryRun, float], None], *,
                  priority: float = 0.0, tenant: str = ""
                  ) -> Generator[SimEvent, Any, tuple[QueryRun, EndOfQEP]]:
        """One query on this machine (``yield from`` me); returns the
        finished run and its :class:`EndOfQEP`.

        Admit (or lease directly when ungoverned) ``budgets``, the
        ``(initial, min, max)`` lease bytes → ``QueryRun`` on a query
        view of the machine → ``started(run, waited)`` before it
        attaches → drive it → stop its sources and give the lease back
        however that ends.  A queueing wait is attributed once: a stall,
        and (spans on) a span the query's span tree names as its cause.
        """
        initial, min_bytes, max_bytes = budgets
        machine, kernel = self.machine, self.kernel
        telemetry = machine.telemetry
        submitted = kernel.now
        waited = 0.0
        wait_span = None
        if self.controller is not None:
            ticket = self.controller.request(name, min_bytes, max_bytes,
                                             priority=priority, tenant=tenant)
            if not ticket.granted:
                assert ticket.event is not None
                yield ticket.event
            lease = ticket.lease
            assert lease is not None
            waited = ticket.waited
            if waited > 0:
                telemetry.stalls.record(STALL_ADMISSION_WAIT, submitted,
                                        kernel.now)
                if telemetry.spans is not None:
                    wait_span = telemetry.spans.add(
                        SPAN_ADMISSION_WAIT, name, submitted, kernel.now,
                        min_bytes=min_bytes)
        else:
            lease = machine.broker.lease(name, initial, min_bytes=min_bytes,
                                         max_bytes=max_bytes, tenant=tenant)
        run: Optional[QueryRun] = None
        try:
            world = World(machine.params, share_machine=machine, lease=lease,
                          query_name=name)
            world.admission_span = wait_span
            run = QueryRun(world, qep, policy, wrappers(world), name=name)
            started(run, waited)
            return run, (yield from run.drive())
        finally:
            if run is not None:
                run.detach()
            machine.broker.release(lease)


class MultiQueryEngine:
    """Runs a batch of query submissions on one shared machine.

    ``global_memory_bytes`` bounds the machine's memory pool and turns
    admission control on (``admission``: ``"fifo"`` or ``"priority"``).
    ``admission="none"`` keeps the legacy private-budget behavior even
    when a pool size is given.
    """

    def __init__(self, params: Optional[SimulationParameters] = None,
                 seed: int = 0,
                 global_memory_bytes: Optional[int] = None,
                 admission: str = "fifo"):
        self.params = params if params is not None else SimulationParameters()
        self.seed = seed
        #: True when a bounded pool with admission control is active.
        self.governed = check_governance(global_memory_bytes, admission)
        self.global_memory_bytes = global_memory_bytes
        self.admission = admission
        self._submissions: list[QuerySubmission] = []

    def submit(self, submission: QuerySubmission) -> None:
        """Queue one query for the next :meth:`run`."""
        if any(existing.name == submission.name
               for existing in self._submissions):
            raise ConfigurationError(
                f"duplicate submission name {submission.name!r}")
        self._submissions.append(submission)

    def run(self) -> MultiQueryResult:
        """Execute every submitted query; returns aggregate results."""
        if not self._submissions:
            raise ConfigurationError("no queries submitted")
        if self.governed:
            pool = self.global_memory_bytes
            assert pool is not None
            for submission in self._submissions:
                _, min_bytes, _ = submission.resolved_budgets(self.params)
                if min_bytes > pool:
                    raise ConfigurationError(
                        f"query {submission.name!r}: minimum working set "
                        f"{min_bytes} exceeds the global memory pool {pool}")
        governed = GovernedMachine(self.params, self.seed,
                                   self.global_memory_bytes, self.admission)
        launchers = [spawn_main(governed.kernel,
                                self._launch(governed, submission),
                                f"query:{submission.name}")
                     for submission in self._submissions]

        governed.kernel.run()

        outcomes = [main_value(launcher) for launcher in launchers]
        makespan = max(o.completion_time for o in outcomes)
        machine = governed.machine
        return MultiQueryResult(
            outcomes=outcomes,
            makespan=makespan,
            cpu_busy_time=machine.cpu.busy_time,
            disk_busy_time=sum(d.busy_time for d in machine.disks),
            decisions=list(machine.telemetry.audit),
            spans=(list(machine.telemetry.spans.spans)
                   if machine.telemetry.spans is not None else None),
        )

    def _launch(self, governed: GovernedMachine, submission: QuerySubmission
                ) -> Generator[SimEvent, Any, QueryOutcome]:
        if submission.start_time > 0:
            yield governed.kernel.timeout(submission.start_time)
        submitted = governed.kernel.now
        at_start: dict[str, Any] = {}

        def started(run: QueryRun, waited: float) -> None:
            # Before the run attaches: the lease may grow once it runs.
            at_start.update(waited=waited,
                            granted=run.world.memory.total_bytes)

        run, end = yield from governed.run_query(
            submission.name, submission.qep, submission.policy,
            lambda world: seeded_wrappers(world, submission.catalog,
                                          submission.delay_models,
                                          f"{submission.name}:"),
            submission.resolved_budgets(self.params), started,
            priority=submission.priority)
        runtime = run.runtime
        return QueryOutcome(
            name=submission.name,
            strategy=submission.policy.name,
            start_time=submitted,
            completion_time=end.time,
            result_tuples=runtime.result_tuples,
            degradations=len(runtime.degraded_chains),
            memory_splits=runtime.memory_splits,
            stall_time=run.processor.stall_time,
            planning_phases=run.scheduler.planning_phases,
            admission_wait=at_start["waited"],
            memory_granted_bytes=at_start["granted"],
            memory_peak_bytes=run.world.memory.peak_bytes,
            budget_grows=run.optimizer.budget_grows,
        )
