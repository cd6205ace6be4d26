"""The query engine: one execution end to end, on any kernel.

:class:`QueryRun` is the one query lifecycle: it starts the wrapper
processes, wires DQO → DQS → DQP around the chosen planning policy,
checks completion and collects an :class:`ExecutionResult`.
:class:`QueryEngine` is its one-shot front-end: a fresh simulated
:class:`World`, one run, the simulation driven to completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    Iterable,
    Mapping,
    Optional,
)

from repro.catalog.catalog import Catalog
from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.core.dqo import DynamicQEPOptimizer
from repro.core.dqp import DynamicQueryProcessor
from repro.core.dqs import DynamicQueryScheduler, PlanningPolicy
from repro.core.events import EndOfQEP
from repro.core.runtime import QueryRuntime, World
from repro.core.statistics import RuntimeStatistics
from repro.core.strategies.lwb import lower_bound
from repro.exec import Kernel, Process, SimEvent
from repro.observability import (
    CounterMetric,
    DecisionRecord,
    MetricsRegistry,
    Span,
)
from repro.plan.qep import QEP
from repro.plan.validation import validate_qep
from repro.wrappers.delays import DelayModel
from repro.wrappers.source import Wrapper

if TYPE_CHECKING:
    from repro.observability.sampling import SamplePoint


@dataclass(frozen=True)
class FragmentStat:
    """Lifecycle summary of one query fragment."""

    name: str
    kind: str
    chain: str
    started_at: Optional[float]
    finished_at: Optional[float]
    tuples_in: int
    tuples_out: int
    batches: int
    cpu_seconds: float

@dataclass
class ExecutionResult:
    """Everything measured during one simulated execution."""

    strategy: str
    response_time: float
    result_tuples: int
    #: virtual time at which the first result tuple was produced (None
    #: for an empty result) — the metric operator-level adaptation
    #: optimizes for.
    time_to_first_tuple: Optional[float] = None
    # Engine behaviour.
    planning_phases: int = 0
    context_switches: int = 0
    batches_processed: int = 0
    stall_time: float = 0.0
    degradations: int = 0
    memory_splits: int = 0
    timeouts: int = 0
    rate_change_events: int = 0
    # Resource usage.
    cpu_busy_time: float = 0.0
    cpu_utilization: float = 0.0
    disk_busy_time: float = 0.0
    disk_ios: int = 0
    disk_seeks: int = 0
    cache_hit_ratio: float = 0.0
    memory_peak_bytes: int = 0
    tuples_spilled: int = 0
    tuples_reloaded: int = 0
    # Per-wrapper detail: name -> (tuples sent, production time, blocked time).
    wrapper_stats: dict[str, tuple[int, float, float]] = field(default_factory=dict)
    #: lifecycle of every fragment the execution created.
    fragment_stats: dict[str, FragmentStat] = field(default_factory=dict)
    #: joins flagged by the DQO as re-optimization opportunities.
    reopt_opportunities: list[str] = field(default_factory=list)
    #: joins whose sides the DQO swapped (enable_reoptimization).
    reopt_swaps: list[str] = field(default_factory=list)
    #: observed runtime statistics (cardinalities, rate history).
    statistics: Optional["RuntimeStatistics"] = None
    #: idle-time breakdown by cause; its values sum to ``stall_time``.
    stall_breakdown: dict[str, float] = field(default_factory=dict)
    #: scheduler decisions with the inputs that drove them.
    decisions: list[DecisionRecord] = field(default_factory=list)
    #: periodic occupancy samples (telemetry sampling enabled only).
    samples: list[SamplePoint] = field(default_factory=list)
    #: the run's metrics registry (None when telemetry was disabled).
    metrics: Optional[MetricsRegistry] = None
    #: causal span tree of the run (``telemetry_spans`` enabled only).
    spans: Optional[list[Span]] = None

    def stall_by_cause(self) -> dict[str, float]:
        """Stall breakdown sorted largest first."""
        return dict(sorted(self.stall_breakdown.items(),
                           key=lambda item: (-item[1], item[0])))

    def summary(self) -> str:
        """One line suitable for experiment logs."""
        return (f"{self.strategy}: {self.response_time:.3f}s "
                f"({self.result_tuples} tuples, cpu {self.cpu_utilization:.0%}, "
                f"stall {self.stall_time:.3f}s, {self.degradations} degradations, "
                f"{self.tuples_spilled} spilled)")

    def timeline(self) -> list[FragmentStat]:
        """Fragment lifecycle rows ordered by start time (never-started
        fragments last)."""
        return sorted(self.fragment_stats.values(),
                      key=lambda s: (s.started_at is None,
                                     s.started_at or 0.0, s.name))

    def render_timeline(self) -> str:
        """A printable per-fragment schedule (for reports/examples)."""
        lines = [f"{'fragment':<12} {'kind':<5} {'start':>9} {'end':>9} "
                 f"{'in':>9} {'out':>9} {'cpu s':>8}"]
        for stat in self.timeline():
            start = f"{stat.started_at:.3f}" if stat.started_at is not None else "-"
            end = f"{stat.finished_at:.3f}" if stat.finished_at is not None else "-"
            lines.append(f"{stat.name:<12} {stat.kind:<5} {start:>9} {end:>9} "
                         f"{stat.tuples_in:>9} {stat.tuples_out:>9} "
                         f"{stat.cpu_seconds:>8.3f}")
        return "\n".join(lines)


def spawn_main(kernel: Kernel, generator: Generator[SimEvent, Any, Any],
               name: str) -> Process:
    """Start a front-end's driving process on ``kernel``.

    Born defused: whoever started it reads its failure itself (see
    :func:`main_value`) instead of the kernel's unhandled-failure
    backstop wrapping it first.
    """
    main = kernel.process(generator, name=name)
    main.defused = True
    return main


def main_value(main: Process) -> Any:
    """What a finished main process returned; its failure re-raised."""
    if not main.triggered:
        raise SimulationError(f"process {main.name!r} has not finished")
    if main.failure is not None:
        raise main.failure
    return main.value


def seeded_wrappers(world: World, catalog: Catalog,
                    delay_models: Mapping[str, DelayModel],
                    stream_prefix: str = "") -> Callable[[str], Wrapper]:
    """Per-relation factory of simulated wrappers on ``world``.

    Each wrapper draws from the world's RNG stream
    ``<stream_prefix>wrapper:<relation>`` — seeded output depends on that
    label, so one-shot front-ends pass no prefix and the multi-query
    launcher passes ``"<query name>:"``.
    """
    def make(relation: str) -> Wrapper:
        model = delay_models[relation]
        reset = getattr(model, "reset", None)
        if reset is not None:
            reset()  # one-shot models re-arm between repetitions
        return Wrapper(world.sim, catalog.relation(relation), model,
                       world.cm,
                       world.rng(f"{stream_prefix}wrapper:{relation}"),
                       world.params)
    return make


def start_wrappers(relations: Iterable[str],
                   make_wrapper: Callable[[str], Any],
                   started: list[Any]) -> None:
    """Build and start one wrapper per source relation, in plan order.

    Each lands in ``started`` as soon as it runs, so a source that fails
    to open leaves the ones before it reachable for a detach.
    """
    for relation in relations:
        wrapper = make_wrapper(relation)
        wrapper.start()
        started.append(wrapper)


class QueryRun:
    """One query's lifetime on a (possibly shared) kernel.

    The single owner of "wrappers + :class:`QueryRuntime` + DQS/DQP/DQO +
    completion checks"; every front-end (one-shot, multi-query, live,
    service backends) builds a :class:`World` its own way and hands the
    rest to a run.  ``make_wrapper`` maps a source relation to an
    unstarted :class:`~repro.wrappers.source.Wrapper` on that world: a
    modelled one on any kernel (:func:`seeded_wrappers`, the service's
    execution plane), or a :class:`~repro.exec.live.LiveWrapper` over a
    real async source (:func:`repro.exec.live.live_wrappers`).  The run
    reads ``name``, ``tuples_sent``, ``production_time``,
    ``blocked_time``, ``finished_at``, ``error``, ``start()``,
    ``stop()``.

    Two shapes, no event hop between them and the optimizer:
    :meth:`start` spawns the optimizer as its own process (the one-shot
    front-ends, which then run the kernel and collect :meth:`result`),
    :meth:`drive` is the same lifecycle inline, for a caller that
    already *is* a kernel process on a shared machine (multi-query
    launcher, service execution plane) and reports :meth:`outcome`.
    """

    def __init__(self, world: World, qep: QEP, policy: PlanningPolicy,
                 make_wrapper: Callable[[str], Any], name: str = "engine"):
        self.world = world
        self.qep = qep
        self.policy = policy
        self.make_wrapper = make_wrapper
        self.name = name
        self.wrappers: list[Any] = []
        #: True once the engine stack below exists (start()/drive() ran).
        self.attached = False
        self.runtime: QueryRuntime
        self.scheduler: DynamicQueryScheduler
        self.processor: DynamicQueryProcessor
        self.optimizer: DynamicQEPOptimizer
        #: the optimizer process (:meth:`start` only).
        self.main: Optional[Process] = None
        #: kernel time the run attached; response time counts from here.
        self.started_at = 0.0
        self._end: Any = None

    @property
    def batches_processed(self) -> int:
        """DQP batches so far (0 before the run attached)."""
        return self.processor.batches_processed if self.attached else 0

    def _attach(self) -> DynamicQEPOptimizer:
        """Sources first, then the engine stack (creation order is part
        of the seeded surface)."""
        if self.attached or self.wrappers:
            raise SimulationError(f"query run {self.name!r} started twice")
        self.started_at = self.world.sim.now
        start_wrappers(self.qep.source_relations(), self.make_wrapper,
                       self.wrappers)
        self.runtime = QueryRuntime(self.world, self.qep)
        self.scheduler = DynamicQueryScheduler(self.runtime, self.policy)
        self.processor = DynamicQueryProcessor(self.runtime)
        self.optimizer = DynamicQEPOptimizer(self.runtime, self.scheduler,
                                             self.processor)
        self.attached = True
        return self.optimizer

    def start(self) -> Process:
        """Attach and spawn the optimizer as its own process.

        A failure of the returned process surfaces through
        :meth:`result` (or through whoever joins it) rather than
        crashing a shared kernel.
        """
        self.main = spawn_main(self.world.sim, self._attach().run(),
                               self.name)
        return self.main

    def drive(self) -> Generator[SimEvent, Any, EndOfQEP]:
        """Attach and run the optimizer inline (``yield from`` me);
        returns the checked :class:`EndOfQEP`."""
        self._end = yield from self._attach().run()
        return self.check_complete()

    def sample(self, on_sample: Optional[Callable[[SamplePoint], None]]
               = None) -> None:
        """Sample this run's occupancy for as long as :attr:`main` lives.

        Only for a world that owns its machine: the sampler is one per
        telemetry plane and observes one query's memory and queues.
        """
        telemetry = self.world.telemetry
        if telemetry.sampling and self.main is not None:
            telemetry.start_sampler(self.world.memory, self.world.cm,
                                    on_sample=on_sample)
            # Stop with the engine (success or failure), or the periodic
            # timeouts would keep the kernel alive.
            self.main.add_callback(lambda _event: telemetry.stop_sampler())

    def snapshot(self) -> Any:
        """A live snapshot of this run (see :func:`build_live_snapshot`)."""
        from repro.observability.live import build_live_snapshot

        return build_live_snapshot(self.world, self.runtime, self.processor,
                                   self.policy.name)

    def detach(self) -> None:
        """Stop the sources (a modelled one from its next message on, a
        live feeder task now); idempotent, meant for failure paths too."""
        for wrapper in self.wrappers:
            wrapper.stop()

    def check_complete(self) -> EndOfQEP:
        """Raise unless the run finished cleanly; returns its end event."""
        end = main_value(self.main) if self.main is not None else self._end
        if end is None:
            raise SimulationError(f"query run {self.name!r} has not finished")
        if not isinstance(end, EndOfQEP):
            raise SimulationError(
                f"query run {self.name!r} ended without EndOfQEP: {end!r}")
        for wrapper in self.wrappers:
            # A source that died had its stream closed so the engine
            # could drain; what it computed is truncated input.
            if wrapper.error is not None:
                raise SimulationError(
                    f"query run {self.name!r}: source {wrapper.name!r} "
                    f"failed mid-stream: {wrapper.error!r}"
                ) from wrapper.error
        if not self.runtime.all_done:
            raise SimulationError(
                f"query run {self.name!r}: kernel idle but query incomplete")
        return end

    def outcome(self, end: EndOfQEP) -> dict[str, Any]:
        """The finished run's headline numbers, from its own state only —
        all a front-end on a shared machine reports per query, where the
        telemetry channels :meth:`result` copies hold every neighbour's
        records too."""
        first = self.runtime.first_result_at
        return {
            "response_time": end.time - self.started_at,
            "result_tuples": self.runtime.result_tuples,
            "time_to_first_tuple": (first - self.started_at
                                    if first is not None else None),
            "batches_processed": self.processor.batches_processed,
            "stall_time": self.processor.stall_time,
            "memory_peak_bytes": self.world.memory.peak_bytes,
        }

    def _fold_counters(self, registry: MetricsRegistry) -> MetricsRegistry:
        """``registry`` with every counter set from the field that counts
        it — the one place counters are written.  Gauges and histograms
        are time-weighted or per observation, so no owner keeps them:
        their components push those while the query runs."""
        cm = self.world.cm
        estimators = cm.estimators.values()
        counters: dict[str, float] = {
            "dqp.batches": self.processor.batches_processed,
            "dqp.context_switches": self.processor.context_switches,
            "dqs.planning_phases": self.scheduler.planning_phases,
            "dqo.timeouts": self.optimizer.timeouts,
            "dqo.overflows": self.optimizer.overflows_handled,
            "cm.messages_received": sum(estimator.messages_delivered
                                        for estimator in estimators),
            "cm.tuples_received": sum(estimator.tuples_delivered
                                      for estimator in estimators),
            "cm.rate_change_signals": cm.rate_change_signals,
            "fragments.completed": self.runtime.fragments_completed,
        }
        for wrapper in self.wrappers:
            prefix = f"wrapper.{wrapper.name}"
            counters[f"{prefix}.tuples_sent"] = wrapper.tuples_sent
            counters[f"{prefix}.blocked_seconds"] = wrapper.blocked_time
        for name, value in counters.items():
            counter = registry.counter(name)
            if isinstance(counter, CounterMetric):  # the registry is enabled
                counter.value = value
        return registry

    def result(self) -> ExecutionResult:
        """Validate completion and collect the :class:`ExecutionResult`
        (for a world that owns its machine: the telemetry is the run's)."""
        end = self.check_complete()
        world, runtime = self.world, self.runtime
        scheduler, processor = self.scheduler, self.processor
        optimizer = self.optimizer
        return ExecutionResult(
            strategy=scheduler.policy.name,
            **self.outcome(end),
            planning_phases=scheduler.planning_phases,
            context_switches=processor.context_switches,
            degradations=len(runtime.degraded_chains),
            memory_splits=runtime.memory_splits,
            timeouts=optimizer.timeouts,
            rate_change_events=optimizer.rate_changes,
            cpu_busy_time=world.cpu.busy_time,
            cpu_utilization=(world.cpu.busy_time / end.time
                             if end.time > 0 else 0.0),
            disk_busy_time=sum(d.busy_time for d in world.disks),
            disk_ios=int(sum(d.ios.value for d in world.disks)),
            disk_seeks=int(sum(d.seeks.value for d in world.disks)),
            cache_hit_ratio=world.cache.hit_ratio(),
            tuples_spilled=int(world.buffer.tuples_spilled.value),
            tuples_reloaded=int(world.buffer.tuples_reloaded.value),
            wrapper_stats={w.name: (w.tuples_sent, w.production_time,
                                    w.blocked_time)
                           for w in self.wrappers},
            fragment_stats={
                fragment.name: FragmentStat(
                    name=fragment.name,
                    kind=fragment.kind.value,
                    chain=fragment.chain.name,
                    started_at=fragment.started_at,
                    finished_at=fragment.finished_at,
                    tuples_in=fragment.tuples_in,
                    tuples_out=fragment.tuples_out,
                    batches=fragment.batches,
                    cpu_seconds=fragment.cpu_seconds)
                for fragment in runtime.fragments.values()},
            reopt_opportunities=list(optimizer.reopt_opportunities),
            reopt_swaps=list(optimizer.reopt_swaps),
            statistics=runtime.statistics,
            stall_breakdown=world.telemetry.stalls.by_cause(),
            decisions=list(world.telemetry.audit),
            samples=list(world.telemetry.samples),
            metrics=(self._fold_counters(world.telemetry.registry)
                     if world.telemetry.enabled else None),
            spans=(list(world.telemetry.spans.spans)
                   if world.telemetry.spans is not None else None),
        )


class QueryEngine:
    """Runs one query with one strategy over simulated sources."""

    def __init__(self, catalog: Catalog, qep: QEP, policy: PlanningPolicy,
                 delay_models: Mapping[str, DelayModel],
                 params: Optional[SimulationParameters] = None,
                 seed: int = 0):
        self.catalog = catalog
        self.qep = qep
        self.policy = policy
        self.params = params if params is not None else SimulationParameters()
        self.seed = seed
        validate_qep(qep)
        self.delay_models = dict(delay_models)
        missing = set(qep.source_relations()) - set(self.delay_models)
        if missing:
            raise ConfigurationError(
                f"no delay model for source(s): {sorted(missing)}")

    def run(self) -> ExecutionResult:
        """Execute once and collect the result."""
        world = World(self.params, seed=self.seed)
        query = QueryRun(world, self.qep, self.policy,
                         seeded_wrappers(world, self.catalog,
                                         self.delay_models))
        query.start()
        query.sample()
        world.sim.run()
        return query.result()

    def lower_bound(self) -> float:
        """The analytic LWB for this engine's query and delay models."""
        waits = {name: model.mean_wait()
                 for name, model in self.delay_models.items()}
        return lower_bound(self.qep, waits, self.params)
