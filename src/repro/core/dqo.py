"""The Dynamic QEP Optimizer (Sections 3.1 and 4.2).

The DQO owns the outer execution loop: it drives planning phases
(delegated to the DQS) and execution phases (the DQP), and handles the
interruption events that may invalidate the QEP itself:

* **MemoryOverflow** — a fragment is not M-schedulable; the DQO applies
  the technique of [4]: insert a materialization at the highest possible
  point, producing an always-M-schedulable first fragment and a
  continuation (see :meth:`QueryRuntime.split_for_memory`);
* **TimeOut** — the engine stalled badly; a full system would trigger
  run-time re-optimization (phase 2 of query scrambling [15]); this
  implementation records the event and resumes waiting, keeping the hook
  where re-optimization would plug in.

Normal events (EndOfQF, PhaseComplete, RateChange) simply start the next
planning phase.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.common.errors import (
    MemoryOverflowError,
    QueryTimeoutError,
    SchedulingError,
)
from repro.core.dqp import DynamicQueryProcessor
from repro.core.dqs import DynamicQueryScheduler
from repro.core.events import (
    BudgetGrow,
    EndOfQEP,
    MemoryOverflow,
    RateChange,
    TimeOut,
)
from repro.core.fragments import FragmentKind
from repro.core.runtime import QueryRuntime
from repro.observability import (
    SPAN_EXEC_PHASE,
    SPAN_LEASE_GROW,
    SPAN_PLANNING,
    SPAN_RATE_REPLAN,
)
from repro.exec import SimEvent


class DynamicQEPOptimizer:
    """Outer loop: plan, execute, react."""

    def __init__(self, runtime: QueryRuntime,
                 scheduler: DynamicQueryScheduler,
                 processor: DynamicQueryProcessor):
        self.runtime = runtime
        self.scheduler = scheduler
        self.processor = processor
        self.timeouts = 0
        self._consecutive_timeouts = 0
        self.overflows_handled = 0
        self.rate_changes = 0
        self.budget_grows = 0
        #: joins whose observed build size invalidated the estimates —
        #: each is a re-optimization opportunity a plan-revision module
        #: (à la [9]/[15] phase 2) would act on.
        self.reopt_opportunities: list[str] = []
        #: joins whose sides the DQO actually swapped
        #: (``enable_reoptimization``).
        self.reopt_swaps: list[str] = []

    def run(self) -> Generator[SimEvent, Any, EndOfQEP]:
        """Execute the query to completion. ``yield from`` me (or wrap in
        a simulation process)."""
        world = self.runtime.world
        spans = world.telemetry.spans
        query_span = self.runtime.query_span
        if spans is not None and query_span is not None:
            spans.spans[query_span].attrs["strategy"] = \
                self.scheduler.policy.name
        #: span id of the event that *caused* the next planning phase
        #: (a lease grow or rate change); None for ordinary progress.
        replan_cause = None
        if self.scheduler.policy.wants_rate_events:
            world.cm.set_rate_listener(self.processor.notify_rate_change)
        try:
            while True:
                if spans is not None:
                    planning_span = spans.begin(
                        SPAN_PLANNING,
                        f"planning-{self.scheduler.planning_phases + 1}",
                        parent_id=query_span, caused_by=replan_cause)
                    replan_cause = None
                yield from world.cpu.work(world.params.planning_instructions)
                sp = self.scheduler.plan()
                if spans is not None:
                    spans.finish(planning_span, fragments=len(sp.fragments))

                if sp.overflow_fragment is not None:
                    self._handle_overflow_fragment(sp.overflow_fragment)
                    continue
                if not sp.fragments:
                    raise SchedulingError(
                        "planning produced no schedulable fragment although "
                        "the query is not complete")

                if spans is not None:
                    phase_span = spans.begin(
                        SPAN_EXEC_PHASE,
                        f"exec-{self.scheduler.planning_phases}",
                        parent_id=query_span, caused_by=planning_span,
                        fragments=[f.name for f in sp.fragments])
                    self.runtime.current_phase_span = phase_span

                event = yield from self.processor.execute(sp)

                if spans is not None:
                    spans.finish(phase_span, outcome=type(event).__name__)
                    self.runtime.current_phase_span = None
                    if isinstance(event, BudgetGrow):
                        replan_cause = spans.instant(
                            SPAN_LEASE_GROW, "lease-grow",
                            parent_id=query_span,
                            granted_bytes=event.granted_bytes,
                            total_bytes=event.total_bytes)
                    elif isinstance(event, RateChange):
                        replan_cause = spans.instant(
                            SPAN_RATE_REPLAN, f"rate-change:{event.source}",
                            parent_id=query_span, source=event.source,
                            old_wait=event.old_wait, new_wait=event.new_wait)

                self._check_estimates()

                if isinstance(event, EndOfQEP):
                    if spans is not None and query_span is not None:
                        spans.finish(query_span,
                                     result_tuples=event.result_tuples)
                    return event
                if isinstance(event, MemoryOverflow):
                    fragment = self.runtime.fragments[event.fragment_name]
                    self._handle_overflow_fragment(fragment)
                    self._consecutive_timeouts = 0
                elif isinstance(event, TimeOut):
                    self.timeouts += 1
                    self._consecutive_timeouts += 1
                    limit = world.params.max_consecutive_timeouts
                    if limit and self._consecutive_timeouts >= limit:
                        raise QueryTimeoutError(
                            self._consecutive_timeouts,
                            self._consecutive_timeouts * world.params.timeout)
                else:
                    # EndOfQF / PhaseComplete / RateChange / BudgetGrow: real
                    # progress or new information; replan on the next loop.
                    self._consecutive_timeouts = 0
                    if isinstance(event, RateChange):
                        self.rate_changes += 1
                    elif isinstance(event, BudgetGrow):
                        self.budget_grows += 1
        finally:
            # The query's CM outlives the run; left installed, the
            # listener would tie CM, processor, runtime and world in a
            # cycle only the collector could free.
            world.cm.set_rate_listener(None)

    def _check_estimates(self) -> None:
        """Flag observed cardinality misestimates; optionally act on them.

        Detection always runs (Section 3.1's statistics feedback); with
        ``enable_reoptimization`` the DQO additionally applies the one
        plan revision that is safe mid-flight: swapping the build/probe
        sides of still-pending joins whose *corrected* build estimate
        turned out larger than the probe side's.
        """
        statistics = self.runtime.statistics
        if not statistics.fresh:
            # Only a newly observed build can be a new misestimate, and a
            # phase observes at most one: it ends at the first EndOfQF.
            return
        observed = statistics.take_observed()
        threshold = self.runtime.world.params.reoptimization_threshold
        found_new = False
        for observation in observed:
            if (observation.join_name in self.reopt_opportunities
                    or not observation.is_misestimated(threshold)):
                continue
            found_new = True
            self.reopt_opportunities.append(observation.join_name)
        if found_new and self.runtime.world.params.enable_reoptimization:
            self._swap_misoriented_joins()

    def _swap_misoriented_joins(self) -> None:
        """Swap pending joins whose corrected orientation is wrong."""
        params = self.runtime.world.params
        for join_name in list(self.runtime.qep.joins):
            if not self.runtime.can_swap_join(join_name):
                continue
            join = self.runtime.qep.joins[join_name]
            corrected_build = self._corrected_cardinality(
                join.build_relations, join.estimated_build_cardinality)
            corrected_probe = self._corrected_cardinality(
                join.probe_relations, join.estimated_probe_cardinality)
            if corrected_build > corrected_probe * params.reopt_swap_margin:
                self.runtime.swap_pending_join(join_name, decision_inputs=dict(
                    corrected_build=corrected_build,
                    corrected_probe=corrected_probe,
                    swap_margin=params.reopt_swap_margin))
                self.reopt_swaps.append(join_name)

    def _corrected_cardinality(self, relations: tuple[str, ...],
                               estimate: float) -> float:
        """Scale an estimate by the best applicable observed error.

        Uses the largest observed relation-set contained in ``relations``
        (independence assumption for everything outside it) — the same
        correction a statistics-propagating re-optimizer would make.
        """
        inside = set(relations)
        best_obs = None
        best_size = 0
        for observation in self.runtime.statistics.observations():
            if observation.observed_build is None:
                continue
            join = self.runtime.qep.joins.get(observation.join_name)
            if join is None:
                continue
            observed_set = set(join.build_relations)
            if observed_set <= inside and len(observed_set) > best_size:
                best_obs = observation
                best_size = len(observed_set)
        if best_obs is None or best_obs.error_ratio is None:
            return estimate
        return estimate * best_obs.error_ratio

    def _handle_overflow_fragment(self, fragment) -> None:
        if fragment.kind is FragmentKind.CONTINUATION:
            # Splitting a continuation reproduces the same fragment: the
            # query genuinely does not fit in the memory budget.
            raise MemoryOverflowError(
                fragment.chain.name,
                required=self.runtime.table_estimate_bytes(
                    fragment.builds_join or ""),
                available=self.runtime.world.memory.available_bytes)
        self.overflows_handled += 1
        self.runtime.split_for_memory(fragment)
