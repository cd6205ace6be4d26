"""The Dynamic Query Scheduler (Sections 3.3–4.5).

The DQS turns runtime state into a :class:`SchedulingPlan`.  What varies
between execution strategies is *which fragments are candidates and in
what order* — that is a :class:`PlanningPolicy` (SEQ, MA and DSE are
policies over the same machinery).  What is common is **admission**: every
candidate must fit in memory, in priority order; a top-priority fragment
that does not fit even alone is flagged for the DQO (Section 4.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.errors import SchedulingError
from repro.core.dqp import SchedulingPlan
from repro.core.fragments import Fragment, FragmentKind, FragmentStatus
from repro.core.runtime import QueryRuntime
from repro.observability import SPAN_BUDGET_REPLAN, SPAN_LEASE_GROW
from repro.observability.hooks import compile_dqp_hooks


class PlanningPolicy(ABC):
    """Chooses and orders candidate fragments at each planning phase."""

    #: short name used in results and reports.
    name: str = "policy"
    #: whether the CM should interrupt execution phases on rate changes.
    wants_rate_events: bool = False
    #: whether the policy's machinery can carry a memory-blocked chain
    #: through the degraded lifecycle (MF -> stop -> CF -> PC).  SEQ
    #: never advances degraded chains, so degrading under it would
    #: deadlock; MA pre-degrades everything anyway.  Only policies that
    #: set this participate in dynamic budget re-planning.
    supports_memory_degradation: bool = False

    @abstractmethod
    def select(self, runtime: QueryRuntime) -> list[Fragment]:
        """Candidate fragments in priority order (highest first).

        Every returned fragment must be C-schedulable and not done.  The
        policy may mutate runtime structure first (e.g. degrade chains).
        """

    def priorities(self, runtime: QueryRuntime) -> dict[str, float]:
        """Optional priority values, reported with the plan."""
        return {}


class DynamicQueryScheduler:
    """Admission and bookkeeping around a planning policy."""

    def __init__(self, runtime: QueryRuntime, policy: PlanningPolicy):
        self.runtime = runtime
        self.policy = policy
        self.planning_phases = 0
        #: dynamic budget re-planning: react to broker grow offers by
        #: un-degrading memory-blocked chains (multi-query, governed
        #: pools).  Off in the paper's static single-query model.
        self._dynamic = (runtime.world.params.dynamic_budget_replanning
                         and policy.supports_memory_degradation)
        self._grow_seen = getattr(runtime.world.memory, "grow_revision", 0)
        # Planning is rare (once per phase), so the DQS shares the same
        # compiled hook surface as the DQP rather than keeping its own
        # metric fields; only the ``plan`` slot is dispatched here.
        self._hooks = compile_dqp_hooks(runtime.world.telemetry)

    def plan(self) -> SchedulingPlan:
        """One planning phase: select candidates, admit them into memory."""
        self.planning_phases += 1
        runtime = self.runtime
        world = runtime.world
        # One snapshot a phase, the policy's too: planning delivers nothing.
        runtime.phase_waits = waits = world.cm.wait_snapshot(
            world.params.w_min)
        runtime.statistics.snapshot_rates(world.sim.now, waits)
        try:
            if self._dynamic:
                self._replan_after_grow()
            candidates = self.policy.select(runtime)
            if self._dynamic and self._degrade_memory_blocked(candidates):
                # Memory-blocked PCs were just degraded (suspended, replaced
                # by MFs): re-select so the plan sees the new fragment set.
                candidates = self.policy.select(runtime)
        finally:
            runtime.phase_waits = None
        if not all(map(runtime.schedulable.__contains__, candidates)):
            # Defensive: a policy bug here would deadlock the DQP.
            stray = next(fragment for fragment in candidates
                         if fragment not in runtime.schedulable)
            raise SchedulingError(
                f"policy {self.policy.name!r} selected {stray.name!r} "
                "which is not C-schedulable")
        admitted, overflow = self._admit(candidates)
        plan_hooks = self._hooks.plan
        if plan_hooks:
            now = world.sim.now
            for hook in plan_hooks:
                hook(now, len(admitted))
        priorities = self.policy.priorities(self.runtime)
        return SchedulingPlan(admitted, priorities, overflow_fragment=overflow)

    def _admit(self, candidates: list[Fragment]) -> tuple[
            list[Fragment], Fragment | None]:
        """Walk candidates in priority order, reserving memory.

        A fragment whose *new* memory does not fit is skipped for this
        phase — unless it is the first candidate and nothing else was
        admitted, in which case it is not M-schedulable even alone and
        the DQO must revise the plan.

        A fragment that builds no table, or holds its table already,
        reserves nothing and always fits: a lease never commits more
        than it holds, so zero more bytes always fit.
        """
        runtime = self.runtime
        memory = runtime.world.memory
        admitted: list[Fragment] = []
        overflow: Fragment | None = None
        for fragment in candidates:
            if fragment.builds_join is None or fragment.hash_table is not None:
                admitted.append(fragment)
                continue
            needed = runtime.new_memory_needed(fragment)
            if memory.would_fit(needed):
                runtime.ensure_hash_table(fragment)
                admitted.append(fragment)
            elif not admitted and overflow is None:
                overflow = fragment
        if admitted:
            overflow = None
        return admitted, overflow

    # -- dynamic budget re-planning ----------------------------------------
    def _replan_after_grow(self) -> None:
        """React to lease growth since the last planning phase.

        A chain that was degraded *for memory* and whose build table now
        fits the grown budget gets its MF stopped: the complement replays
        the temp, the unsuspended PC takes the remaining wrapper data
        live — the degradation is reversed mid-flight.
        """
        revision = getattr(self.runtime.world.memory, "grow_revision", 0)
        if revision == self._grow_seen:
            return
        self._grow_seen = revision
        runtime = self.runtime
        for chain in runtime.qep.chains:
            if chain.name not in runtime.memory_degraded_chains:
                continue
            mf = runtime.chain_fragments[chain.name][0]
            if (mf.kind is FragmentKind.MATERIALIZATION
                    and mf.status is not FragmentStatus.DONE
                    and not mf.stop_requested
                    and runtime.chain_table_fits(chain)):
                runtime.request_stop_materialization(chain,
                                                     reason="budget-grow")
                spans = runtime.world.telemetry.spans
                if spans is not None:
                    spans.instant(SPAN_BUDGET_REPLAN, chain.name,
                                  parent_id=runtime.query_span,
                                  caused_by=spans.last(SPAN_LEASE_GROW),
                                  mf=mf.name)

    def _degrade_memory_blocked(self, candidates: list[Fragment]) -> bool:
        """Degrade C-schedulable PCs whose build table does not fit.

        Under a static budget a blocked top-priority PC goes to the DQO
        for a memory split; under a shared pool the better response is
        the paper's own degradation machinery: materialize to disk now,
        revert when the broker offers the query more memory.
        """
        runtime = self.runtime
        memory = runtime.world.memory
        degraded = False
        for fragment in candidates:
            if fragment.kind is not FragmentKind.PIPELINE_CHAIN:
                continue
            if fragment.status is not FragmentStatus.PENDING or fragment.suspended:
                continue
            chain = fragment.chain
            if chain.name in runtime.degraded_chains:
                continue
            needed = runtime.new_memory_needed(fragment)
            if needed <= 0 or memory.would_fit(needed):
                continue
            runtime.degrade_chain(chain, prefer_memory=False,
                                  decision_inputs=dict(
                                      memory_blocked=True,
                                      needed_bytes=needed,
                                      available_bytes=memory.available_bytes))
            runtime.memory_degraded_chains.add(chain.name)
            degraded = True
        return degraded
