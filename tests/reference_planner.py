"""The full planner: every planning phase re-derives everything.

The DQS, its SEQ / MA / DSE policies, the runtime methods they call to
degrade a chain and create its CF, the CM's wait snapshot and rate
baseline, and the DQO's per-phase estimate check, each written to work
everything out again at every phase: the oracle the incremental planner
is diffed against (``tests/test_planner_oracle.py``) and timed against
(``benchmarks/test_bench_dqs_plan.py``).  Nothing in ``src/`` imports it.

:func:`install` swaps it in for the shipped methods on the shipped
classes, so every front-end that builds a scheduler, a policy or an
optimizer runs it without a new option.  The runtime's lifecycle hooks
still run; the state they keep goes stale here, and this planner never
reads it.
"""

from __future__ import annotations

from repro.common.errors import SchedulingError
from repro.config import SimulationParameters
from repro.core.dqo import DynamicQEPOptimizer
from repro.core.dqp import SchedulingPlan
from repro.core.dqs import DynamicQueryScheduler
from repro.core.fragments import Fragment, FragmentKind, FragmentStatus
from repro.core.metrics import (
    benefit_materialization_indicator,
    critical_degree,
)
from repro.core.runtime import QueryRuntime
from repro.core.statistics import RateSnapshot, RuntimeStatistics
from repro.core.strategies import (
    DsePolicy,
    MaterializeAllPolicy,
    SequentialPolicy,
)
from repro.mediator.comm import CommunicationManager
from repro.mediator.queues import SourceQueue
from repro.observability import DECISION_CF_CREATE, DECISION_DEGRADE
from repro.plan.operators import MatOp, ScanOp


# -- DynamicQueryScheduler ---------------------------------------------------

def plan(self) -> SchedulingPlan:
    """One planning phase: select candidates, admit them into memory."""
    self.planning_phases += 1
    runtime = self.runtime
    world = runtime.world
    # One snapshot a phase, the policy's too: planning delivers nothing.
    runtime.phase_waits = world.cm.wait_snapshot(world.params.w_min)
    runtime.statistics.snapshot_rates(world.sim.now, runtime.phase_waits)
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
    for fragment in candidates:
        if not self.runtime.is_c_schedulable(fragment):
            # Defensive: a policy bug here would deadlock the DQP.
            raise_from_policy = (
                f"policy {self.policy.name!r} selected "
                f"{fragment.name!r} which is not C-schedulable")
            raise SchedulingError(raise_from_policy)
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
    """Walk candidates in priority order, reserving memory."""
    memory = self.runtime.world.memory
    admitted: list[Fragment] = []
    overflow: Fragment | None = None
    for fragment in candidates:
        needed = self.runtime.new_memory_needed(fragment)
        if memory.would_fit(needed):
            self.runtime.ensure_hash_table(fragment)
            admitted.append(fragment)
        elif not admitted and overflow is None:
            overflow = fragment
    if admitted:
        overflow = None
    return admitted, overflow


# -- DSE (and DSE-ND, whose own no-op degradation override stays) -----------

class ReferenceDse:
    """``DsePolicy``'s planning methods, one function per method."""

    def select(self, runtime: QueryRuntime) -> list[Fragment]:
        waits = runtime.phase_waits
        if waits is None:  # selecting outside a DQS planning phase
            waits = runtime.world.cm.wait_snapshot(
                default=runtime.world.params.w_min)
        runtime.world.cm.arm_rate_baseline()

        runtime.advance_degraded_chains()
        self._stop_satisfied_materializations(runtime)
        self._degrade_critical_chains(runtime, waits)

        candidates = [fragment for fragment in runtime.live_fragments()
                      if runtime.is_c_schedulable(fragment)]
        chain_index = runtime.qep.chain_index
        keys = {fragment.name: self._priority_key(runtime, fragment, waits)
                for fragment in candidates}
        self.last_priorities = {name: key[1] for name, key in keys.items()}
        candidates.sort(key=lambda f: (
            -keys[f.name][0],          # band: sparse > dense > local
            keys[f.name][2],           # dense band: pipeline before MF
            -keys[f.name][1],          # critical degree within the band
            chain_index[f.chain.name],
            runtime.chain_fragments[f.chain.name].index(f),
        ))
        return candidates

    def priorities(self, runtime: QueryRuntime) -> dict[str, float]:
        return dict(self.last_priorities)

    @staticmethod
    def _stop_satisfied_materializations(runtime: QueryRuntime) -> None:
        degraded = runtime.degraded_chains
        if not degraded:
            return
        for chain in runtime.qep.chains:
            if chain.name not in degraded:
                continue
            mf = runtime.chain_fragments[chain.name][0]
            if (mf.kind is FragmentKind.MATERIALIZATION
                    and mf.status is not FragmentStatus.DONE
                    and not mf.stop_requested
                    and runtime.ancestors_done(chain.name)
                    and runtime.memory_stop_allowed(chain)):
                runtime.request_stop_materialization(chain)

    def _degrade_critical_chains(self, runtime: QueryRuntime,
                                 waits: dict[str, float]) -> None:
        params = runtime.world.params
        io_per_tuple = self._bmi_io_seconds(params)
        for chain in runtime.qep.chains:
            if (chain.name in runtime.degraded_chains
                    or runtime.chain_complete(chain.name)):
                continue
            fragment = runtime.fragments.get(chain.name)
            if fragment is None or fragment.status is not FragmentStatus.PENDING:
                continue
            if runtime.is_c_schedulable(fragment):
                continue  # will run in pipeline; no reason to materialize
            remaining = runtime.remaining_source_tuples(chain)
            if remaining <= 2 * params.tuples_per_message:
                continue  # nothing worth materializing anymore
            wait = waits.get(chain.source_relation, params.w_min)
            crit = critical_degree(remaining, wait, fragment.cpu_per_tuple)
            if crit <= 0:
                continue
            bmi = benefit_materialization_indicator(wait, io_per_tuple)
            if bmi > params.bmt:
                runtime.degrade_chain(chain, decision_inputs=dict(
                    critical=crit, bmi=bmi, bmt=params.bmt,
                    wait_per_tuple=wait, remaining_tuples=remaining))

    @staticmethod
    def _bmi_io_seconds(params: SimulationParameters) -> float:
        return params.tuple_size / params.disk_transfer_rate

    def _priority_key(self, runtime: QueryRuntime, fragment: Fragment,
                      waits: dict[str, float]) -> tuple[int, float, int]:
        params = runtime.world.params
        if isinstance(fragment.source, SourceQueue):
            wait = waits.get(fragment.source.source, params.w_min)
            remaining = runtime.remaining_source_tuples(fragment.chain)
            cpu = fragment.cpu_per_tuple
            crit = critical_degree(remaining, wait, cpu)
            sparse = wait > 0 and (cpu / wait) <= params.sparse_demand_threshold
            if sparse:
                return (2, crit, 0)
            is_mf = fragment.kind is FragmentKind.MATERIALIZATION
            return (1, crit, 1 if is_mf else 0)
        remaining = fragment.source.temp.tuples - fragment.source.tuples_read
        return (0, critical_degree(max(0.0, remaining), 0.0,
                                   fragment.local_cpu_per_tuple), 0)


# -- MA and SEQ ----------------------------------------------------------------

class ReferenceMa:
    def select(self, runtime: QueryRuntime) -> list[Fragment]:
        self._ensure_degraded(runtime)
        runtime.advance_degraded_chains()
        materializations = [
            fragment
            for chain in runtime.qep.chains
            for fragment in runtime.chain_fragments[chain.name]
            if fragment.kind is FragmentKind.MATERIALIZATION
            and fragment.status is not FragmentStatus.DONE
        ]
        if materializations:
            return materializations
        # Phase 2: iterator order over the complement fragments.
        for chain in runtime.qep.chains:
            if runtime.chain_complete(chain.name):
                continue
            for fragment in runtime.chain_fragments[chain.name]:
                if fragment.status is not FragmentStatus.DONE:
                    return [fragment]
        return []

    @staticmethod
    def _ensure_degraded(runtime: QueryRuntime) -> None:
        for chain in runtime.qep.chains:
            if chain.name not in runtime.degraded_chains:
                runtime.degrade_chain(chain, prefer_memory=False)


class ReferenceSeq:
    def select(self, runtime: QueryRuntime) -> list[Fragment]:
        for chain in runtime.qep.chains:
            if runtime.chain_complete(chain.name):
                continue
            for fragment in runtime.chain_fragments[chain.name]:
                if fragment.status is not FragmentStatus.DONE:
                    return [fragment]
        return []


# -- the runtime methods planning calls --------------------------------------

def advance_degraded_chains(self) -> list[Fragment]:
    """Create CFs for finished MFs and unsuspend their PC parts."""
    created: list[Fragment] = []
    owed = self._cf_owed
    if not owed:
        return created
    for chain in self.qep.chains:  # plan order: CFs are created in it
        if chain.name not in owed:
            continue
        mf = self.chain_fragments[chain.name][0]
        if mf.status is not FragmentStatus.DONE:
            continue
        owed.discard(chain.name)
        created.append(self._create_cf_fragment(chain, mf))
        self.fragments[chain.name].suspended = False
    return created


def remaining_source_tuples(self, chain) -> float:
    """Source tuples of ``chain`` not yet delivered to the mediator."""
    if chain.source_relation not in self.world.cm.estimators:
        return chain.scan.estimated_input_cardinality
    delivered = self.world.cm.estimator(chain.source_relation).tuples_delivered
    return max(0.0, chain.scan.estimated_input_cardinality - delivered)


def degrade_chain(self, chain, prefer_memory=None, decision_inputs=None):
    """PC degradation (Section 4.4): start a materialization fragment."""
    pc = self.fragments[chain.name]
    if pc.kind is not FragmentKind.PIPELINE_CHAIN:
        raise SchedulingError(f"{chain.name!r} is not a plain PC fragment")
    if pc.status is not FragmentStatus.PENDING:
        raise SchedulingError(f"cannot degrade running chain {chain.name!r}")
    if chain.name in self.degraded_chains:
        raise SchedulingError(f"chain {chain.name!r} degraded twice")

    if prefer_memory is None:
        prefer_memory = self.world.params.allow_memory_temps
    writer = self.world.buffer.create_temp(
        f"mf:{chain.name}",
        memory=self.world.memory,
        estimated_tuples=self.remaining_source_tuples(chain)
        * chain.scan.scan_selectivity,
        prefer_memory=prefer_memory)
    scan = chain.scan
    mf_ops = [
        ScanOp(name=scan.name, relation=scan.relation,
               scan_selectivity=scan.scan_selectivity,
               estimated_input_cardinality=scan.estimated_input_cardinality,
               estimated_output_cardinality=scan.estimated_output_cardinality),
        MatOp(name="mat[temp]", join=None,
              estimated_input_cardinality=scan.estimated_output_cardinality,
              estimated_output_cardinality=scan.estimated_output_cardinality),
    ]
    mf = Fragment(self, f"MF({chain.name})", FragmentKind.MATERIALIZATION,
                  chain, mf_ops, pc.source)
    mf.temp_writer = writer
    pc.suspended = True
    self.chain_fragments[chain.name] = [mf, pc]
    self.degraded_chains.add(chain.name)
    self._cf_owed.add(chain.name)
    self._audit(DECISION_DEGRADE, chain.name, decision_inputs,
                mf=mf.name, temp=writer.temp.name)
    return self._register(mf)


def _create_cf_fragment(self, chain, mf):
    temp = mf.temp_writer.temp
    scan = chain.scan
    temp_scan = ScanOp(
        name=f"scan({temp.name})", relation=temp.name,
        scan_selectivity=1.0,
        estimated_input_cardinality=scan.estimated_output_cardinality,
        estimated_output_cardinality=scan.estimated_output_cardinality)
    cf_ops = [temp_scan] + chain.operators[1:]
    cf = Fragment(self, f"CF({chain.name})", FragmentKind.COMPLEMENT,
                  chain, cf_ops, self.world.buffer.reader(temp))
    self.chain_fragments[chain.name].insert(1, cf)
    self._audit(DECISION_CF_CREATE, cf.name, chain=chain.name,
                temp=temp.name, temp_tuples=mf.tuples_out)
    return self._register(cf)


# -- CM, statistics, DQO -----------------------------------------------------

def arm_rate_baseline(self) -> dict[str, float]:
    self._rate_baseline = {
        source: est.wait_estimate
        for source, est in self.estimators.items()
        if est.wait_estimate is not None
    }
    return dict(self._rate_baseline)


def wait_snapshot(self, default: float) -> dict[str, float]:
    return {source: est.wait_or(default)
            for source, est in self.estimators.items()}


def snapshot_rates(self, time: float, waits: dict[str, float]) -> None:
    self.rate_history.append(RateSnapshot(time, dict(waits)))


def _check_estimates(self) -> None:
    threshold = self.runtime.world.params.reoptimization_threshold
    found_new = False
    for observation in self.runtime.statistics.misestimated_joins(threshold):
        if observation.join_name in self.reopt_opportunities:
            continue
        found_new = True
        self.reopt_opportunities.append(observation.join_name)
    if found_new and self.runtime.world.params.enable_reoptimization:
        self._swap_misoriented_joins()


#: (class, attribute, reference) for every method :func:`install` swaps.
PATCHES = [
    (DynamicQueryScheduler, "plan", plan),
    (DynamicQueryScheduler, "_admit", _admit),
    *[(DsePolicy, name, ReferenceDse.__dict__[name])
      for name in ("select", "priorities", "_stop_satisfied_materializations",
                   "_degrade_critical_chains", "_bmi_io_seconds",
                   "_priority_key")],
    (MaterializeAllPolicy, "select", ReferenceMa.__dict__["select"]),
    (MaterializeAllPolicy, "_ensure_degraded",
     ReferenceMa.__dict__["_ensure_degraded"]),
    (SequentialPolicy, "select", ReferenceSeq.__dict__["select"]),
    (QueryRuntime, "advance_degraded_chains", advance_degraded_chains),
    (QueryRuntime, "degrade_chain", degrade_chain),
    (QueryRuntime, "remaining_source_tuples", remaining_source_tuples),
    (QueryRuntime, "_create_cf_fragment", _create_cf_fragment),
    (CommunicationManager, "arm_rate_baseline", arm_rate_baseline),
    (CommunicationManager, "wait_snapshot", wait_snapshot),
    (RuntimeStatistics, "snapshot_rates", snapshot_rates),
    (DynamicQEPOptimizer, "_check_estimates", _check_estimates),
]


def install(monkeypatch) -> None:
    """Run the full planner until ``monkeypatch`` is undone."""
    for cls, name, function in PATCHES:
        monkeypatch.setattr(cls, name, function, raising=False)
