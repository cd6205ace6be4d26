"""DSE: Dynamic Scheduling Execution — the paper's strategy.

Each planning phase (Section 4.5):

1. take the current delivery-rate snapshot from the communication
   manager (and re-arm its rate-change baseline);
2. *degrade* critical, non-C-schedulable PCs whose benefit
   materialization indicator exceeds the threshold ``bmt`` (Section 4.4);
3. collect every C-schedulable fragment and order by **critical degree**
   (Section 4.3), most critical first — local (temp-backed) fragments
   have no waiting time, so they sort naturally to the back;
4. memory admission is handled by the shared scheduler.

The returned order is the DQP's priority list: a lower-priority fragment
only gets a batch when every higher-priority fragment is out of data.
"""

from __future__ import annotations

from typing import Iterable

from repro.config import SimulationParameters
from repro.core.dqs import PlanningPolicy
from repro.core.fragments import Fragment, FragmentKind
from repro.core.metrics import (
    benefit_materialization_indicator,
    critical_degree,
)
from repro.core.runtime import QueryRuntime
from repro.mediator.queues import SourceQueue


class DsePolicy(PlanningPolicy):
    """Critical-degree scheduling with bmi-gated PC degradation."""

    name = "DSE"
    wants_rate_events = True
    supports_memory_degradation = True

    def __init__(self):
        self.last_priorities: dict[str, float] = {}

    def select(self, runtime: QueryRuntime) -> list[Fragment]:
        waits = runtime.phase_waits
        if waits is None:  # selecting outside a DQS planning phase
            waits = runtime.world.cm.wait_snapshot(
                default=runtime.world.params.w_min)
        runtime.world.cm.arm_rate_baseline()

        runtime.advance_degraded_chains()
        if runtime.materializing:
            self._stop_satisfied_materializations(runtime)
        if runtime.blocked_chains:
            self._degrade_critical_chains(runtime, waits)

        # The runtime keeps the C-schedulable set; each candidate's sort
        # key is whole and unique (chain position, then the fragment's
        # rank in its chain), so the order never depends on the set's.
        chain_index = runtime.qep.chain_index
        priorities: dict[str, float] = {}
        ranked = []
        for fragment in runtime.schedulable:
            band, crit, mf_last = self._priority_key(runtime, fragment, waits)
            priorities[fragment.name] = crit
            ranked.append((
                -band,      # band: sparse > dense > local
                mf_last,    # dense band: pipeline before MF
                -crit,      # critical degree within the band
                chain_index[fragment.chain.name],
                fragment.rank,
                fragment))
        ranked.sort()
        self.last_priorities = priorities
        return [entry[-1] for entry in ranked]

    def priorities(self, runtime: QueryRuntime) -> dict[str, float]:
        """The last selection's critical degrees (a new dict each phase)."""
        return self.last_priorities

    # -- partial materialization (Section 3.3) -----------------------------
    @staticmethod
    def _stop_satisfied_materializations(runtime: QueryRuntime) -> None:
        """Stop MFs whose chains have become schedulable.

        The remaining wrapper data then streams through the pipeline
        directly — materialization stays *partial*, covering only the
        period during which the chain was blocked.
        """
        open_mfs: Iterable[Fragment] = runtime.materializing.values()
        if len(runtime.materializing) > 1:  # stops are decided in plan order
            order = runtime.qep.chain_index
            open_mfs = sorted(open_mfs, key=lambda mf: order[mf.chain.name])
        for mf in open_mfs:
            chain = mf.chain
            if (not mf.stop_requested
                    and runtime.ancestors_done(chain.name)
                    and runtime.memory_stop_allowed(chain)):
                runtime.request_stop_materialization(chain)

    # -- degradation (Section 4.4) ----------------------------------------
    def _degrade_critical_chains(self, runtime: QueryRuntime,
                                 waits: dict[str, float]) -> None:
        params = runtime.world.params
        io_per_tuple = self._bmi_io_seconds(params)
        worth = 2 * params.tuples_per_message
        # Blocked: not degraded, not complete, a pending PC that is not
        # C-schedulable — kept by the runtime; degrading one removes it.
        for chain in tuple(runtime.blocked_chains.values()):
            remaining = runtime.remaining_source_tuples(chain)
            if remaining <= worth:
                continue  # nothing worth materializing anymore
            wait = waits.get(chain.source_relation, params.w_min)
            crit = critical_degree(remaining, wait,
                                   runtime.fragments[chain.name].cpu_per_tuple)
            if crit <= 0:
                continue
            bmi = benefit_materialization_indicator(wait, io_per_tuple)
            if bmi > params.bmt:
                runtime.degrade_chain(chain, decision_inputs=dict(
                    critical=crit, bmi=bmi, bmt=params.bmt,
                    wait_per_tuple=wait, remaining_tuples=remaining))

    @staticmethod
    def _bmi_io_seconds(params: SimulationParameters) -> float:
        """``IO_p`` for the bmi: sequential transfer time of one tuple.

        The materialization fragment streams through the write-behind
        path, so the positioning costs are a second-order term the rough
        bmi approximation ignores (the *charged* simulation costs include
        them in full).
        """
        return params.tuple_size / params.disk_transfer_rate

    # -- priorities (Section 4.3, plus demand banding) -----------------------
    #
    # The paper orders fragments by critical degree and the DQP serves
    # them in strict priority.  Strict priority is only safe when the
    # top fragments have *sparse* data (w >> c): their rare batches
    # preempt nothing for long.  When several fragments are *dense*
    # (c comparable to w, i.e. the CPU cannot keep up with everyone),
    # whoever sits on top monopolizes the processor and — much worse —
    # a starved pipeline chain stalls the whole dependency DAG behind
    # it.  The paper itself observes that its total order misbehaves
    # "when several PC's have quite the same critical degree"
    # (Section 5.3); the banding below is our concrete resolution:
    #
    #   band 2 — sparse remote fragments (c/w <= threshold), by
    #            critical degree: the paper's rule where it works;
    #   band 1 — dense remote fragments: pipeline chains first (they
    #            gate the DAG), then materializations, iterator order;
    #   band 0 — local replay fragments (CF/CONT): data always
    #            available, so they absorb whatever is left.
    def _priority_key(self, runtime: QueryRuntime, fragment: Fragment,
                      waits: dict[str, float]) -> tuple[int, float, int]:
        params = runtime.world.params
        source = fragment.source
        if isinstance(source, SourceQueue):
            # A remote fragment's key reads its source's wait and
            # delivered count: both only move when tuples arrive, and the
            # CM's snapshot is a new dict exactly then.
            cached = fragment.priority_key
            if cached is not None and cached[0] is waits:
                return cached[1]
            wait = waits.get(source.source, params.w_min)
            remaining = runtime.remaining_source_tuples(fragment.chain)
            cpu = fragment.cpu_per_tuple
            crit = critical_degree(remaining, wait, cpu)
            sparse = wait > 0 and (cpu / wait) <= params.sparse_demand_threshold
            if sparse:
                key = (2, crit, 0)
            else:
                is_mf = fragment.kind is FragmentKind.MATERIALIZATION
                key = (1, crit, 1 if is_mf else 0)
            fragment.priority_key = (waits, key)
            return key
        # Temp-backed fragment: the local disk never makes the engine
        # wait for "delivery"; its (negative) critical degree is -n*c.
        remaining = source.temp.tuples - source.tuples_read
        return (0, critical_degree(max(0.0, remaining), 0.0,
                                   fragment.local_cpu_per_tuple), 0)
