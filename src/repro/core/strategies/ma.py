"""MA: Materialize All (Urhan, Franklin, Amsaleg [1]).

Two phases (Section 5.1.2): first, every remote relation is materialized
on the mediator's disk *simultaneously*, so delivery delays of different
sources overlap each other (but not query processing); second, the query
runs sequentially against the local copies.  MA pays the full
materialization I/O for every relation, which is why it loses when
delays are small relative to the I/O overhead (Section 5.4).
"""

from __future__ import annotations

from repro.core.dqs import PlanningPolicy
from repro.core.fragments import Fragment
from repro.core.runtime import QueryRuntime


class MaterializeAllPolicy(PlanningPolicy):
    """Phase 1: all MFs concurrently; phase 2: sequential from disk."""

    name = "MA"
    wants_rate_events = False

    def select(self, runtime: QueryRuntime) -> list[Fragment]:
        if len(runtime.degraded_chains) < len(runtime.qep.chains):
            self._ensure_degraded(runtime)
        runtime.advance_degraded_chains()
        if runtime.materializing:  # the open MFs, degraded in plan order
            return list(runtime.materializing.values())
        # Phase 2: iterator order over the complement fragments.
        fragment = runtime.next_in_iterator_order()
        return [fragment] if fragment is not None else []

    @staticmethod
    def _ensure_degraded(runtime: QueryRuntime) -> None:
        """Degrade every chain once, on the first planning phase.

        MA materializes "on the disk of the mediator" ([1]) — never into
        query memory, whatever the configuration says.
        """
        for chain in runtime.qep.chains:
            if chain.name not in runtime.degraded_chains:
                runtime.degrade_chain(chain, prefer_memory=False)
