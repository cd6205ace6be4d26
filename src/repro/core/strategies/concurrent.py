"""DSE-ND: dynamic scheduling *without* PC degradation (ablation).

Section 2.3 sketches this intermediate design before introducing
materialization: "interleave the execution of several parts of the
query, i.e., PC's … However, this approach is limited by the number of
PC's which can be executed concurrently (due to dependency constraints
…)".  DSE-ND isolates how much of DSE's gain comes from concurrent
scheduling alone and how much from degradation: it orders C-schedulable
fragments exactly like DSE but never creates materialization fragments.
"""

from __future__ import annotations

from repro.core.runtime import QueryRuntime
from repro.core.strategies.dse import DsePolicy


class ConcurrentOnlyPolicy(DsePolicy):
    """DSE's priorities and interleaving, but no materialization ever."""

    name = "DSE-ND"

    def _degrade_critical_chains(self, runtime: QueryRuntime,
                                 waits: dict[str, float]) -> None:
        """Degradation disabled: blocked chains simply wait."""

