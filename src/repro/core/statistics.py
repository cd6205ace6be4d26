"""Runtime statistics collection for the dynamic QEP optimizer.

Section 3.1: "For the problem of inaccuracy of estimates, we must collect
statistics during the query execution and transmit them to the DQO [9]."

:class:`RuntimeStatistics` records, at every materialization point (the
natural observation points of mid-query re-optimization à la [9]), the
*actual* cardinality that crossed the blocking edge next to the
optimizer's estimate, plus a history of delivery-rate snapshots.  The
DQO consults :meth:`misestimated_joins` after each chain completes and
traces a re-optimization opportunity when the error exceeds the
configured threshold — the precise hook where a plan-revision module
would plug in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import SchedulingError


@dataclass
class JoinObservation:
    """Estimated vs observed cardinality of one join's build side."""

    join_name: str
    estimated_build: float
    observed_build: Optional[float] = None
    observed_at: Optional[float] = None

    @property
    def error_ratio(self) -> Optional[float]:
        """``observed / estimated`` (None until observed; inf if est = 0)."""
        if self.observed_build is None:
            return None
        if self.estimated_build <= 0:
            return float("inf") if self.observed_build > 0 else 1.0
        return self.observed_build / self.estimated_build

    def is_misestimated(self, threshold: float) -> bool:
        """True when the relative error exceeds ``threshold``.

        ``threshold`` is a ratio bound: 0.5 flags anything observed
        outside [2/3 x, 1.5 x] ... precisely, outside
        ``[1/(1+threshold), 1+threshold]``.
        """
        ratio = self.error_ratio
        if ratio is None:
            return False
        upper = 1.0 + threshold
        return ratio > upper or ratio < 1.0 / upper


@dataclass
class RateSnapshot:
    """One delivery-rate snapshot (per planning phase)."""

    time: float
    waits: dict[str, float] = field(default_factory=dict)


class RuntimeStatistics:
    """Observed statistics of one query execution."""

    def __init__(self):
        self._joins: dict[str, JoinObservation] = {}
        #: observations recorded since :meth:`take_observed` last ran.
        self.fresh: list[JoinObservation] = []
        self.rate_history: list[RateSnapshot] = []

    # -- joins ---------------------------------------------------------
    def register_join(self, join_name: str, estimated_build: float) -> None:
        """Declare a join whose build side will be observed."""
        if join_name in self._joins:
            raise SchedulingError(f"join {join_name!r} registered twice")
        self._joins[join_name] = JoinObservation(join_name, estimated_build)

    def observe_build(self, join_name: str, actual_tuples: float,
                      time: float) -> JoinObservation:
        """Record the actual build size once the blocking edge completes."""
        try:
            observation = self._joins[join_name]
        except KeyError:
            raise SchedulingError(f"unknown join {join_name!r}") from None
        observation.observed_build = actual_tuples
        observation.observed_at = time
        self.fresh.append(observation)
        return observation

    def take_observed(self) -> list[JoinObservation]:
        """Observations recorded since the last call: all that can have
        become misestimated meanwhile."""
        observed, self.fresh = self.fresh, []
        return observed

    def update_estimate(self, join_name: str, estimated_build: float) -> None:
        """Re-baseline a join's estimate (after a plan revision swapped
        its sides); any previous observation no longer applies."""
        try:
            observation = self._joins[join_name]
        except KeyError:
            raise SchedulingError(f"unknown join {join_name!r}") from None
        observation.estimated_build = estimated_build
        observation.observed_build = None
        observation.observed_at = None

    def observations(self) -> list[JoinObservation]:
        """All observations, in registration order."""
        return list(self._joins.values())

    def misestimated_joins(self, threshold: float) -> list[JoinObservation]:
        """Observed joins whose error exceeds ``threshold``."""
        if threshold < 0:
            raise SchedulingError(f"threshold must be >= 0, got {threshold}")
        return [obs for obs in self._joins.values()
                if obs.is_misestimated(threshold)]

    # -- rates -----------------------------------------------------------
    def snapshot_rates(self, time: float, waits: dict[str, float]) -> None:
        """Record the per-source wait estimates of one planning phase.

        ``waits`` is kept, not copied: the CM's snapshot is a new dict
        whenever an estimate moves and is never mutated.
        """
        self.rate_history.append(RateSnapshot(time, waits))

    def __repr__(self) -> str:
        observed = sum(1 for o in self._joins.values()
                       if o.observed_build is not None)
        return (f"RuntimeStatistics({observed}/{len(self._joins)} joins "
                f"observed, {len(self.rate_history)} rate snapshots)")
