"""The one-slowed-down-relation experiments (Figures 6 and 7).

One input relation's average waiting time ``w`` is increased so that its
total retrieval time (``n_p * w``, the X axis of the figures) sweeps a
range; every other relation stays at ``w_min``.  SEQ, MA and DSE are
measured at each point and the analytic LWB is computed alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.core.strategies.lwb import lower_bound
from repro.experiments.workloads import Figure5Workload
from repro.parallel.spec import uniform_delay_specs

if TYPE_CHECKING:
    from repro.parallel.engine import SweepRunner

STRATEGIES = ["SEQ", "MA", "DSE"]


@dataclass
class SlowdownPoint:
    """One X position of Figure 6/7: retrieval time of the slowed relation."""

    slowed_relation: str
    retrieval_time: float          #: n_p * w of the slowed relation (X axis)
    wait: float                    #: the w this corresponds to
    response_times: dict[str, float]  #: strategy -> averaged response time
    lwb: float

    #: the column names of :meth:`row`.
    HEADERS = ("retrieval_s", *STRATEGIES, "LWB")

    def row(self) -> list[str]:
        cells = [f"{self.retrieval_time:.2f}"]
        cells += [f"{self.response_times[s]:.3f}" for s in STRATEGIES]
        cells.append(f"{self.lwb:.3f}")
        return cells


def slowdown_waits(workload: Figure5Workload, slowed_relation: str,
                   retrieval_time: float,
                   params: SimulationParameters) -> dict[str, float]:
    """Mean waits per relation with one relation slowed down.

    ``retrieval_time`` is the total time to retrieve the slowed relation
    entirely (the figures' X axis); every other relation runs at
    ``w_min``.  The slowed relation never goes *below* ``w_min``.
    """
    cardinality = workload.catalog.relation(slowed_relation).cardinality
    slowed_wait = max(params.w_min, retrieval_time / cardinality)
    waits = {name: params.w_min for name in workload.relation_names}
    waits[slowed_relation] = slowed_wait
    return waits


def run_slowdown_experiment(workload: Figure5Workload, slowed_relation: str,
                            retrieval_times: list[float],
                            params: SimulationParameters,
                            repetitions: int | None = None,
                            base_seed: int = 0,
                            runner: Optional[SweepRunner] = None
                            ) -> list[SlowdownPoint]:
    """Measure all strategies across the retrieval-time sweep.

    Every ``(point, strategy, repetition)`` run is independent, so the
    whole sweep is submitted to ``runner`` as one flat batch — with
    ``jobs > 1`` it shards across processes, with a cache directory
    repeated points are served from disk.  Results are folded back in
    deterministic point order.
    """
    from repro.experiments.runner import (
        measure_points,
        point_specs,
        resolve_repetitions,
        run_point_specs,
    )

    if slowed_relation not in workload.relation_names:
        raise ConfigurationError(
            f"unknown relation {slowed_relation!r}; choose from "
            f"{workload.relation_names}")
    bad = [t for t in retrieval_times if not (math.isfinite(t) and t >= 0)]
    if bad:
        # slowdown_waits would clamp them to w_min under their own label.
        raise ConfigurationError(
            f"retrieval times must be finite and >= 0, got {bad}")
    reps = resolve_repetitions(params, repetitions)
    point_waits = [slowdown_waits(workload, slowed_relation, retrieval_time,
                                  params)
                   for retrieval_time in retrieval_times]
    specs = []
    for waits in point_waits:
        specs.extend(point_specs(
            STRATEGIES, workload.scale, workload.tuple_size,
            uniform_delay_specs(waits), params, reps, base_seed))
    results = run_point_specs(specs, runner)

    points = []
    per_point = len(STRATEGIES) * reps
    for p, (retrieval_time, waits) in enumerate(
            zip(retrieval_times, point_waits)):
        measured = measure_points(
            STRATEGIES, results[p * per_point:(p + 1) * per_point], reps)
        points.append(SlowdownPoint(
            slowed_relation=slowed_relation,
            retrieval_time=retrieval_time,
            wait=waits[slowed_relation],
            response_times={s: m.response_time for s, m in measured.items()},
            lwb=lower_bound(workload.qep, waits, params)))
    return points
