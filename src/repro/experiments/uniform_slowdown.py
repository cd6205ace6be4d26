"""The several-slowed-down-relations experiment (Figure 8).

All wrappers get the same increasing ``w_min``; the figure plots the
performance *gain* of DSE over SEQ:  ``gain = (SEQ - DSE) / SEQ``.
High ``w_min`` stands for slow networks, low for fast ones (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SimulationParameters
from repro.core.strategies.lwb import lower_bound
from repro.experiments.runner import (
    measure_points,
    point_specs,
    resolve_repetitions,
    run_point_specs,
)
from repro.experiments.workloads import Figure5Workload
from repro.parallel.engine import SweepRunner
from repro.parallel.spec import uniform_delay_specs


@dataclass
class GainPoint:
    """One X position of Figure 8."""

    w_min: float
    seq_response: float
    dse_response: float
    lwb: float

    #: the column names of :meth:`row`.
    HEADERS = ("w_min_us", "SEQ_s", "DSE_s", "gain_pct", "LWB_s")

    @property
    def gain(self) -> float:
        """DSE's relative gain over SEQ (the figure's Y axis)."""
        if self.seq_response <= 0:
            return 0.0
        return (self.seq_response - self.dse_response) / self.seq_response

    def row(self) -> list[str]:
        return [f"{self.w_min * 1e6:.0f}", f"{self.seq_response:.3f}",
                f"{self.dse_response:.3f}", f"{self.gain * 100:.1f}",
                f"{self.lwb:.3f}"]


STRATEGIES = ["SEQ", "DSE"]


def run_uniform_slowdown_experiment(workload: Figure5Workload,
                                    w_values: list[float],
                                    params: SimulationParameters,
                                    repetitions: int | None = None,
                                    base_seed: int = 0,
                                    runner: Optional[SweepRunner] = None
                                    ) -> list[GainPoint]:
    """Sweep the common ``w_min`` and measure SEQ vs DSE.

    Like :func:`~repro.experiments.slowdown.run_slowdown_experiment`,
    the whole sweep goes to ``runner`` as one flat batch of independent
    runs (sharded / cached), then folds back in point order.
    """
    reps = resolve_repetitions(params, repetitions)
    point_params = [params.with_overrides(w_min=w) for w in w_values]
    specs = []
    for w, p_params in zip(w_values, point_params):
        waits = {name: w for name in workload.relation_names}
        specs.extend(point_specs(
            STRATEGIES, workload.scale, workload.tuple_size,
            uniform_delay_specs(waits), p_params, reps, base_seed))
    results = run_point_specs(specs, runner)

    points = []
    per_point = len(STRATEGIES) * reps
    for p, (w, p_params) in enumerate(zip(w_values, point_params)):
        measured = measure_points(
            STRATEGIES, results[p * per_point:(p + 1) * per_point], reps)
        waits = {name: w for name in workload.relation_names}
        points.append(GainPoint(
            w_min=w,
            seq_response=measured["SEQ"].response_time,
            dse_response=measured["DSE"].response_time,
            lwb=lower_bound(workload.qep, waits, p_params)))
    return points
