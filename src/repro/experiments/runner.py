"""Generic experiment running: repeated measurements, strategy sweeps.

The paper repeats each measurement 3 times and averages (Section 5.1.3);
:func:`measure_points` does the same over runs with distinct seeds.

Two entry styles coexist:

* :func:`run_once`, one in-process run for ad-hoc catalogs and delay
  factories;
* the spec-based API (:func:`run_point_specs` / :func:`measure_points`)
  used by every sweep driver — runs are described as serializable
  :class:`~repro.parallel.spec.RunSpec` objects and executed through a
  :class:`~repro.parallel.SweepRunner`, which shards them across worker
  processes and serves repeats from the on-disk run cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.core.engine import ExecutionResult, QueryEngine
from repro.core.strategies import make_policy
from repro.parallel.engine import SweepRunner
from repro.parallel.spec import RunSpec
from repro.plan.qep import QEP
from repro.wrappers.delays import DelayModel

#: Builds fresh delay models for one run (models can be stateful).
DelayFactory = Callable[[], Mapping[str, DelayModel]]


@dataclass
class MeasuredPoint:
    """An averaged measurement for one strategy at one parameter point."""

    strategy: str
    response_time: float
    repetitions: int


def run_once(catalog: Catalog, qep: QEP, strategy: str,
             delay_factory: DelayFactory,
             params: SimulationParameters, seed: int = 0) -> ExecutionResult:
    """One simulated execution of ``strategy`` ("SEQ", "MA" or "DSE")."""
    engine = QueryEngine(catalog, qep, make_policy(strategy),
                         delay_factory(), params=params, seed=seed)
    return engine.run()


# -- spec-based running (parallel/cached sweeps) ----------------------------

def resolve_repetitions(params: SimulationParameters,
                        repetitions: int | None) -> int:
    """The repetition count of one measured point (paper default: 3)."""
    reps = repetitions if repetitions is not None else params.repetitions
    if reps < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {reps}")
    return reps


def point_specs(strategies: Sequence[str], scale: float, tuple_size: int,
                delays: dict[str, dict], params: SimulationParameters,
                repetitions: int, base_seed: int = 0) -> list[RunSpec]:
    """All ``strategy x repetition`` specs of one sweep point, in the
    serial execution order (strategy-major, then seed)."""
    return [
        RunSpec(strategy=strategy, seed=base_seed + i, scale=scale,
                delays=delays, params=params, tuple_size=tuple_size)
        for strategy in strategies
        for i in range(repetitions)
    ]


def run_point_specs(specs: Sequence[RunSpec],
                    runner: Optional[SweepRunner] = None
                    ) -> list[ExecutionResult]:
    """Execute specs through ``runner`` (serial in-process by default)."""
    runner = runner if runner is not None else SweepRunner()
    return runner.run(specs)


def measure_points(strategies: Sequence[str], results:
                   Sequence[ExecutionResult],
                   repetitions: int) -> dict[str, MeasuredPoint]:
    """Fold a strategy-major result list back into averaged points."""
    if len(results) != len(strategies) * repetitions:
        raise ValueError(
            f"expected {len(strategies) * repetitions} results, "
            f"got {len(results)}")
    measured: dict[str, MeasuredPoint] = {}
    for s, strategy in enumerate(strategies):
        chunk = results[s * repetitions:(s + 1) * repetitions]
        total = sum(r.response_time for r in chunk)
        measured[strategy] = MeasuredPoint(
            strategy, total / repetitions, repetitions)
    return measured
