"""Tight-budget degradation paths on both execution backends.

A budget below the workload's peak residency drives the full
memory-pressure machinery — ``HashTable`` insert overflow, the DQO's
memory split (MF + CONT), complement replay — and the query must still
produce the correct join result.  The same path must hold on the
virtual-time simulator and on the wall-clock asyncio backend, which
run the same modelled sources under the same memory plumbing.
"""

import asyncio

import pytest

from repro import SimulationParameters, UniformDelay, make_policy
from repro.core.engine import QueryEngine
from repro.exec.live import LiveQueryEngine
from repro.experiments import figure5_workload

KB = 1024
#: below the ~88K peak residency of the 1% workload, above its floor.
TIGHT = 75 * KB
WAIT = 2e-5


@pytest.fixture
def workload():
    return figure5_workload(scale=0.01)


def _engine(engine_class, workload, strategy, budget=None, telemetry=False):
    overrides = {"telemetry_enabled": telemetry}
    if budget is not None:
        overrides["query_memory_bytes"] = budget
    params = SimulationParameters().with_overrides(**overrides)
    return engine_class(
        workload.catalog, workload.qep, make_policy(strategy),
        {rel: UniformDelay(WAIT) for rel in workload.relation_names},
        params=params, seed=5)


def _simulated(workload, strategy, budget=None, telemetry=False):
    return _engine(QueryEngine, workload, strategy, budget, telemetry).run()


def _live(workload, strategy, budget):
    return asyncio.run(
        _engine(LiveQueryEngine, workload, strategy, budget).run())


@pytest.mark.parametrize("strategy", ["SEQ", "DSE"])
def test_simulator_backend_splits_and_recovers(workload, strategy):
    roomy = _simulated(workload, strategy)
    tight = _simulated(workload, strategy, budget=TIGHT)
    assert roomy.memory_splits == 0
    assert tight.memory_splits >= 1
    # Degradation changes the schedule, never the answer.
    assert tight.result_tuples == roomy.result_tuples == 500
    assert tight.memory_peak_bytes <= TIGHT


def test_dse_degrades_under_pressure(workload):
    tight = _simulated(workload, "DSE", budget=TIGHT)
    assert tight.degradations >= 1
    assert tight.memory_splits >= 1
    assert tight.result_tuples == 500


@pytest.mark.parametrize("strategy", ["SEQ", "DSE"])
def test_asyncio_backend_splits_and_recovers(workload, strategy):
    live = _live(workload, strategy, budget=TIGHT)
    assert live.memory_splits >= 1
    assert live.result_tuples == 500
    assert live.memory_peak_bytes <= TIGHT
    simulated = _simulated(workload, strategy, budget=TIGHT)
    assert (live.memory_splits, live.degradations) \
        == (simulated.memory_splits, simulated.degradations)


def test_memory_gauges_published(workload):
    """Per-query memory gauges ride the metrics registry (satellite)."""
    result = _simulated(workload, "DSE", budget=TIGHT, telemetry=True)
    assert result.metrics is not None
    snapshot = result.metrics.as_dict()
    assert snapshot["memory.used_bytes"]["value"] == 0  # all released
    assert snapshot["memory.peak_bytes"]["value"] == result.memory_peak_bytes
    assert snapshot["memory.available_bytes"]["value"] == TIGHT
