"""Serial == parallel == cache-served, bit for bit.

The whole point of the sweep runner is that sharding runs across worker
processes or serving them from the run cache is an *implementation*
choice, invisible in the results.  These tests pin that: the same fig6
sweep point computed three ways produces identical measured payloads,
and the spec-based drivers match the classic in-process API exactly.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationParameters
from repro.experiments.runner import run_once
from repro.experiments.slowdown import (
    STRATEGIES,
    run_slowdown_experiment,
    slowdown_waits,
)
from repro.experiments.workloads import figure5_workload
from repro.parallel import (
    SweepRunner,
    multiquery_result_to_payload,
    result_to_payload,
)
from repro.parallel.spec import MultiQuerySpec, RunSpec, uniform_delay_specs
from repro.wrappers.delays import UniformDelay

SCALE = 0.05
RETRIEVAL_TIMES = [0.5, 1.0]


@pytest.fixture(scope="module")
def workload():
    return figure5_workload(scale=SCALE)


@pytest.fixture(scope="module")
def specs(workload):
    """One fig6 sweep point: every strategy, two seeds."""
    params = SimulationParameters()
    waits = slowdown_waits(workload, "A", 1.0, params)
    return [RunSpec(strategy=strategy, seed=seed, scale=SCALE,
                    delays=uniform_delay_specs(waits), params=params)
            for strategy in STRATEGIES for seed in (0, 1)]


def _payloads(results):
    return [result_to_payload(r) for r in results]


def test_parallel_results_identical_to_serial(specs):
    serial = SweepRunner(jobs=1).run(specs)
    parallel = SweepRunner(jobs=4).run(specs)
    assert _payloads(parallel) == _payloads(serial)


def test_cache_served_results_identical_to_serial(specs, tmp_path):
    serial = SweepRunner(jobs=1).run(specs)

    cold = SweepRunner(jobs=1, cache_dir=tmp_path)
    cold_results = cold.run(specs)
    assert cold.stats.stored == len(specs)
    assert _payloads(cold_results) == _payloads(serial)

    warm = SweepRunner(jobs=1, cache_dir=tmp_path)
    warm_results = warm.run(specs)
    assert warm.stats.cache_hits == len(specs)
    assert warm.stats.executed_inline == warm.stats.executed_pool == 0
    assert _payloads(warm_results) == _payloads(serial)


def test_spec_execution_matches_classic_api(workload, specs):
    """RunSpec.execute() rebuilds the exact same run as run_once()."""
    params = SimulationParameters()
    waits = slowdown_waits(workload, "A", 1.0, params)
    for spec in specs:
        classic = run_once(
            workload.catalog, workload.qep, spec.strategy,
            lambda: {n: UniformDelay(w) for n, w in waits.items()},
            params, seed=spec.seed)
        assert result_to_payload(spec.execute()) == result_to_payload(classic)


def test_sweep_driver_identical_across_runners(workload):
    params = SimulationParameters()
    kwargs = dict(repetitions=2, base_seed=1)
    serial = run_slowdown_experiment(
        workload, "A", RETRIEVAL_TIMES, params, **kwargs)
    parallel = run_slowdown_experiment(
        workload, "A", RETRIEVAL_TIMES, params,
        runner=SweepRunner(jobs=4), **kwargs)
    assert [p.response_times for p in parallel] == \
           [p.response_times for p in serial]
    assert [p.lwb for p in parallel] == [p.lwb for p in serial]


def test_pool_payload_equals_inline_payload(specs):
    """What a worker ships over the wire == what inline execution yields."""
    spec = specs[0]
    assert spec.execute_payload() == result_to_payload(spec.execute())


def test_governed_multiquery_sweep_identical_serial_pooled_and_cached(
        tmp_path):
    """A governed batch (finite pool, FIFO admission, queued queries)
    comes back the same serial, sharded and from a cold-then-warm
    cache; the warm sweep executes nothing."""
    params = SimulationParameters().with_overrides(
        dynamic_budget_replanning=True)
    specs = [MultiQuerySpec(strategy=strategy, wait=2e-5, num_queries=3,
                            seed=1, scale=SCALE, params=params,
                            memory_bytes=384 * 1024,
                            min_memory_bytes=384 * 1024,
                            max_memory_bytes=2 * 1024 * 1024,
                            global_memory_bytes=896 * 1024,
                            admission="fifo")
             for strategy in ("DSE", "SEQ")]
    assert len({spec.cache_key() for spec in specs}) == len(specs)

    def payloads(results):
        return [multiquery_result_to_payload(r) for r in results]

    serial = payloads(SweepRunner(jobs=1).run(specs))
    assert any(outcome["admission_wait"] > 0
               for payload in serial for outcome in payload["outcomes"])
    assert payloads(SweepRunner(jobs=2).run(specs)) == serial

    cold = SweepRunner(jobs=1, cache_dir=tmp_path)
    assert payloads(cold.run(specs)) == serial
    assert cold.stats.stored == len(specs)
    warm = SweepRunner(jobs=1, cache_dir=tmp_path)
    assert payloads(warm.run(specs)) == serial
    assert warm.stats.cache_hits == len(specs)
    assert warm.stats.executed_inline == warm.stats.executed_pool == 0
