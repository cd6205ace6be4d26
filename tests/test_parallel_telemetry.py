"""Telemetry across the process boundary (result payload schema 2).

Since schema 2 the metrics registry and the periodic samples ride the
worker payloads, and :class:`SweepRunner` folds every result's registry
into ``merged_metrics`` — inline, pool-shipped or cache-served alike.
"""

import pytest

from repro.config import SimulationParameters
from repro.parallel import SweepRunner
from repro.parallel.results import (
    RESULT_SCHEMA_VERSION,
    result_from_payload,
    result_to_payload,
)
from repro.parallel.spec import RunSpec

SCALE = 0.02
TELEMETRY = SimulationParameters(telemetry_enabled=True,
                                 telemetry_sample_interval=0.05)


def _spec(strategy="DSE", seed=1, params=TELEMETRY) -> RunSpec:
    return RunSpec(strategy=strategy, seed=seed, scale=SCALE,
                   delays={rel: {"kind": "uniform", "w": 2e-5}
                           for rel in ["A", "B", "C", "D", "E", "F"]},
                   params=params)


def test_schema_version_covers_the_telemetry_payload():
    # Bumped 1 -> 2 when metrics/samples joined the payload, 2 -> 3 when
    # multi-query payloads gained decisions and admission outcomes,
    # 3 -> 4 when span trees and their summaries joined, 4 -> 5 when
    # submission/tenant identity joined, 5 -> 6 when worker identity
    # joined (`repro serve --workers N`), 6 -> 7 when all three left
    # again, 7 -> 8 when the multi-query outcome's tenant left; the
    # version is part of every cache key, so stale entries miss cleanly.
    assert RESULT_SCHEMA_VERSION == 8


def test_payload_roundtrip_preserves_metrics_and_samples():
    result = _spec().execute()
    assert result.metrics is not None and result.samples

    rebuilt = result_from_payload(result_to_payload(result))
    assert rebuilt.metrics is not None
    assert rebuilt.metrics.as_dict() == result.metrics.as_dict()
    assert [s.to_dict() for s in rebuilt.samples] == \
        [s.to_dict() for s in result.samples]
    assert rebuilt.response_time == result.response_time


def test_payload_roundtrip_with_telemetry_disabled():
    result = _spec(params=SimulationParameters()).execute()
    rebuilt = result_from_payload(result_to_payload(result))
    assert rebuilt.metrics is None
    assert rebuilt.samples == []


def test_pool_results_carry_the_same_metrics_as_inline():
    specs = [_spec(seed=s) for s in (1, 2)]
    inline = SweepRunner(jobs=1).run(specs)
    pooled = SweepRunner(jobs=2).run([_spec(seed=s) for s in (1, 2)])
    for serial, parallel in zip(inline, pooled):
        assert parallel.metrics.as_dict() == serial.metrics.as_dict()


def test_merged_metrics_sum_counters_across_the_sweep():
    specs = [_spec(seed=s) for s in (1, 2, 3)]
    runner = SweepRunner(jobs=1)
    results = runner.run(specs)

    merged = runner.merged_metrics.as_dict()
    expected = sum(r.metrics.get("dqp.batches").value for r in results)
    assert merged["dqp.batches"]["value"] == expected
    assert merged["cm.tuples_received"]["value"] == sum(
        r.metrics.get("cm.tuples_received").value for r in results)


def test_merged_metrics_identical_inline_pool_and_cached(tmp_path):
    def fresh_specs():
        return [_spec(seed=s) for s in (1, 2)]

    inline = SweepRunner(jobs=1)
    inline.run(fresh_specs())

    pooled = SweepRunner(jobs=2)
    pooled.run(fresh_specs())
    assert pooled.merged_metrics.as_dict() == inline.merged_metrics.as_dict()

    cold = SweepRunner(jobs=1, cache_dir=tmp_path)
    cold.run(fresh_specs())
    warm = SweepRunner(jobs=1, cache_dir=tmp_path)
    warm.run(fresh_specs())
    assert warm.stats.cache_hits == 2  # served from disk, not executed
    assert warm.merged_metrics.as_dict() == inline.merged_metrics.as_dict()


def test_telemetry_disabled_runs_merge_nothing():
    runner = SweepRunner(jobs=1)
    runner.run([_spec(params=SimulationParameters())])
    assert len(runner.merged_metrics) == 0


def test_sample_points_survive_the_pool():
    [result] = SweepRunner(jobs=1).run([_spec()])
    [shipped] = SweepRunner(jobs=2).run([_spec(), _spec(seed=99)])[:1]
    assert [s.to_dict() for s in shipped.samples] == \
        [s.to_dict() for s in result.samples]
    assert shipped.samples[0].time >= 0
    assert shipped.samples[-1].memory_used_bytes >= 0


def test_merged_histograms_add_counts():
    specs = [_spec(seed=s) for s in (1, 2)]
    runner = SweepRunner(jobs=1)
    results = runner.run(specs)
    merged = runner.merged_metrics.as_dict()
    name = "dqp.batch_tuples"
    merged_hist = merged[name]
    per_run = [r.metrics.get(name).as_dict() for r in results]
    assert merged_hist["count"] == sum(h["count"] for h in per_run)
    assert merged_hist["sum"] == pytest.approx(
        sum(h["sum"] for h in per_run))
    assert sum(merged_hist["counts"]) == merged_hist["count"]
