"""Telemetry stays with the process that ran the query.

A sweep result is rebuilt from the one payload of
:mod:`repro.parallel.results` whether it ran inline, in a pool worker or
came from the run cache.  The payload carries the run's seeded outcome
and not its telemetry planes, so a telemetry-on run comes back the same
three ways, without its metrics registry, samples or span tree.
"""

from repro.config import SimulationParameters
from repro.parallel import SweepRunner
from repro.parallel.results import (
    RESULT_SCHEMA_VERSION,
    multiquery_result_to_payload,
    result_from_payload,
    result_to_payload,
)
from repro.parallel.spec import MultiQuerySpec, RunSpec

SCALE = 0.02
DELAYS = {rel: {"kind": "uniform", "w": 2e-5} for rel in "ABCDEF"}
TELEMETRY = SimulationParameters(telemetry_enabled=True,
                                 telemetry_sample_interval=0.05,
                                 telemetry_spans=True)


def test_schema_version_covers_the_telemetry_payload():
    # Bumped 1 -> 2 when metrics/samples joined the payload, 2 -> 3 when
    # multi-query payloads gained decisions and admission outcomes,
    # 3 -> 4 when span trees and their summaries joined, 4 -> 5 when
    # submission/tenant identity joined, 5 -> 6 when worker identity
    # joined (`repro serve --workers N`), 6 -> 7 when all three left
    # again, 7 -> 8 when the multi-query outcome's tenant left, 8 -> 9
    # when metrics, samples, spans and the span summary left; the
    # version is part of every cache key, so stale entries miss cleanly.
    assert RESULT_SCHEMA_VERSION == 9


def test_payload_roundtrip_with_telemetry_disabled():
    result = RunSpec(strategy="DSE", seed=1, scale=SCALE,
                     delays=DELAYS).execute()
    rebuilt = result_from_payload(result_to_payload(result))
    assert rebuilt.metrics is None
    assert rebuilt.samples == []


def test_telemetry_on_results_come_back_equal_inline_pooled_and_cached(
        tmp_path):
    specs = [RunSpec(strategy="DSE", seed=1, scale=SCALE, delays=DELAYS,
                     params=TELEMETRY),
             MultiQuerySpec(strategy="DSE", wait=2e-5, num_queries=2, seed=1,
                            scale=SCALE, params=TELEMETRY,
                            memory_bytes=384 * 1024,
                            global_memory_bytes=512 * 1024)]

    def payloads(results):
        return [result_to_payload(results[0]),
                multiquery_result_to_payload(results[1])]

    executed = [spec.execute() for spec in specs]
    assert executed[0].metrics is not None and executed[0].samples
    assert executed[0].spans and executed[1].spans
    expected = payloads(executed)

    inline = SweepRunner(jobs=1).run(specs)
    pooled = SweepRunner(jobs=2).run(specs)
    SweepRunner(jobs=1, cache_dir=tmp_path).run(specs)
    warm_runner = SweepRunner(jobs=1, cache_dir=tmp_path)
    warm = warm_runner.run(specs)
    assert warm_runner.stats.cache_hits == 2

    for results in (inline, pooled, warm):
        assert payloads(results) == expected
        single, batch = results
        assert single.metrics is None and single.samples == []
        assert single.spans is None and batch.spans is None
