"""ExecutionResult <-> JSON payload conversion.

Parallel workers and the run cache both move results across a process or
filesystem boundary, so the *measured* content of an
:class:`~repro.core.engine.ExecutionResult` is flattened to plain JSON:
every scalar metric, the per-wrapper and per-fragment statistics, the
stall breakdown and the typed decision log (the run's execution trace)
survive the round trip bit-for-bit (Python floats serialize losslessly
through ``repr``-based JSON).

Since schema 2 the telemetry channels cross the boundary too: the
metrics registry travels as its snapshot dict (rebuilt via
:meth:`~repro.observability.registry.MetricsRegistry.from_snapshot`, so
a parent process can :meth:`~repro.observability.registry.
MetricsRegistry.merge` worker telemetry) and the periodic samples as
their plain dicts.  What still does **not** survive is the one
in-memory object graph that only makes sense inside the producing
process: the runtime-statistics object.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from repro.core.engine import ExecutionResult, FragmentStat
from repro.core.multiquery import MultiQueryResult, QueryOutcome
from repro.observability import (
    DecisionRecord,
    MetricsRegistry,
    SamplePoint,
    Span,
)

#: bumped whenever the payload layout changes (part of the cache key).
#: 2: telemetry metrics snapshot + periodic samples joined the payload.
#: 3: multi-query payloads carry the machine-wide decision audit log and
#:    the per-query admission/memory outcome fields.
#: 4: causal span trees and their compact summaries cross the boundary
#:    (``spans`` / ``span_summary``; None when spans were disabled).
#: 5: submission/tenant identity joined both payload shapes
#:    (``submission_id`` / ``tenant``; None/"" outside `repro serve`).
#: 6: ``worker_id`` joined the scalar fields — results produced by a
#:    `repro serve --workers N` pool identify the executing worker.
#: 7: ``submission_id`` / ``tenant`` / ``worker_id`` left again (the
#:    service reports a submission's own outcome dict, not this payload).
#: 8: the multi-query outcome's ``tenant`` left (nothing set it).
RESULT_SCHEMA_VERSION = 8

#: scalar ExecutionResult fields copied verbatim, in schema order.
_SCALAR_FIELDS = (
    "strategy", "response_time", "result_tuples", "time_to_first_tuple",
    "planning_phases", "context_switches", "batches_processed", "stall_time",
    "degradations", "memory_splits", "timeouts", "rate_change_events",
    "cpu_busy_time", "cpu_utilization", "disk_busy_time", "disk_ios",
    "disk_seeks", "cache_hit_ratio", "memory_peak_bytes", "tuples_spilled",
    "tuples_reloaded",
)


def result_to_payload(result: ExecutionResult) -> dict[str, Any]:
    """Flatten the measured content of one execution to plain JSON."""
    payload: dict[str, Any] = {
        name: getattr(result, name) for name in _SCALAR_FIELDS}
    payload["wrapper_stats"] = {
        name: list(stats) for name, stats in result.wrapper_stats.items()}
    payload["fragment_stats"] = {
        name: asdict(stat) for name, stat in result.fragment_stats.items()}
    payload["reopt_opportunities"] = list(result.reopt_opportunities)
    payload["reopt_swaps"] = list(result.reopt_swaps)
    payload["stall_breakdown"] = dict(result.stall_breakdown)
    payload["decisions"] = [record.to_dict() for record in result.decisions]
    payload["metrics"] = (result.metrics.as_dict()
                          if result.metrics is not None else None)
    payload["samples"] = [sample.to_dict() for sample in result.samples]
    payload["spans"] = ([span.to_dict() for span in result.spans]
                        if result.spans is not None else None)
    payload["span_summary"] = result.span_summary
    return payload


def result_from_payload(payload: dict[str, Any]) -> ExecutionResult:
    """Rebuild an :class:`ExecutionResult` from :func:`result_to_payload`."""
    result = ExecutionResult(
        **{name: payload[name] for name in _SCALAR_FIELDS})
    result.wrapper_stats = {
        name: tuple(stats)  # type: ignore[misc]
        for name, stats in payload["wrapper_stats"].items()}
    result.fragment_stats = {
        name: FragmentStat(**stat)
        for name, stat in payload["fragment_stats"].items()}
    result.reopt_opportunities = list(payload["reopt_opportunities"])
    result.reopt_swaps = list(payload["reopt_swaps"])
    result.stall_breakdown = dict(payload["stall_breakdown"])
    result.decisions = [DecisionRecord.from_dict(record)
                        for record in payload["decisions"]]
    metrics = payload.get("metrics")
    if metrics is not None:
        result.metrics = MetricsRegistry.from_snapshot(metrics)
    result.samples = [SamplePoint.from_dict(sample)
                      for sample in payload.get("samples", [])]
    spans = payload.get("spans")
    if spans is not None:
        result.spans = [Span.from_dict(span) for span in spans]
    result.span_summary = payload.get("span_summary")
    return result


def multiquery_result_to_payload(result: MultiQueryResult) -> dict[str, Any]:
    """Flatten one multi-query run (per-query outcomes + machine totals)."""
    return {
        "outcomes": [asdict(outcome) for outcome in result.outcomes],
        "makespan": result.makespan,
        "cpu_busy_time": result.cpu_busy_time,
        "disk_busy_time": result.disk_busy_time,
        "decisions": [record.to_dict() for record in result.decisions],
        "spans": ([span.to_dict() for span in result.spans]
                  if result.spans is not None else None),
    }


def multiquery_result_from_payload(payload: dict[str, Any]) -> MultiQueryResult:
    spans = payload.get("spans")
    return MultiQueryResult(
        outcomes=[QueryOutcome(**outcome) for outcome in payload["outcomes"]],
        makespan=payload["makespan"],
        cpu_busy_time=payload["cpu_busy_time"],
        disk_busy_time=payload["disk_busy_time"],
        decisions=[DecisionRecord.from_dict(record)
                   for record in payload.get("decisions", [])],
        spans=([Span.from_dict(span) for span in spans]
               if spans is not None else None),
    )
