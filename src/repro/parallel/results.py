"""ExecutionResult <-> JSON payload conversion.

Every result a sweep returns — run inline, in a pool worker, or served
from the run cache — is rebuilt from the one payload defined here.  It
carries the run's own seeded outcome, flattened to plain JSON: every
scalar metric, the per-wrapper and per-fragment statistics, the stall
breakdown and the typed decision log (the run's execution trace).  All
of it survives the round trip bit-for-bit (Python floats serialize
losslessly through ``repr``-based JSON).

The telemetry planes (metrics registry, periodic samples, span tree) and
the runtime-statistics object stay with the process that ran the query:
a rebuilt result has ``metrics is None``, ``samples == []`` and
``spans is None``.  A caller that wants them runs ``spec.execute()``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from repro.core.engine import ExecutionResult, FragmentStat
from repro.core.multiquery import MultiQueryResult, QueryOutcome
from repro.observability import DecisionRecord

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
#: 9: the telemetry planes left (``metrics``, ``samples``, ``spans``,
#:    ``span_summary``): every sweep result is rebuilt from the payload,
#:    and no sweep reads them.
RESULT_SCHEMA_VERSION = 9

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
    return result


def multiquery_result_to_payload(result: MultiQueryResult) -> dict[str, Any]:
    """Flatten one multi-query run (per-query outcomes + machine totals)."""
    return {
        "outcomes": [asdict(outcome) for outcome in result.outcomes],
        "makespan": result.makespan,
        "cpu_busy_time": result.cpu_busy_time,
        "disk_busy_time": result.disk_busy_time,
        "decisions": [record.to_dict() for record in result.decisions],
    }


def multiquery_result_from_payload(payload: dict[str, Any]) -> MultiQueryResult:
    return MultiQueryResult(
        outcomes=[QueryOutcome(**outcome) for outcome in payload["outcomes"]],
        makespan=payload["makespan"],
        cpu_busy_time=payload["cpu_busy_time"],
        disk_busy_time=payload["disk_busy_time"],
        decisions=[DecisionRecord.from_dict(record)
                   for record in payload["decisions"]],
    )
