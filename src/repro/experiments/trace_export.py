"""Export executions as Chrome-tracing timelines.

``write_chrome_trace`` turns an :class:`ExecutionResult` into the Trace
Event JSON consumed by ``chrome://tracing`` / Perfetto: one lane per
pipeline chain with a complete-event span per fragment, plus instant
events for the scheduler's decisions (degradations, MF stops, memory
splits, plan revisions) when the run was traced.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.engine import ExecutionResult
from repro.observability.export import (
    trace_instant_event,
    trace_span_event,
    trace_thread_name,
    write_trace_document,
)

#: trace categories exported as instant events, when a tracer is present.
DECISION_CATEGORIES = (
    "degrade", "mf-stop", "cf-create", "memory-split", "reopt-swap",
    "rate-change", "timeout", "chain-complete",
)


def chrome_trace_events(result: ExecutionResult) -> list[dict[str, Any]]:
    """The trace-event list for ``result`` (fragments + decisions)."""
    events: list[dict[str, Any]] = []
    chains = sorted({stat.chain for stat in result.fragment_stats.values()})
    tids = {chain: i + 1 for i, chain in enumerate(chains)}

    for stat in result.timeline():
        if stat.started_at is None or stat.finished_at is None:
            continue
        # A chain can appear in the timeline without being in the initial
        # map (e.g. CF-only views of a run); allocate its lane on demand
        # instead of raising KeyError.
        tid = tids.setdefault(stat.chain, len(tids) + 1)
        events.append(trace_span_event(
            stat.name, stat.kind, stat.started_at,
            stat.finished_at - stat.started_at, tid, {
                "tuples_in": stat.tuples_in,
                "tuples_out": stat.tuples_out,
                "batches": stat.batches,
                "cpu_seconds": stat.cpu_seconds,
            }))

    # After the span loop, so lanes allocated on demand get names too.
    events.extend(trace_thread_name(tid, chain)
                  for chain, tid in tids.items())

    if result.tracer is not None:
        # The audit log carries the numbers behind each decision (critical
        # degree, bmi vs bmt, memory in use); fold them into the matching
        # instant's args so the timeline shows *why*, not just *when*.
        audit_args: dict[tuple[str, str, float], dict[str, Any]] = {
            (record.kind, record.subject, record.time): record.args()
            for record in result.decisions
        }
        for category in DECISION_CATEGORIES:
            for trace_event in result.tracer.filter(category):
                args = dict(trace_event.payload)
                args.update(audit_args.get(
                    (category, trace_event.message, trace_event.time), {}))
                events.append(trace_instant_event(
                    f"{category}: {trace_event.message}", "decision",
                    trace_event.time, 0, args, scope="g"))
    return events


def write_chrome_trace(path: "str | Path",
                       result: ExecutionResult) -> Path:
    """Write ``result`` as a Chrome-tracing JSON file; returns the path."""
    return write_trace_document(
        path, chrome_trace_events(result),
        {"strategy": result.strategy,
         "response_time_s": result.response_time}).resolve()
