"""Export executions as Chrome-tracing timelines.

``write_chrome_trace`` turns an :class:`ExecutionResult` into the Trace
Event JSON consumed by ``chrome://tracing`` / Perfetto: one lane per
pipeline chain with a complete-event span per fragment, plus one instant
per record of the run's decision audit log (degradations, MF stops, CF
creations, memory splits, join swaps), carrying the inputs behind it.
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

    # Each decision's args are the numbers behind it (critical degree,
    # bmi vs bmt, memory in use), so the timeline shows *why*, not just
    # *when*.
    events.extend(
        trace_instant_event(f"{record.kind}: {record.subject}", "decision",
                            record.time, 0, record.args(), scope="g")
        for record in result.decisions)
    return events


def write_chrome_trace(path: "str | Path",
                       result: ExecutionResult) -> Path:
    """Write ``result`` as a Chrome-tracing JSON file; returns the path."""
    return write_trace_document(
        path, chrome_trace_events(result),
        {"strategy": result.strategy,
         "response_time_s": result.response_time}).resolve()
