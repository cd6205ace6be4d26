"""Post-run analysis: where did the response time go?

The paper diagnoses strategies by decomposing response time into useful
work and stalls (Sections 5.2–5.4).  :func:`time_breakdown` splits one
execution's response time into the engine's CPU work, engine stalls, and
the remainder (time the CPU was held by communication/IO bookkeeping or
the processor waited behind them); :func:`comparison_report` renders a
side-by-side anatomy of several strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import ExecutionResult
from repro.experiments.report import format_table


@dataclass(frozen=True)
class TimeBreakdown:
    """Decomposition of one execution's response time."""

    response_time: float
    fragment_cpu: float     #: CPU spent inside query fragments
    overhead_cpu: float     #: CPU spent elsewhere (receive, I/O, planning)
    stall_time: float       #: DQP waiting with nothing to do
    other_time: float       #: residual (CPU idle without a tracked stall)

    def rows(self) -> list[list[str]]:
        def row(label: str, value: float) -> list[str]:
            share = value / self.response_time if self.response_time else 0.0
            return [label, f"{value:.3f}", f"{share:.0%}"]

        return [
            row("fragment CPU (operator work)", self.fragment_cpu),
            row("overhead CPU (receive/IO/planning)", self.overhead_cpu),
            row("engine stalls (no data anywhere)", self.stall_time),
            row("other (waiting behind CPU/disk)", self.other_time),
        ]


def time_breakdown(result: ExecutionResult) -> TimeBreakdown:
    """Decompose ``result``'s response time."""
    fragment_cpu = sum(stat.cpu_seconds
                       for stat in result.fragment_stats.values())
    overhead_cpu = max(0.0, result.cpu_busy_time - fragment_cpu)
    other = max(0.0, result.response_time - result.cpu_busy_time
                - result.stall_time)
    return TimeBreakdown(
        response_time=result.response_time,
        fragment_cpu=fragment_cpu,
        overhead_cpu=overhead_cpu,
        stall_time=result.stall_time,
        other_time=other)


def comparison_report(results: dict[str, ExecutionResult],
                      title: str = "Strategy anatomy") -> str:
    """Side-by-side response-time anatomy of several strategies."""
    if not results:
        raise ValueError("no results to compare")
    headers = ["component"] + list(results)
    breakdowns = {name: time_breakdown(result)
                  for name, result in results.items()}
    labels = [row[0] for row in next(iter(breakdowns.values())).rows()]
    rows = []
    for i, label in enumerate(labels):
        rows.append([label] + [breakdowns[name].rows()[i][1]
                               for name in results])
    rows.append(["response time (s)"]
                + [f"{results[name].response_time:.3f}" for name in results])
    rows.append(["result tuples"]
                + [str(results[name].result_tuples) for name in results])
    return format_table(headers, rows, title=title)
