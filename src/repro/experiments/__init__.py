"""Experiment harness: the paper's workloads, sweeps and reports.

Every table and figure of Section 5 has a runner here; the benchmark
suite under ``benchmarks/`` calls these and prints the same rows/series
the paper reports.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "workloads": ("Figure5Workload", "figure5_workload"),
    "runner": ("MeasuredPoint", "run_once"),
    "slowdown": ("SlowdownPoint", "run_slowdown_experiment", "slowdown_waits"),
    "uniform_slowdown": ("GainPoint", "run_uniform_slowdown_experiment"),
    "multiquery": ("ThroughputPoint", "run_multiquery_experiment"),
    "analysis": ("TimeBreakdown", "comparison_report", "time_breakdown"),
    "report": ("format_table",),
    "reproduce": ("generate_all",),
    "trace_export": ("chrome_trace_events", "write_chrome_trace"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.experiments.workloads import Figure5Workload, figure5_workload
    from repro.experiments.runner import (
        MeasuredPoint,
        run_once,
    )
    from repro.experiments.slowdown import (
        SlowdownPoint,
        run_slowdown_experiment,
        slowdown_waits,
    )
    from repro.experiments.uniform_slowdown import (
        GainPoint,
        run_uniform_slowdown_experiment,
    )
    from repro.experiments.multiquery import (
        ThroughputPoint,
        run_multiquery_experiment,
    )
    from repro.experiments.analysis import (
        TimeBreakdown,
        comparison_report,
        time_breakdown,
    )
    from repro.experiments.report import format_table
    from repro.experiments.reproduce import generate_all
    from repro.experiments.trace_export import (
        chrome_trace_events,
        write_chrome_trace,
    )
