"""Experiment harness: the paper's workloads, sweeps and reports.

Every table and figure of Section 5 has a runner here; the benchmark
suite under ``benchmarks/`` calls these and prints the same rows/series
the paper reports.
"""

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

__all__ = [
    "Figure5Workload",
    "GainPoint",
    "MeasuredPoint",
    "SlowdownPoint",
    "ThroughputPoint",
    "TimeBreakdown",
    "chrome_trace_events",
    "comparison_report",
    "figure5_workload",
    "format_table",
    "generate_all",
    "run_multiquery_experiment",
    "run_once",
    "run_slowdown_experiment",
    "run_uniform_slowdown_experiment",
    "slowdown_waits",
    "time_breakdown",
    "write_chrome_trace",
]
