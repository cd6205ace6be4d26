"""Unified telemetry layer: metrics, stall attribution, decision audit.

See :mod:`repro.observability.telemetry` for the per-machine facade the
runtime hangs everything off (``world.telemetry``).
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "archive": (
        "ARCHIVE_SCHEMA_VERSION", "RECORD_ALERT", "RECORD_DECISION",
        "RECORD_KINDS", "RECORD_OUTCOME", "RECORD_SNAPSHOT", "RECORD_SPAN",
        "ArchiveReader", "SegmentedLog", "TelemetryArchive", "list_segments",
    ),
    "audit": (
        "DECISION_ADMISSION_QUEUE", "DECISION_ADMIT", "DECISION_CF_CREATE",
        "DECISION_DEGRADE", "DECISION_LEASE_GROW", "DECISION_LEASE_SHRINK",
        "DECISION_MEMORY_SPLIT", "DECISION_MF_STOP", "DECISION_REOPT_SWAP",
        "DecisionAuditLog", "DecisionRecord",
    ),
    "export": (
        "load_metrics_json", "prometheus_text", "telemetry_snapshot",
        "write_metrics_csv", "write_metrics_json", "write_metrics_prometheus",
    ),
    "flight": (
        "ENTRY_BATCH", "ENTRY_DECISION", "ENTRY_PHASE", "ENTRY_SAMPLE",
        "ENTRY_STALL", "FlightEntry", "FlightRecorder", "StallWatchdog",
        "flight_trace_events", "load_flight_dump",
    ),
    "live": (
        "MetricsPublisher", "SnapshotSubscription", "build_live_snapshot",
        "live_prometheus_text",
    ),
    "registry": (
        "BATCH_BUCKETS", "DURATION_BUCKETS_S", "NULL_METRIC", "NULL_REGISTRY",
        "CounterMetric", "GaugeMetric", "HistogramMetric", "MetricsRegistry",
        "NullMetric",
    ),
    "sampling": ("SamplePoint", "TelemetrySampler", "take_sample"),
    "explain": (
        "Explanation", "Segment", "critical_path", "explain_spans",
        "format_explanation", "format_explanation_diff", "span_summary",
    ),
    "hooks": ("NULL_HOOKS", "DQPHooks", "compile_dqp_hooks"),
    "spans": (
        "SPAN_ADMISSION_WAIT", "SPAN_BATCH", "SPAN_BUDGET_REPLAN",
        "SPAN_EXEC_PHASE", "SPAN_FRAGMENT", "SPAN_LEASE_GROW", "SPAN_PLANNING",
        "SPAN_QUERY", "SPAN_RATE_REPLAN", "SPAN_STALL", "Span", "SpanRecorder",
        "load_spans", "span_trace_events", "write_spans_json",
    ),
    "stalls": (
        "STALL_ADMISSION_WAIT", "STALL_MEMORY_WAIT", "STALL_NO_SCHEDULABLE",
        "STALL_TIMEOUT", "StallAttribution", "StallInterval", "is_source_wait",
        "source_wait",
    ),
    "telemetry": ("NULL_TELEMETRY", "Telemetry"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.observability.archive import (
        ARCHIVE_SCHEMA_VERSION,
        RECORD_ALERT,
        RECORD_DECISION,
        RECORD_KINDS,
        RECORD_OUTCOME,
        RECORD_SNAPSHOT,
        RECORD_SPAN,
        ArchiveReader,
        SegmentedLog,
        TelemetryArchive,
        list_segments,
    )
    from repro.observability.audit import (
        DECISION_ADMISSION_QUEUE,
        DECISION_ADMIT,
        DECISION_CF_CREATE,
        DECISION_DEGRADE,
        DECISION_LEASE_GROW,
        DECISION_LEASE_SHRINK,
        DECISION_MEMORY_SPLIT,
        DECISION_MF_STOP,
        DECISION_REOPT_SWAP,
        DecisionAuditLog,
        DecisionRecord,
    )
    from repro.observability.export import (
        load_metrics_json,
        prometheus_text,
        telemetry_snapshot,
        write_metrics_csv,
        write_metrics_json,
        write_metrics_prometheus,
    )
    from repro.observability.flight import (
        ENTRY_BATCH,
        ENTRY_DECISION,
        ENTRY_PHASE,
        ENTRY_SAMPLE,
        ENTRY_STALL,
        FlightEntry,
        FlightRecorder,
        StallWatchdog,
        flight_trace_events,
        load_flight_dump,
    )
    from repro.observability.live import (
        MetricsPublisher,
        SnapshotSubscription,
        build_live_snapshot,
        live_prometheus_text,
    )
    from repro.observability.registry import (
        BATCH_BUCKETS,
        DURATION_BUCKETS_S,
        NULL_METRIC,
        NULL_REGISTRY,
        CounterMetric,
        GaugeMetric,
        HistogramMetric,
        MetricsRegistry,
        NullMetric,
    )
    from repro.observability.sampling import SamplePoint, TelemetrySampler, take_sample
    from repro.observability.explain import (
        Explanation,
        Segment,
        critical_path,
        explain_spans,
        format_explanation,
        format_explanation_diff,
        span_summary,
    )
    from repro.observability.hooks import NULL_HOOKS, DQPHooks, compile_dqp_hooks
    from repro.observability.spans import (
        SPAN_ADMISSION_WAIT,
        SPAN_BATCH,
        SPAN_BUDGET_REPLAN,
        SPAN_EXEC_PHASE,
        SPAN_FRAGMENT,
        SPAN_LEASE_GROW,
        SPAN_PLANNING,
        SPAN_QUERY,
        SPAN_RATE_REPLAN,
        SPAN_STALL,
        Span,
        SpanRecorder,
        load_spans,
        span_trace_events,
        write_spans_json,
    )
    from repro.observability.stalls import (
        STALL_ADMISSION_WAIT,
        STALL_MEMORY_WAIT,
        STALL_NO_SCHEDULABLE,
        STALL_TIMEOUT,
        StallAttribution,
        StallInterval,
        is_source_wait,
        source_wait,
    )
    from repro.observability.telemetry import NULL_TELEMETRY, Telemetry
