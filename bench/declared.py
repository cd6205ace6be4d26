"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root carries the same tables for
the driver; ``test_smoke.py`` fails when the two disagree or when a
workload prints a name that is not declared here.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

#: seconds one run measures (``--seconds`` default, ``run_seconds``).
RUN_SECONDS = 20

WORKLOADS = [
    ("sim_sweep",
     "virtual time, ample memory, telemetry off: 18 single-query runs "
     "(slowed A/F x 3 delays x SEQ/MA/DSE); kernel dispatch, DQP/DQS, "
     "CM and wrappers do all the work"),
    ("sim_multiquery_tightmem",
     "virtual time, 10 MB pool for 8 queries (DSE and MA), telemetry and "
     "spans on: DQO splits, MF/CF spill I/O, broker grow/reclaim and "
     "admission all run; bypasses the ample-memory fast path"),
    ("service_saturated",
     "wall clock, host-bound: in-process QueryService, fast modelled "
     "machine, closed loop of 32 clients over 16 leases; the only "
     "workload whose throughput is bounded by host CPU"),
    ("serve_http_pool",
     "wall clock, sleep-bound: repro serve --workers 2 subprocess, open "
     "loop 20 submissions/s over HTTP with polling; engine speed-ups "
     "predict no change, HTTP/pipe/sleep fixes show only here"),
]

#: (name, unit, better, bound).  Every workload reports every metric; a
#: "query" is one RunSpec run, one simulated query of a multi-query
#: batch, or one service submission.  One bound serves a metric on all
#: four workloads, so it is sized by the noisiest: over four sets of ten
#: runs on this change's host the widest interquartile spreads were
#: 8.5 % (capacity), 18.2 % (CPU, on serve_http_pool; 8.6 % elsewhere),
#: 11.4 % (p50), 12.1 % (p95) and 6.3 % (RSS), and the medians of two
#: sets differed by at most 7.3 % (set-up: 16.4 %).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("capacity_qps", "1/s", "higher", 0.20),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: (name, unit, better).  ``_busy_s`` = host seconds of self time inside
#: that layer's traced entry points: per pass on the virtual-time
#: workloads, over the traced window on ``service_saturated``.  Counts
#: marked (+) in README.md are seeded-deterministic per pass.
PER_LAYER = [
    ("exec.sim_events", "count", "lower"),
    ("exec.sim_events_per_s", "1/s", "higher"),
    ("exec.dispatch_self_s", "s", "lower"),
    ("exec.process_resumptions", "count", "lower"),
    ("exec.aio_idle_fraction", "fraction", "higher"),
    ("exec.aio_loop_other_s", "s", "lower"),
    ("exec.live_pump_busy_s", "s", "lower"),
    ("core.dqp_batches", "count", "lower"),
    ("core.dqp_batches_per_s", "1/s", "higher"),
    ("core.dqp_busy_s", "s", "lower"),
    ("core.dqs_plans", "count", "lower"),
    ("core.dqs_busy_s", "s", "lower"),
    ("core.dqo_busy_s", "s", "lower"),
    ("core.dqo_splits", "count", "lower"),
    ("core.degradations", "count", "lower"),
    ("core.sim_stall_s", "s", "lower"),
    ("core.driver_self_s", "s", "lower"),
    ("mediator.messages_delivered", "count", "lower"),
    ("mediator.deliver_busy_s", "s", "lower"),
    ("mediator.take_batch_busy_s", "s", "lower"),
    ("mediator.buffer_io_busy_s", "s", "lower"),
    ("mediator.temp_io_ops", "count", "lower"),
    ("wrappers.source_busy_s", "s", "lower"),
    ("resources.admission_requests", "count", "lower"),
    ("resources.admission_queued", "count", "lower"),
    ("resources.admission_wait_p50_ms", "ms", "lower"),
    ("resources.broker_busy_s", "s", "lower"),
    ("resources.admission_busy_s", "s", "lower"),
    ("resources.tenant_busy_s", "s", "lower"),
    ("observability.telemetry_overhead_ratio", "ratio", "lower"),
    ("observability.spans_recorded", "count", "lower"),
    ("observability.decisions_recorded", "count", "lower"),
    ("observability.sampler_busy_s", "s", "lower"),
    ("service.submit_busy_us", "us", "lower"),
    ("service.launch_busy_s", "s", "lower"),
    ("service.finish_busy_s", "s", "lower"),
    ("service.snapshot_busy_s", "s", "lower"),
    ("service.submitted", "count", "higher"),
    ("service.completed", "count", "higher"),
    ("service.failed", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.latency_p99_ms", "ms", "lower"),
    ("service.tenant_gold_p50_ms", "ms", "lower"),
    ("service.tenant_bronze_p50_ms", "ms", "lower"),
    ("service.latency_negative_count", "count", "lower"),
    ("service.http.submit_rtt_p50_ms", "ms", "lower"),
    ("service.http.poll_rtt_p50_ms", "ms", "lower"),
    ("service.http.rtt_over_30ms_fraction", "fraction", "lower"),
    ("service.http.polls_per_query", "count", "lower"),
    ("service.http.non_2xx", "count", "lower"),
    ("service.coordinator_cpu_ms_per_query", "ms", "lower"),
    ("service.workers.cpu_ms_per_query", "ms", "lower"),
    ("service.workers.balance", "ratio", "higher"),
    ("service.workers.steals", "count", "lower"),
    ("service.workers.restarts", "count", "lower"),
    ("parallel.payload_roundtrip_us", "us", "lower"),
    ("plan.figure5_build_ms", "ms", "lower"),
    ("plan.build_busy_s", "s", "lower"),
    ("gen.sample_count", "count", "higher"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("gen.cpu_fraction", "fraction", "lower"),
    ("gen.client_busy_s", "s", "lower"),
    ("gen.host_speed", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unresolved_targets", "count", "lower"),
    ("trace.untiled_fraction", "fraction", "lower"),
]

#: the open-loop generator voids a run whose own lateness exceeds this.
MAX_LATE_P99_MS = 5.0

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


@dataclass
class RunResult:
    """What one run of one workload hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: failed correctness checks, one line each (empty = correct).
    problems: List[str] = field(default_factory=list)
    #: harness-side doubts that void the run without blaming the program.
    voids: List[str] = field(default_factory=list)
    #: extra facts for the human table and ``--out`` (digests, counts).
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (harness + in-process program)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_zeros() -> dict:
    """Every per-layer metric at 0: a layer that does no work on a
    workload reads 0 there, which is itself what the workload asserts."""
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def workload_names() -> List[str]:
    return [name for name, _why in WORKLOADS]
