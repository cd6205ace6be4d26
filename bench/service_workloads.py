"""``service_saturated``: the in-process service driven to host saturation.

A fast modelled machine (``cpu_mips=10_000``) makes every modelled delay
about 100x shorter than the host cost of simulating it, so the asyncio
kernel never sleeps and completions per second measure the host CPU the
control plane + engine spend per query.  The load is a closed loop of
32 client coroutines on the service's own loop (submit, await
``record.done``, next), which gives the capacity directly; with 16
leases, 16 tickets are always queued in admission.  Everything is timed
with ``time.perf_counter`` / ``time.process_time`` from the client side:
under saturation the service's own ``SubmissionRecord.latency()`` mixes
two clocks and reads negative (counted, not failed, in
``service.latency_negative_count``).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import hostclock
from declared import (
    RunResult,
    median,
    own_peak_rss_mb,
    per_layer_zeros,
    percentile,
)

CLIENTS = 32
LEASES = 16
SCALE = 0.0005
TENANTS = (("gold", 2.0), ("silver", 1.0), ("bronze", 0.0))
STRATEGIES = ("DSE", "DSE", "MA", "SEQ")
#: the rate drifts ~8 % over the first seconds (caches, allocator), so a
#: full-length run warms up this long before the measured window.
WARMUP_S = 4.0


def build_service(seed: int) -> Any:
    """The service under test (also what ``setup_probe.py`` times)."""
    from repro.config import SimulationParameters
    from repro.resources import TenantSpec
    from repro.service import QueryService

    params = SimulationParameters(
        cpu_mips=10_000.0, disk_latency=17e-5, disk_seek_time=5e-5,
        disk_transfer_rate=600_000_000.0, telemetry_enabled=True)
    return QueryService(
        params=params, seed=seed,
        global_memory_bytes=LEASES * params.query_memory_bytes,
        admission="priority",
        tenants=[TenantSpec(name, priority=priority)
                 for name, priority in TENANTS],
        history=64)


def reference_run() -> Any:
    """The submitted query's plan run once in virtual time."""
    from repro.config import SimulationParameters
    from repro.parallel.spec import RunSpec, uniform_delay_specs

    params = SimulationParameters()
    waits = {name: params.w_min for name in "ABCDEF"}
    return RunSpec("DSE", 0, SCALE, uniform_delay_specs(waits),
                   params).execute()


def expected_result_tuples() -> int:
    """Result size every submission must report."""
    return reference_run().result_tuples


@dataclass
class Window:
    """One service lifetime: warm-up, measured window, drain."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: start() to the end of stop(), warm-up and drain included.
    lifetime_s: float = 0.0
    #: host-speed samples taken on the service loop during the window.
    speeds: List[float] = field(default_factory=list)
    #: per completion in the window: (tenant, client-side latency s,
    #: admission wait s, latency the service itself reports s).
    samples: List[Tuple[str, float, float, float]] = field(
        default_factory=list)
    submitted: int = 0
    #: submissions that did not end ``done`` with the expected result.
    bad: List[str] = field(default_factory=list)
    service: Any = None
    #: tracer aggregates frozen at the window's end (traced run only).
    frozen: Any = None


async def _drive(seed: int, warmup_s: float, seconds: float,
                 expected_tuples: int, tracer: Any = None) -> Window:
    from repro.service import SubmissionRequest
    from trace_targets import CLIENT

    window = Window()
    service = window.service = build_service(seed)
    born = time.perf_counter()
    await service.start()
    indices = itertools.count()
    bounds: Dict[str, float] = {}
    stopping = False

    async def client() -> None:
        while not stopping:
            if tracer is not None:
                tracer.enter(CLIENT.name, None)
            index = next(indices)
            tenant = TENANTS[index % len(TENANTS)][0]
            request = SubmissionRequest(
                tenant=tenant, strategy=STRATEGIES[index % len(STRATEGIES)],
                scale=SCALE, seed=seed + index, wait_us=0.0, jitter=1.0)
            sent = time.perf_counter()
            record = service.submit(request)
            window.submitted += 1
            if tracer is not None:
                tracer.exit()
            await record.done.wait()
            done = time.perf_counter()
            # Judge the record now and let it go: holding thousands of
            # finished records (each pins its QueryRun) would make the
            # harness, not the service, the memory and GC load.
            if record.state != "done" or record.outcome is None or \
                    record.outcome["result_tuples"] != expected_tuples:
                window.bad.append(f"{record.id} {record.state} "
                                  f"{record.error or record.outcome}")
            if "start" in bounds and "end" not in bounds:
                window.samples.append((
                    tenant, done - sent, record.admission_wait,
                    record.latency(record.finished_at or 0.0)))

    async def calibrate() -> None:
        # ~2 ms of spin every 50 ms on the loop under test: the speed the
        # host gives *this* thread, sampled all through the window.
        while not stopping:
            await asyncio.sleep(0.05)
            sample = hostclock.speed(blocks=60)
            if "start" in bounds and "end" not in bounds:
                window.speeds.append(sample)

    async def timer() -> None:
        nonlocal stopping
        await asyncio.sleep(warmup_s)
        if tracer is not None:
            tracer.reset_aggregates()
        cpu0 = time.process_time()
        bounds["start"] = time.perf_counter()
        await asyncio.sleep(seconds)
        bounds["end"] = time.perf_counter()
        window.cpu_s = time.process_time() - cpu0
        window.wall_s = bounds["end"] - bounds["start"]
        if tracer is not None:
            window.frozen = tracer.frozen()
        stopping = True

    await asyncio.gather(timer(), calibrate(),
                         *(client() for _ in range(CLIENTS)))
    await service.stop()
    window.lifetime_s = time.perf_counter() - born
    return window


def _check(window: Window) -> Tuple[int, List[str]]:
    """Every submission reached exactly one terminal state, correctly,
    and the service's counters agree with what the clients saw."""
    service = window.service
    problems = []
    failed = len(window.bad)
    if failed:
        problems.append(
            f"service_saturated: {failed} submissions did not end 'done' "
            f"with the expected result size (first: {window.bad[0]})")
    if window.submitted != service.submitted:
        problems.append(
            f"service_saturated: harness submitted {window.submitted} "
            f"but the service counted {service.submitted}")
    if service.submitted != (service.completed + service.failed
                             + service.rejected):
        problems.append(
            f"service_saturated: counters do not reconcile after drain: "
            f"submitted {service.submitted} != completed "
            f"{service.completed} + failed {service.failed} + rejected "
            f"{service.rejected}")
    if service.active != 0:
        problems.append(
            f"service_saturated: {service.active} still active after stop")
    return failed, problems


def _warmup(seconds: float) -> float:
    return min(WARMUP_S, seconds / 5.0)


def measure(seed: int, seconds: float) -> RunResult:
    window = asyncio.run(_drive(seed, _warmup(seconds), seconds,
                                expected_result_tuples()))
    failed, problems = _check(window)
    # Host-bound throughout, so every timing scales with host speed:
    # report them at the reference speed (hostclock.py).
    speed = hostclock.mean_speed(window.speeds)
    latencies = [sample[1] * 1e3 * speed for sample in window.samples]
    completed = len(window.samples)
    metrics = {
        "capacity_qps": completed / (window.wall_s * speed),
        "cpu_ms_per_query": window.cpu_s * speed / max(1, completed) * 1e3,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    return RunResult(metrics, window.submitted, failed, problems, info={
        "completed_in_window": completed,
        "window_s": round(window.wall_s, 3),
        "busy_fraction": round(window.cpu_s / window.wall_s, 4),
        "host_speed": round(speed, 3),
        "raw_capacity_qps": round(completed / window.wall_s, 2),
    })


def trace(seed: int, seconds: float, installation: Any) -> RunResult:
    """A short untraced window for the reference rate, then the traced
    window; each is its own service lifetime with its own warm-up."""
    expected = expected_result_tuples()
    warmup = _warmup(seconds)
    reference = asyncio.run(_drive(seed, warmup, seconds * 0.3, expected))
    installation.apply()
    window = asyncio.run(_drive(seed, warmup, seconds * 0.7, expected,
                                tracer=installation.tracer))
    failed, problems = _check(window)
    ref_failed, ref_problems = _check(reference)
    failed += ref_failed
    problems += ref_problems

    from trace_targets import CALL_COUNTS

    frozen = window.frozen
    metrics = per_layer_zeros()
    metrics.update(frozen.self_by_metric(installation.targets))
    counts = frozen.counts(CALL_COUNTS)
    # The kernel's event counter is read when ``run`` ends, so it covers
    # the whole service lifetime, not only the window.
    counts["exec.sim_events"] = installation.tracer.counters.get(
        "exec.sim_events", 0)
    metrics.update({name: float(value) for name, value in counts.items()})
    service = window.service
    samples = window.samples
    completed = len(samples)
    latencies = [sample[1] * 1e3 for sample in samples]
    queued = [sample[2] for sample in samples if sample[2] > 0]
    submit = "repro.service.service:QueryService.submit"
    loop_other_s = max(0.0, window.cpu_s - frozen.root_busy())
    reference_qps = (len(reference.samples) / reference.wall_s
                     / hostclock.mean_speed(reference.speeds))
    traced_qps = (completed / window.wall_s
                  / hostclock.mean_speed(window.speeds))

    def tenant_p50(tenant: str) -> float:
        return percentile([sample[1] * 1e3 for sample in samples
                           if sample[0] == tenant], 0.50)

    metrics.update({
        "exec.sim_events_per_s":
            counts["exec.sim_events"] / window.lifetime_s,
        "exec.aio_idle_fraction":
            max(0.0, 1.0 - reference.cpu_s / reference.wall_s),
        "exec.aio_loop_other_s": loop_other_s,
        "core.dqp_batches_per_s": counts["core.dqp_batches"] / window.wall_s,
        "resources.admission_queued": float(len(queued)),
        "resources.admission_wait_p50_ms": median(queued) * 1e3,
        "service.submit_busy_us":
            (frozen.busy(submit) / max(1, frozen.calls.get(submit, 0))
             * 1e6),
        "service.submitted": float(service.submitted),
        "service.completed": float(service.completed),
        "service.failed": float(service.failed),
        "service.rejected": float(service.rejected),
        "service.latency_p99_ms": percentile(latencies, 0.99),
        "service.tenant_gold_p50_ms": tenant_p50("gold"),
        "service.tenant_bronze_p50_ms": tenant_p50("bronze"),
        "service.latency_negative_count":
            float(sum(1 for sample in samples if sample[3] < 0)),
        "gen.sample_count": float(completed),
        "gen.cpu_fraction": metrics["gen.client_busy_s"] / window.wall_s,
        "gen.host_speed": hostclock.mean_speed(window.speeds),
        "trace.overhead_ratio": reference_qps / traced_qps,
        "trace.untiled_fraction": loop_other_s / window.wall_s,
    })
    attempted = window.submitted + reference.submitted
    return RunResult(metrics, attempted, failed, problems, info={
        "reference_qps": reference_qps, "traced_qps": traced_qps,
        "traced_window_s": window.wall_s,
    })
