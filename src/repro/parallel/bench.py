"""The canonical performance suite behind ``repro bench``.

Four cases, each reported as wall-clock seconds plus a rate:

* ``dqp_batch_loop`` — one DSE execution of the Figure 5 workload; the
  per-batch hot path (``SchedulingPlan.live()`` + batch sizing) dominates,
  so batches/second is the figure of merit;
* ``kernel_dispatch`` — raw event throughput of the virtual-time
  :class:`~repro.sim.engine.Simulator` on a timeout-chain workload;
* ``fig6_sweep_jobs1`` / ``fig6_sweep_jobsN`` — the same slowed-relation
  sweep run serially and sharded over ``N`` worker processes
  (``derived.parallel_speedup`` is the ratio);
* ``fig6_sweep_warm_cache`` — the sweep served entirely from a freshly
  populated run cache (``derived.warm_cache_fraction`` is warm/serial);
* ``service_loadtest`` — the always-on service under sustained open-loop
  arrival (:func:`repro.service.loadtest.run_loadtest`):
  ``derived.service_qps`` plus p50/p99 completion latency;
* ``service_loadtest_archive`` — the same service run with the durable
  telemetry archive enabled; ``derived.service_archive_qps_ratio``
  (archive-on / archive-off) measures the writer's hot-path cost;
* ``service_loadtest_workers`` — the same arrival stream executed on the
  sharded work-stealing worker-process pool (``repro serve --workers N``);
  ``derived.service_worker_speedup`` (multi-worker qps / single qps) is
  the execution-plane scaling figure, null on hosts with < 4 cores
  where worker processes just contend for the same CPUs.

:func:`run_bench_suite` returns a JSON-ready dict with a stable schema
(``schema_version`` guards consumers); :func:`write_bench_json` writes it
sorted and indented so the committed ``BENCH_PR3.json`` diffs cleanly.
"""

from __future__ import annotations

import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.config import SimulationParameters
from repro.observability.export import write_json_document
from repro.parallel.engine import SweepRunner, default_jobs

#: bump when the emitted JSON layout changes shape.
SCHEMA_VERSION = 1
SUITE = "repro-parallel-bench"

ProgressFn = Callable[[str], None]


def host_info() -> dict[str, Any]:
    """Where the numbers came from (absolute rates are host-relative)."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _dqp_case(scale: float, best_of: int) -> dict[str, Any]:
    """One DSE run; rate = scheduler batches per wall-clock second."""
    from repro.experiments.slowdown import slowdown_waits
    from repro.experiments.workloads import figure5_workload
    from repro.parallel.spec import RunSpec, uniform_delay_specs

    params = SimulationParameters()
    workload = figure5_workload(scale=scale)
    waits = slowdown_waits(workload, "A", 4.0 * scale, params)
    spec = RunSpec(strategy="DSE", seed=1, scale=scale,
                   delays=uniform_delay_specs(waits), params=params,
                   tuple_size=workload.tuple_size)
    best_wall, batches = float("inf"), 0
    for _ in range(best_of):
        wall, result = _timed(spec.execute)
        if wall < best_wall:
            best_wall, batches = wall, result.batches_processed
    return {"name": "dqp_batch_loop", "wall_s": best_wall,
            "batches": batches,
            "batches_per_sec": batches / best_wall if best_wall else 0.0}


def _kernel_case(best_of: int, processes: int = 20,
                 steps: int = 2000) -> dict[str, Any]:
    """Raw kernel dispatch: concurrent timeout chains, events/second."""
    from repro.sim.engine import Simulator

    def ticker(sim: Simulator, n: int):
        for _ in range(n):
            yield sim.timeout(1.0)

    def drive() -> tuple[float, int]:
        sim = Simulator()
        for _ in range(processes):
            sim.process(ticker(sim, steps))
        wall, _ = _timed(sim.run)
        return wall, sim.processed_events

    best_wall, events = float("inf"), 0
    for _ in range(best_of):
        wall, processed = drive()
        if wall < best_wall:
            best_wall, events = wall, processed
    return {"name": "kernel_dispatch", "wall_s": best_wall,
            "events": events,
            "events_per_sec": events / best_wall if best_wall else 0.0}


def _service_case(submissions: int, rate: float, seed: int,
                  archive_dir: "str | None" = None,
                  workers: int = 1) -> dict[str, Any]:
    """The always-on service under sustained arrival (wall-clock).

    With ``archive_dir`` the run also writes the durable telemetry
    archive — the same workload with and without it is the archive's
    hot-path overhead measurement (acceptance: qps regresses <= 5%).
    With ``workers > 1`` the submissions execute on the sharded
    worker-process pool instead of the in-process kernel.
    """
    import asyncio

    from repro.service.loadtest import run_loadtest

    report = asyncio.run(run_loadtest(submissions=submissions, rate=rate,
                                      seed=seed, archive_dir=archive_dir,
                                      workers=workers))
    name = ("service_loadtest_workers" if workers > 1
            else "service_loadtest_archive" if archive_dir is not None
            else "service_loadtest")
    case = {"name": name, "wall_s": report["wall_s"],
            "submissions": report["submitted"],
            "completed": report["completed"],
            "admission_queued": report["admission"]["queued"],
            "service_qps": report["service_qps"],
            "service_p50_latency_s": report["latency"]["p50_s"],
            "service_p99_latency_s": report["latency"]["p99_s"]}
    if workers > 1:
        case["workers"] = workers
        case["steals"] = report["steals"]
        case["worker_completed"] = [row["completed"]
                                    for row in report["workers"] or []]
    if report.get("archive") is not None:
        case["archive_records"] = report["archive"]["records_written"]
        case["archive_dropped"] = report["archive"]["dropped_total"]
    return case


def _sweep_specs(scale: float, retrieval_times: list[float],
                 repetitions: int, seed: int) -> list[Any]:
    from repro.experiments.runner import point_specs
    from repro.experiments.slowdown import STRATEGIES, slowdown_waits
    from repro.experiments.workloads import figure5_workload
    from repro.parallel.spec import uniform_delay_specs

    params = SimulationParameters()
    workload = figure5_workload(scale=scale)
    specs: list[Any] = []
    for retrieval_time in retrieval_times:
        waits = slowdown_waits(workload, "A", retrieval_time, params)
        specs.extend(point_specs(
            STRATEGIES, scale, workload.tuple_size,
            uniform_delay_specs(waits), params, repetitions, seed))
    return specs


def run_bench_suite(*, jobs: int = 0, scale: float = 0.2,
                    retrieval_times: Optional[list[float]] = None,
                    repetitions: int = 1, seed: int = 1, best_of: int = 3,
                    service_submissions: int = 300,
                    service_rate: float = 200.0,
                    service_workers: int = 2,
                    progress: Optional[ProgressFn] = None) -> dict[str, Any]:
    """Run every case and return the JSON-ready report dict."""
    say = progress if progress is not None else (lambda _msg: None)
    jobs = jobs if jobs > 0 else default_jobs()
    retrieval_times = (list(retrieval_times) if retrieval_times is not None
                       else [2.0, 5.0, 8.0])
    cases: list[dict[str, Any]] = []

    say("dqp_batch_loop")
    cases.append(_dqp_case(scale, best_of))
    say("kernel_dispatch")
    cases.append(_kernel_case(best_of))

    specs = _sweep_specs(scale, retrieval_times, repetitions, seed)

    say("fig6_sweep_jobs1")
    serial_wall, _ = _timed(lambda: SweepRunner(jobs=1).run(specs))
    cases.append({"name": "fig6_sweep_jobs1", "wall_s": serial_wall,
                  "runs": len(specs), "jobs": 1})

    say(f"fig6_sweep_jobs{jobs}")
    parallel_wall, _ = _timed(lambda: SweepRunner(jobs=jobs).run(specs))
    cases.append({"name": "fig6_sweep_jobsN", "wall_s": parallel_wall,
                  "runs": len(specs), "jobs": jobs})

    say("fig6_sweep_warm_cache")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        SweepRunner(jobs=1, cache_dir=tmp).run(specs)  # populate (cold)
        warm = SweepRunner(jobs=1, cache_dir=tmp)
        warm_wall, _ = _timed(lambda: warm.run(specs))
        cases.append({"name": "fig6_sweep_warm_cache", "wall_s": warm_wall,
                      "runs": len(specs),
                      "cache_hits": warm.stats.cache_hits})

    say("service_loadtest")
    service_case = _service_case(service_submissions, service_rate, seed)
    cases.append(service_case)

    say("service_loadtest_archive")
    with tempfile.TemporaryDirectory(prefix="repro-bench-archive-") as tmp:
        archive_case = _service_case(service_submissions, service_rate,
                                     seed, archive_dir=tmp)
    cases.append(archive_case)

    worker_case = None
    if service_workers > 1:
        say(f"service_loadtest_workers{service_workers}")
        worker_case = _service_case(service_submissions, service_rate,
                                    seed, workers=service_workers)
        cases.append(worker_case)

    host = host_info()
    report = {
        "suite": SUITE,
        "schema_version": SCHEMA_VERSION,
        "host": host,
        "config": {"jobs": jobs, "scale": scale,
                   "retrieval_times": retrieval_times,
                   "repetitions": repetitions, "seed": seed,
                   "best_of": best_of,
                   "service_submissions": service_submissions,
                   "service_rate": service_rate,
                   "service_workers": service_workers},
        "cases": cases,
        "derived": {
            # A single-core host cannot speed anything up by sharding;
            # null (not a ratio near 1) keeps trend comparisons from
            # flagging the hardware as a regression.
            "parallel_speedup": (
                None if host["cpu_count"] <= 1
                else serial_wall / parallel_wall if parallel_wall else 0.0),
            "warm_cache_fraction": (warm_wall / serial_wall
                                    if serial_wall else 0.0),
            "dqp_batches_per_sec": cases[0]["batches_per_sec"],
            "kernel_events_per_sec": cases[1]["events_per_sec"],
            "service_qps": service_case["service_qps"],
            "service_p50_latency_s": service_case["service_p50_latency_s"],
            "service_p99_latency_s": service_case["service_p99_latency_s"],
            # Archive-on vs archive-off throughput on the same host and
            # workload: ~1.0 when the writer stays off the hot path.
            "service_archive_qps_ratio": (
                archive_case["service_qps"] / service_case["service_qps"]
                if service_case["service_qps"] else None),
            # Multi-worker qps over single-kernel qps on the same arrival
            # schedule.  Worker processes need real cores to help; below
            # 4 they mostly contend with the coordinator and each other,
            # so (like parallel_speedup on 1 core) the figure is null
            # rather than a misleading ratio near or below 1.
            "service_worker_speedup": (
                worker_case["service_qps"] / service_case["service_qps"]
                if worker_case is not None and host["cpu_count"] >= 4
                and service_case["service_qps"] else None),
        },
    }
    say("done")
    return report


def write_bench_json(report: dict[str, Any],
                     path: "str | os.PathLike[str]") -> Path:
    """Write the report deterministically (sorted keys, indent 2)."""
    return write_json_document(report, path)
