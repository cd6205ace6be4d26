"""Direct timings of set-up and of two layers no workload isolates.

Run as a script (``python3 probes.py WORKLOAD SEED QUICK``) this is the
cold start of an in-process workload: a fresh interpreter imports the
program and builds everything the workload needs up to the point where
the first query could run.  ``cold_setup_s`` times that from outside,
so work a later change moves into import, plan construction or service
start shows up as set-up time.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import hostclock
from declared import median

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def cold_setup_s(workload: str, seed: int, quick: bool, repeats: int
                 ) -> float:
    """Median wall of ``repeats`` cold starts of ``workload``, at the
    reference host speed (import and plan building are CPU-bound)."""
    command = [sys.executable, str(BENCH / "probes.py"), workload,
               str(seed), str(int(quick))]
    timer = hostclock.SectionTimer()
    samples = []
    for _ in range(repeats):
        _done, wall, _cpu, factor = timer.run(lambda: subprocess.run(
            command, check=True, timeout=120, stdout=subprocess.DEVNULL))
        samples.append(wall * factor)
    return median(samples)


def figure5_build_ms(repeats: int = 5) -> float:
    """Median time to build the Figure 5 catalog + QEP, over the three
    scales the workloads use."""
    from repro.experiments.workloads import figure5_workload

    samples = []
    for _ in range(repeats):
        for scale in (0.0005, 0.5, 1.0):
            started = time.perf_counter()
            figure5_workload(scale=scale)
            samples.append((time.perf_counter() - started) * 1e3)
    return median(samples)


def payload_roundtrip_us(repeats: int = 20) -> float:
    """Median ``result_to_payload`` -> JSON -> ``result_from_payload`` of
    one small service-sized result: what each submission pays to cross a
    worker pipe."""
    from repro.parallel.results import result_from_payload, result_to_payload
    from service_workloads import reference_run

    result = reference_run()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        result_from_payload(json.loads(json.dumps(result_to_payload(result))))
        samples.append((time.perf_counter() - started) * 1e6)
    return median(samples)


def _cold_start(workload: str, seed: int, quick: bool) -> None:
    sys.path.insert(0, str(SRC))
    if workload == "service_saturated":
        import asyncio

        from service_workloads import build_service

        async def start_stop() -> None:
            service = build_service(seed)
            await service.start()
            await service.stop()

        asyncio.run(start_stop())
        return
    import sim_workloads

    built = sim_workloads.build(workload, seed, quick)
    # What the first execute() needs beyond the specs: the engine stack
    # imported and one plan built.
    import repro.core.engine  # noqa: F401
    import repro.core.multiquery  # noqa: F401
    from repro.experiments.workloads import figure5_workload

    figure5_workload(scale=built.specs[0].scale)


if __name__ == "__main__":
    _cold_start(sys.argv[1], int(sys.argv[2]), bool(int(sys.argv[3])))
