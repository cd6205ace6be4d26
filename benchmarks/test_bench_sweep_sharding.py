"""Sweep sharding — ``SweepRunner(jobs=4)`` against a serial sweep.

A reproduction sweep is independent seeded runs, so sharding them over
worker processes should divide its wall clock by the cores it gets.  The
sweep is the Figure 6 one (A slowed; retrieval times 2/4/6/8 s; SEQ, MA
and DSE; 2 repetitions; 30 % scale): 24 runs, about 1 s serial.

* the sharded results must equal the serial ones, run for run;
* the serial / sharded wall-clock ratio is always printed;
* on a host with at least 4 cores it must be at least 1.5×.  On fewer
  cores four workers share what there is, and the ratio says little
  about the runner.
"""

from __future__ import annotations

import os
import time

from conftest import run_measured

from repro.config import SimulationParameters
from repro.experiments.runner import point_specs
from repro.experiments.slowdown import STRATEGIES, slowdown_waits
from repro.experiments.workloads import figure5_workload
from repro.parallel import SweepRunner, uniform_delay_specs

SCALE = 0.3
RETRIEVAL_TIMES = (2.0, 4.0, 6.0, 8.0)
REPETITIONS = 2
SEED = 1
JOBS = 4
#: the speedup a 4-core host must show, and the cores it needs.
MIN_SPEEDUP = 1.5
MIN_CORES = 4


def _sweep_specs() -> list:
    params = SimulationParameters()
    workload = figure5_workload(scale=SCALE)
    specs = []
    for retrieval_time in RETRIEVAL_TIMES:
        waits = slowdown_waits(workload, "A", retrieval_time, params)
        specs.extend(point_specs(
            STRATEGIES, SCALE, workload.tuple_size,
            uniform_delay_specs(waits), params, REPETITIONS, SEED))
    return specs


def _timed_sweep(jobs: int, specs: list) -> tuple[float, list]:
    start = time.perf_counter()
    results = SweepRunner(jobs=jobs).run(specs)
    return time.perf_counter() - start, results


def test_sweep_sharding_speedup(benchmark):
    specs = _sweep_specs()

    def measure():
        serial, serial_results = _timed_sweep(1, specs)
        sharded, sharded_results = _timed_sweep(JOBS, specs)
        return serial, sharded, serial_results, sharded_results

    serial, sharded, serial_results, sharded_results = run_measured(
        benchmark, measure)
    cores = os.cpu_count() or 1
    speedup = serial / sharded
    print(f"\nsweep sharding: {len(specs)} runs, serial {serial:.2f} s, "
          f"jobs={JOBS} {sharded:.2f} s = {speedup:.2f}x on {cores} cores")
    assert [r.response_time for r in sharded_results] == \
        [r.response_time for r in serial_results]
    if cores >= MIN_CORES:
        assert speedup >= MIN_SPEEDUP, (
            f"jobs={JOBS} sweep only {speedup:.2f}x faster than serial "
            f"on {cores} cores")
