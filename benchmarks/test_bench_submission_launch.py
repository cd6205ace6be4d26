"""Host cost of one service submission — construction + planning.

A 9-batch submission is mostly what it *builds* (six wrappers, a
``QueryRuntime``, six fragments, DQS/DQP/DQO) and what it *plans* (DSE 6,
MA 18 or SEQ 6 phases, 9 over the bench's rotation), not what it
processes.  N submissions go through one
``ExecutionPlane`` whose kernel is a ``Simulator`` (no wall-clock waits,
so host time per submission is the whole measurement), once with sources
that model no delay and once with the service's default 200 µs profile:

* the zero-wait sources cannot draw (``DelayModel.draws``), so not one
  ``numpy.random.default_rng`` is seeded for them — it used to be six a
  submission, each ≈ 40 µs in situ, multiplied by a zero wait;
* the 200 µs sources draw, and get exactly the six generators (same seed
  lists, so the same streams) they always got;
* µs of host time per submission is printed for both, with a loose
  ceiling so a construction-path regression shows up in CI.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import run_measured

from repro.config import SimulationParameters
from repro.core.engine import main_value, spawn_main
from repro.service import SubmissionRequest
from repro.service.backend import ExecutionPlane
from repro.sim import Simulator

SUBMISSIONS = 200
STRATEGIES = ("DSE", "DSE", "MA", "SEQ")
SCALE = 0.0005
#: loose ceiling on host µs per submission (≈ 1,100 zero-wait and
#: ≈ 1,400 at 200 µs on the reference container; ≈ 1,600 / 1,950 before
#: ISSUE 24).
MAX_US_PER_SUBMISSION = 12_000.0


def _session(monkeypatch, wait_us: float) -> tuple[float, int]:
    """Host µs per submission and ``default_rng`` calls per submission."""
    # bench/service_workloads.py's fast machine.
    params = SimulationParameters(
        cpu_mips=10_000.0, disk_latency=17e-5, disk_seek_time=5e-5,
        disk_transfer_rate=600_000_000.0, telemetry_enabled=True)
    plane = ExecutionPlane(params, 1, 16 * params.query_memory_bytes,
                           "priority", name="bench", kernel=Simulator())
    seeded = []
    default_rng = np.random.default_rng

    def counting_default_rng(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    def run(count: int, first: int) -> None:
        mains = []
        for sequence in range(first, first + count):
            request = SubmissionRequest(
                strategy=STRATEGIES[sequence % len(STRATEGIES)], scale=SCALE,
                seed=sequence, wait_us=wait_us, jitter=1.0)
            mains.append(spawn_main(plane.kernel, plane.execute(
                f"s-{sequence}", request, sequence,
                request.resolved_budgets(params), float(sequence % 3),
                lambda run, waited: None), f"query:{sequence}"))
        plane.kernel.run()
        assert [main_value(main)["result_tuples"] for main in mains] \
            == [25] * count

    run(32, 1)  # warm: imports, the plan's first compile, metric creation
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    started = time.perf_counter()
    run(SUBMISSIONS, 1000)
    elapsed = time.perf_counter() - started
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    assert len(seeded) % SUBMISSIONS == 0
    return elapsed / SUBMISSIONS * 1e6, len(seeded) // SUBMISSIONS


@pytest.mark.parametrize("wait_us,generators", [(0.0, 0), (200.0, 6)])
def test_submission_launch_cost(benchmark, monkeypatch, wait_us, generators):
    micros, seeded = run_measured(
        benchmark, lambda: _session(monkeypatch, wait_us))
    print(f"\nsubmission launch, wait_us={wait_us:g}: {micros:9,.0f} us of "
          f"host time per submission, {seeded} default_rng per submission")
    assert seeded == generators, (
        f"wait_us={wait_us:g}: {seeded} generators seeded per submission, "
        f"expected {generators}")
    assert micros < MAX_US_PER_SUBMISSION, (
        f"submission construction + planning collapsed: {micros:,.0f} us")
