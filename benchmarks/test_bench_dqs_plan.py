"""Host cost of one planning phase — the shipped planner vs the full one.

A planning phase is the DQS's ``plan()`` plus the DQO's estimate check
that follows every execution phase.  The shipped planner keeps what only
an event changes (the C-schedulable set, the chains the DSE may degrade,
the open MFs, the wait snapshot, a fragment's priority key, the fresh
build observations) and compiles a chain's MF and CF once per plan; the
full planner (``tests/reference_planner.py``) re-derives all of it every
phase.  Both run the Figure 5 plan at the service's scale on its fast
machine, through one ``ExecutionPlane`` on a ``Simulator``, alternating
round by round on the same host:

* host µs per planning phase is printed for DSE, MA and SEQ, each side
  taking its best round (the one least disturbed by the rest of the
  host);
* the assertion is a ratio, never an absolute time: over one submission
  of each strategy (6 + 18 + 6 phases), the shipped planner spends at
  most 0.65 of what the full one does.  It reads 0.58-0.61 on a 2-vCPU
  host (DSE ≈ 0.5, MA ≈ 0.6, SEQ ≈ 0.8): what is left of an MA phase is
  mostly model work both planners do — temps, decision records, hash
  tables — so 0.6 is the measured level, not a bound that holds on a
  noisy host.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest
from conftest import run_measured

from repro.config import SimulationParameters
from repro.core.dqo import DynamicQEPOptimizer
from repro.core.dqs import DynamicQueryScheduler
from repro.core.engine import main_value, spawn_main
from repro.service import SubmissionRequest
from repro.service.backend import ExecutionPlane
from repro.sim import Simulator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.reference_planner import install  # noqa: E402

STRATEGIES = ("DSE", "MA", "SEQ")
SCALE = 0.0005
SUBMISSIONS = 60
ROUNDS = 7
MAX_RATIO = 0.65


def _session(strategy: str) -> tuple[float, int]:
    """Host seconds spent planning ``SUBMISSIONS`` submissions, and the
    planning phases they took."""
    # bench/service_workloads.py's fast machine.
    params = SimulationParameters(
        cpu_mips=10_000.0, disk_latency=17e-5, disk_seek_time=5e-5,
        disk_transfer_rate=600_000_000.0, telemetry_enabled=True)
    plane = ExecutionPlane(params, 1, 16 * params.query_memory_bytes,
                           "priority", name="bench", kernel=Simulator())
    spent, phases = [0.0], [0]
    plan = DynamicQueryScheduler.plan
    check = DynamicQEPOptimizer._check_estimates

    def timed_plan(scheduler):
        started = time.perf_counter()
        sp = plan(scheduler)
        spent[0] += time.perf_counter() - started
        phases[0] += 1
        return sp

    def timed_check(optimizer):
        started = time.perf_counter()
        check(optimizer)
        spent[0] += time.perf_counter() - started

    mains = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(DynamicQueryScheduler, "plan", timed_plan)
        monkeypatch.setattr(DynamicQEPOptimizer, "_check_estimates",
                            timed_check)
        for sequence in range(1000, 1000 + SUBMISSIONS):
            request = SubmissionRequest(strategy=strategy, scale=SCALE,
                                        seed=sequence, wait_us=0.0,
                                        jitter=1.0)
            mains.append(spawn_main(plane.kernel, plane.execute(
                f"s-{sequence}", request, sequence,
                request.resolved_budgets(params), float(sequence % 3),
                lambda run, waited: None), f"query:{sequence}"))
        plane.kernel.run()
    assert [main_value(main)["result_tuples"] for main in mains] \
        == [25] * SUBMISSIONS
    return spent[0], phases[0]


def _measure() -> dict[str, dict[str, float]]:
    """Best µs per phase of each side, and phases per submission."""
    for strategy in STRATEGIES:
        _session(strategy)  # warm: imports, the plan's compiles
    best = {strategy: {"shipped": float("inf"), "reference": float("inf")}
            for strategy in STRATEGIES}
    for round_ in range(ROUNDS):
        for strategy in STRATEGIES:
            sides = ("shipped", "reference")
            for side in (sides if round_ % 2 else sides[::-1]):
                with pytest.MonkeyPatch.context() as monkeypatch:
                    if side == "reference":
                        install(monkeypatch)
                    seconds, phases = _session(strategy)
                best[strategy][side] = min(best[strategy][side],
                                           seconds / phases * 1e6)
                best[strategy]["phases"] = phases / SUBMISSIONS
    return best


def test_planning_phase_cost(benchmark):
    best = run_measured(benchmark, _measure)
    totals = {"shipped": 0.0, "reference": 0.0}
    print()
    for strategy, row in best.items():
        print(f"planning phase, {strategy} ({row['phases']:g} a submission):"
              f" shipped {row['shipped']:6.1f} us, reference "
              f"{row['reference']:6.1f} us "
              f"({row['shipped'] / row['reference']:.2f}x)")
        for side in totals:
            totals[side] += row[side] * row["phases"]
    ratio = totals["shipped"] / totals["reference"]
    print(f"one DSE + MA + SEQ submission: shipped {totals['shipped']:,.0f} "
          f"us, reference {totals['reference']:,.0f} us of planning "
          f"({ratio:.2f}x)")
    assert [best[strategy]["phases"] for strategy in STRATEGIES] \
        == [6, 18, 6], "the plan count a submission is the paper's design"
    assert ratio <= MAX_RATIO, (
        f"planning costs {ratio:.2f}x the full planner's "
        f"(at most {MAX_RATIO})")
