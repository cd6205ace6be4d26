#!/usr/bin/env python
"""Scenario: several users query the mediator at once (Section 6).

Four analysts fire the same integration query within a second of each
other.  The mediator's single CPU is shared; each query keeps its own
wrappers, queues and memory budget.  The script contrasts an all-SEQ
mediator with an all-DSE one, at a fast and at a slow network, showing
the throughput/response-time tradeoff the paper predicts for its future
work: DSE's materializations are extra total work — wasted when the CPU
is already saturated, decisive when slow sources leave it idle.
"""

from repro import SimulationParameters
from repro.experiments import (
    ThroughputPoint,
    figure5_workload,
    format_table,
    run_multiquery_experiment,
)


def main() -> None:
    workload = figure5_workload(scale=0.25)
    params = SimulationParameters()

    points = run_multiquery_experiment(
        workload,
        strategies=["SEQ", "DSE"],
        waits=[params.w_min, 5 * params.w_min],
        params=params,
        num_queries=4,
        inter_arrival=0.25,
        seed=11)

    print(format_table(
        ThroughputPoint.HEADERS, [p.row() for p in points],
        title="4 staggered queries on one mediator"))

    fast = {p.strategy: p for p in points if p.wait == params.w_min}
    slow = {p.strategy: p for p in points if p.wait != params.w_min}
    print("\nfast sources : DSE - SEQ mean response = "
          f"{fast['DSE'].mean_response - fast['SEQ'].mean_response:+.3f} s "
          "(materialization overhead on a saturated CPU)")
    print("slow sources : DSE - SEQ mean response = "
          f"{slow['DSE'].mean_response - slow['SEQ'].mean_response:+.3f} s "
          "(idle time reclaimed)")


if __name__ == "__main__":
    main()
