#!/usr/bin/env python
"""Scenario: the optimizer's estimates are wrong (Section 3.1 / [9]).

Autonomous sources make selectivity statistics unreliable: here the
mediator's optimizer believed A ⋈ B would produce 50 K tuples while the
sources really produce 150 K.  The runtime-statistics module observes
the true size the moment the blocking edge completes; the DQO then swaps
the build/probe sides of the still-pending joins whose orientation the
error invalidated — putting the genuinely smaller inputs in memory.
"""

from repro import (
    QueryEngine,
    SimulationParameters,
    UniformDelay,
    build_qep,
    make_policy,
)
from repro.experiments import figure5_workload, format_table


def main() -> None:
    workload = figure5_workload(scale=0.5)
    qep = build_qep(workload.catalog, workload.tree,
                    actual_output_factors={"J1": 3.0})

    print("Injected error: J1 = A ⋈ B actually produces 3x the estimate.\n")
    # Note the interaction with scheduling aggressiveness: SEQ leaves
    # downstream chains untouched for a long time, so the DQO finds open
    # swap windows; DSE touches (degrades) blocked chains early, which
    # closes them — its scheduling already absorbs what re-optimization
    # would have bought.
    rows = []
    for strategy in ("SEQ", "DSE"):
        for reopt in (False, True):
            params = SimulationParameters().with_overrides(
                enable_reoptimization=reopt)
            delays = {name: UniformDelay(params.w_min)
                      for name in workload.relation_names}
            engine = QueryEngine(workload.catalog, qep,
                                 make_policy(strategy), delays,
                                 params=params, seed=1)
            result = engine.run()
            rows.append([strategy, "on" if reopt else "off",
                         f"{result.response_time:.3f}",
                         f"{result.memory_peak_bytes / 1e6:.2f}",
                         ",".join(result.reopt_opportunities) or "-",
                         ",".join(result.reopt_swaps) or "-",
                         f"{result.result_tuples:,}"])
            if strategy == "SEQ" and reopt:
                print("DQO decisions (SEQ, re-optimization on):")
                for record in result.decisions:
                    if record.kind == "reopt-swap":
                        print(f"  {record}")
                print()

    print(format_table(
        ["strategy", "reopt", "response (s)", "peak mem (MB)", "detected",
         "swapped", "result tuples"],
        rows, title="A 3x misestimate on J1: detect vs act"))


if __name__ == "__main__":
    main()
