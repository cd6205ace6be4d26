#!/usr/bin/env python
"""Scenario: one overloaded remote source (the paper's motivating case).

A mediator integrates six sources; one of them (F, the largest) sits on
an overloaded server and delivers tuples ten times slower than the rest.
The classical iterator engine (SEQ) stalls on it; Materialize-All (MA)
hides the delay but pays full materialization I/O for *every* relation;
the paper's dynamic scheduling (DSE) materializes exactly the blocked
slow source, partially, and overlaps its delay with useful work.

The script compares all three against the analytic lower bound and shows
the DSE scheduler's decisions from the execution trace.
"""

from repro import (
    QueryEngine,
    SimulationParameters,
    UniformDelay,
    lower_bound,
    make_policy,
)
from repro.experiments import figure5_workload, format_table


def main() -> None:
    workload = figure5_workload()
    params = SimulationParameters()

    waits = {name: params.w_min for name in workload.relation_names}
    waits["F"] = 10 * params.w_min  # the overloaded source

    def delays():
        return {name: UniformDelay(wait) for name, wait in waits.items()}

    rows = []
    dse = None
    for strategy in ["SEQ", "MA", "DSE"]:
        engine = QueryEngine(workload.catalog, workload.qep,
                             make_policy(strategy), delays(),
                             params=params, seed=1)
        result = engine.run()
        if strategy == "DSE":
            dse = result
        rows.append([strategy, f"{result.response_time:.3f}",
                     f"{result.stall_time:.3f}",
                     f"{result.cpu_utilization:.0%}",
                     str(result.degradations),
                     f"{result.tuples_spilled:,}"])
    bound = lower_bound(workload.qep, waits, params)
    rows.append(["LWB", f"{bound:.3f}", "-", "-", "-", "-"])

    print(format_table(
        ["strategy", "response (s)", "stall (s)", "CPU", "degradations",
         "spilled tuples"],
        rows, title="Six sources, F ten times slower (2 ms -> 200 µs/tuple)"))

    print("\nDSE scheduler decisions (the execution trace):")
    for record in dse.decisions:
        print(f"  {record}")


if __name__ == "__main__":
    main()
