"""``repro fig8``: the uniform-slowdown gain sweep (Figure 8)."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.config import SimulationParameters
from repro.experiments.report import format_table, write_csv
from repro.experiments.uniform_slowdown import (
    GainPoint,
    run_uniform_slowdown_experiment,
)
from repro.experiments.workloads import figure5_workload


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.sweep(parser)
    parser.add_argument("--waits-us", type=float, nargs="+",
                        default=[5, 10, 15, 20, 35, 50, 80, 120],
                        help="per-tuple waits in µs")
    parser.add_argument("--csv", help="write the series to this CSV file")


def run(args: argparse.Namespace) -> int:
    workload = figure5_workload(scale=args.scale)
    params = SimulationParameters()
    points = run_uniform_slowdown_experiment(
        workload, [w * 1e-6 for w in args.waits_us], params,
        repetitions=args.repetitions, base_seed=args.seed,
        runner=options.runner_from(args))
    rows = [p.row() for p in points]
    print(format_table(GainPoint.HEADERS, rows,
                       title="Figure 8: DSE gain vs w_min"))
    if args.csv:
        print("wrote", write_csv(args.csv, GainPoint.HEADERS, rows))
    return 0
