"""``repro fig6``: the one-slowed-relation sweep (Figures 6 and 7)."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.config import SimulationParameters
from repro.experiments.report import format_table, write_csv
from repro.experiments.slowdown import SlowdownPoint, run_slowdown_experiment
from repro.experiments.workloads import figure5_workload


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.sweep(parser)
    parser.add_argument("--relation", default="A",
                        help="relation to slow down (default A)")
    parser.add_argument("--retrieval-times", type=float, nargs="+",
                        default=[2.0, 4.0, 6.0, 8.0],
                        help="total retrieval times of the slowed "
                             "relation (s)")
    parser.add_argument("--csv", help="write the series to this CSV file")


def run(args: argparse.Namespace) -> int:
    workload = figure5_workload(scale=args.scale)
    params = SimulationParameters()
    points = run_slowdown_experiment(
        workload, args.relation, list(args.retrieval_times), params,
        repetitions=args.repetitions, base_seed=args.seed,
        runner=options.runner_from(args))
    rows = [p.row() for p in points]
    figure = "Figure 7" if args.relation == "F" else "Figure 6"
    print(format_table(SlowdownPoint.HEADERS, rows,
                       title=f"{figure}: slowing {args.relation}"))
    if args.csv:
        print("wrote", write_csv(args.csv, SlowdownPoint.HEADERS, rows))
    return 0
