"""``repro multiquery``: the Section 6 throughput experiment, optionally
over mediator-wide memory pools (``--global-memory``) queued by an
admission policy."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.common.units import parse_size
from repro.config import SimulationParameters
from repro.core.strategies import make_policy
from repro.experiments.multiquery import (
    ThroughputPoint,
    run_multiquery_experiment,
)
from repro.experiments.report import format_table, write_csv
from repro.experiments.workloads import figure5_workload


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.common(parser)
    options.parallel(parser)
    parser.add_argument("--queries", type=int, default=4)
    parser.add_argument("--inter-arrival", type=float, default=0.0,
                        help="seconds between query arrivals")
    parser.add_argument("--strategies", nargs="+", default=["SEQ", "DSE"])
    parser.add_argument("--waits-us", type=float, nargs="+",
                        default=[20, 100])
    parser.add_argument("--global-memory", nargs="+", default=None,
                        metavar="SIZE",
                        help="mediator-wide memory pools to sweep, e.g. "
                             "--global-memory 128K 1M inf (suffixes K/M/G; "
                             "'inf' or 'none' = ungoverned). Governed "
                             "points queue queries through the admission "
                             "controller and re-plan on budget grows")
    parser.add_argument("--admission", default="fifo",
                        choices=["fifo", "priority", "none"],
                        help="admission policy for governed pools "
                             "(default fifo)")
    parser.add_argument("--query-memory", default=None, metavar="SIZE",
                        help="initial per-query budget (default: "
                             "the configured query_memory_bytes)")
    parser.add_argument("--min-memory", default=None, metavar="SIZE",
                        help="minimum working set a query must be granted "
                             "before it is admitted")
    parser.add_argument("--max-memory", default=None, metavar="SIZE",
                        help="largest budget a query's lease may grow to "
                             "when the broker offers reclaimed memory")
    parser.add_argument("--csv", help="write the series to this CSV file")


def run(args: argparse.Namespace) -> int:
    workload = figure5_workload(scale=args.scale)
    pools = ([parse_size(text, "--global-memory")
              for text in args.global_memory]
             if args.global_memory else None)
    governed = pools is not None and any(p is not None for p in pools)
    params = SimulationParameters().with_overrides(
        # Governed runs exercise the full resource-governance plane:
        # leases shrink on release, grow offers go out, and running
        # queries re-plan degraded chains when their budget grows.
        dynamic_budget_replanning=governed)
    for strategy in args.strategies:
        make_policy(strategy)  # validates the name before any run
    points = run_multiquery_experiment(
        workload, list(args.strategies),
        [w * 1e-6 for w in args.waits_us], params,
        num_queries=args.queries, inter_arrival=args.inter_arrival,
        seed=args.seed, runner=options.runner_from(args),
        global_memories=pools, admission=args.admission,
        memory_bytes=parse_size(args.query_memory, "--query-memory")
        if args.query_memory else None,
        min_memory_bytes=parse_size(args.min_memory, "--min-memory")
        if args.min_memory else None,
        max_memory_bytes=parse_size(args.max_memory, "--max-memory")
        if args.max_memory else None)
    rows = [p.row() for p in points]
    print(format_table(ThroughputPoint.HEADERS, rows,
                       title=f"{args.queries} concurrent queries"))
    if args.csv:
        print("wrote", write_csv(args.csv, ThroughputPoint.HEADERS, rows))
    return 0
