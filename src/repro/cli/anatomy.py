"""``repro anatomy``: side-by-side response-time anatomy of strategies."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.cli.runs import query_engine
from repro.config import SimulationParameters
from repro.experiments.analysis import comparison_report


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.common(parser)
    parser.add_argument("--strategies", nargs="+",
                        default=["SEQ", "MA", "DSE"])
    options.slow(parser)


def run(args: argparse.Namespace) -> int:
    params = SimulationParameters()
    results = {strategy: query_engine(args, strategy, params).run()
               for strategy in args.strategies}
    print(comparison_report(results,
                            title="Response-time anatomy (Figure 5 workload)"))
    return 0
