"""``repro plan``: print the Figure 5 QEP and its pipeline chains."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.experiments.workloads import figure5_workload


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.scale(parser)


def run(args: argparse.Namespace) -> int:
    workload = figure5_workload(scale=args.scale)
    print("Query:", workload.tree.render())
    print()
    print(workload.qep.describe())
    return 0
