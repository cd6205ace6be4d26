"""``repro table1``: print the simulation parameters (Table 1)."""

from __future__ import annotations

import argparse

from repro.config import SimulationParameters
from repro.experiments.report import format_table


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """``table1`` takes no options."""


def run(args: argparse.Namespace) -> int:
    params = SimulationParameters()
    print(format_table(["Parameter", "Value"], params.table1_rows(),
                       title="Table 1: Simulation parameters"))
    return 0
