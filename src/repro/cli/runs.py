"""The one seeded run of the Figure 5 plan that ``run``, ``metrics``,
``trace``, ``anatomy`` and ``explain`` build."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.cli.options import parse_factors
from repro.config import SimulationParameters
from repro.core.engine import QueryEngine
from repro.core.strategies import make_policy
from repro.experiments.workloads import figure5_workload
from repro.plan.builder import build_qep
from repro.wrappers.delays import UniformDelay


def slowed_sources(args: argparse.Namespace, params: SimulationParameters):
    """The Figure 5 workload at ``--scale``; each source waits
    ``UniformDelay(w_min x its --slow factor)``."""
    workload = figure5_workload(scale=args.scale)
    slow = parse_factors(args.slow, "--slow", workload.relation_names)
    return workload, {name: UniformDelay(params.w_min * slow.get(name, 1.0))
                      for name in workload.relation_names}


def query_engine(args: argparse.Namespace, strategy: str,
                 params: SimulationParameters,
                 errors: Optional[dict[str, float]] = None) -> QueryEngine:
    """One seeded run of ``strategy`` on :func:`slowed_sources`;
    ``errors`` scales joins' actual output (``run --error``)."""
    workload, delays = slowed_sources(args, params)
    qep = workload.qep
    if errors:
        qep = build_qep(workload.catalog, workload.tree,
                        actual_output_factors=errors)
    return QueryEngine(workload.catalog, qep, make_policy(strategy), delays,
                       params=params, seed=args.seed)


def run_with_telemetry(args: argparse.Namespace, sample_interval: float):
    """One telemetry-enabled execution shared by ``metrics`` and ``trace``."""
    params = SimulationParameters().with_overrides(
        telemetry_enabled=True,
        telemetry_sample_interval=sample_interval)
    return query_engine(args, args.strategy, params).run()


def print_decisions(result) -> None:
    """The run's decision audit log: its execution trace."""
    if result.decisions:
        print(f"decisions ({len(result.decisions)}):")
        for record in result.decisions:
            print(" ", record)
