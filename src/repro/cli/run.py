"""``repro run``: one execution of one strategy, with optional slow
sources, estimation errors and timeline/trace exports."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.cli.runs import print_decisions, query_engine, slowed_sources
from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.core.strategies import lower_bound


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.common(parser)
    parser.add_argument("--strategy", default="DSE",
                        help="SEQ, MA, DSE, DSE-ND or DPHJ (default DSE)")
    options.slow(parser)
    parser.add_argument("--error", action="append", default=[],
                        metavar="JOIN:FACTOR",
                        help="inject a cardinality estimation error on a "
                             "join's actual output (repeatable), e.g. "
                             "--error J1:3")
    parser.add_argument("--reopt", action="store_true",
                        help="let the DQO swap misoriented pending joins")
    parser.add_argument("--trace", action="store_true",
                        help="print the scheduler's decision audit log")
    parser.add_argument("--timeline", action="store_true",
                        help="print the per-fragment schedule")
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="write a chrome://tracing timeline JSON")
    parser.add_argument("--spans-out", metavar="PATH",
                        help="record the causal span tree and write its "
                             "JSON export (plus a .trace.json chrome "
                             "sibling) to PATH; analyze it with `repro "
                             "explain --from`")


def run(args: argparse.Namespace) -> int:
    params = SimulationParameters().with_overrides(
        enable_reoptimization=args.reopt,
        telemetry_spans=bool(args.spans_out))
    errors = options.parse_factors(args.error, "--error")

    if args.strategy.upper() == "DPHJ":
        needs_dqp = [flag for flag, given in (
            ("--error", args.error), ("--reopt", args.reopt),
            ("--trace", args.trace), ("--timeline", args.timeline),
            ("--chrome-trace", args.chrome_trace),
            ("--spans-out", args.spans_out)) if given]
        if needs_dqp:
            raise ConfigurationError(
                f"{needs_dqp[0]} needs the DQP engine; DPHJ has no "
                "estimates to skew, re-optimizer, fragments, decisions or "
                "spans")
        from repro.core.symmetric import SymmetricHashJoinEngine
        workload, delays = slowed_sources(args, params)
        result = SymmetricHashJoinEngine(
            workload.catalog, workload.tree, delays, params=params,
            seed=args.seed).run()
        waits = {name: model.mean_wait() for name, model in delays.items()}
        print(result.summary())
        print(f"LWB: {lower_bound(workload.qep, waits, params):.3f}s")
        return 0

    engine = query_engine(args, args.strategy, params, errors)
    result = engine.run()
    print(result.summary())
    if result.reopt_opportunities:
        print("misestimates detected:", ", ".join(result.reopt_opportunities))
    if result.reopt_swaps:
        print("joins swapped:", ", ".join(result.reopt_swaps))
    print(f"LWB: {engine.lower_bound():.3f}s")
    if args.timeline:
        print()
        print(result.render_timeline())
    if args.chrome_trace:
        from repro.experiments.trace_export import write_chrome_trace
        print("chrome trace:", write_chrome_trace(args.chrome_trace, result))
    if args.spans_out and result.spans is not None:
        from repro.observability.spans import write_spans_json
        print("spans:", write_spans_json(result.spans, args.spans_out))
    if args.trace:
        print()
        print_decisions(result)
    return 0
