"""``repro explain``: record one run's causal span tree and print the
attributed critical path (``--vs`` diffs two strategies, ``--from``
explains a saved span export)."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.cli.runs import query_engine
from repro.config import SimulationParameters
from repro.observability.explain import (
    explain_spans,
    format_explanation,
    format_explanation_diff,
)
from repro.observability.spans import load_spans, write_spans_json


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.common(parser)
    parser.add_argument("--strategy", default="DSE",
                        help="SEQ, MA, DSE or DSE-ND (default DSE)")
    parser.add_argument("--vs", metavar="STRATEGY", default=None,
                        help="also run this strategy on identical sources "
                             "and print the per-category span diff "
                             "(e.g. --strategy DSE --vs SEQ)")
    options.slow(parser)
    parser.add_argument("--segments", type=int, default=8,
                        help="longest critical-path segments to list "
                             "(default 8)")
    parser.add_argument("--spans-out", metavar="PATH",
                        help="also write the recorded span export (plus "
                             "its .trace.json chrome sibling) to PATH")
    parser.add_argument("--from", dest="from_path", metavar="PATH",
                        help="skip the run: explain a span export written "
                             "by --spans-out / `repro run --spans-out` / "
                             "`repro live --span-dump`")


def run(args: argparse.Namespace) -> int:
    options.at_least("--segments", args.segments, 0)
    if args.from_path:
        explanation = explain_spans(load_spans(args.from_path))
        print(format_explanation(explanation, top_segments=args.segments))
        return 0

    params = SimulationParameters().with_overrides(telemetry_spans=True)

    def run_one(strategy: str):
        # Both strategies face identical sources: the per-wrapper RNG
        # streams are seeded by the engine.
        result = query_engine(args, strategy, params).run()
        return result, explain_spans(result.spans,
                                     strategy=result.strategy)

    result, explanation = run_one(args.strategy)
    print(format_explanation(explanation, top_segments=args.segments))
    if args.spans_out and result.spans is not None:
        print()
        print("spans:", write_spans_json(result.spans, args.spans_out))
    if args.vs:
        _, other = run_one(args.vs)
        print()
        print(format_explanation(other, top_segments=args.segments))
        print()
        print(format_explanation_diff(explanation, other))
    return 0
