"""``repro reproduce``: regenerate every table and figure into a
directory."""

from __future__ import annotations

import argparse

from repro.cli import options
from repro.experiments.reproduce import generate_all


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.sweep(parser)
    parser.add_argument("--outdir", default="results",
                        help="output directory (default ./results)")


def run(args: argparse.Namespace) -> int:
    out = generate_all(args.outdir, scale=args.scale,
                       repetitions=args.repetitions, seed=args.seed,
                       progress=lambda step: print(f"[{step}]", flush=True),
                       runner=options.runner_from(args))
    print(f"report and CSV series written to {out.resolve()}")
    return 0
