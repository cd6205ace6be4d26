"""Options several commands share, and the parsers of their values."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Optional, Sequence

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.parallel.engine import SweepRunner


def scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = paper size)")


def common(parser: argparse.ArgumentParser) -> None:
    scale(parser)
    parser.add_argument("--seed", type=int, default=1)


def sweep(parser: argparse.ArgumentParser) -> None:
    """The options of a paper figure: seeded repetitions averaged per
    point (Section 5.1.3 uses 3), sharded and cached."""
    common(parser)
    parser.add_argument("--repetitions", type=int, default=1,
                        help="seeded runs averaged per point (default 1)")
    parallel(parser)


def slow(parser: argparse.ArgumentParser, default: Optional[list] = [],
         note: str = "") -> None:
    # The shared list is never mutated: argparse's "append" copies it.
    parser.add_argument("--slow", action="append", default=default,
                        metavar="REL:FACTOR",
                        help="multiply one source's per-tuple wait by "
                             f"FACTOR (repeatable{note}), e.g. --slow F:10")


def parallel(parser: argparse.ArgumentParser) -> None:
    """Sharding/caching options shared by every sweep subcommand."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent runs "
                             "(default 1 = serial, 0 = one per core)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed run cache directory; "
                             "repeated runs are served from disk")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass --cache-dir (recompute everything)")


def runner_from(args: argparse.Namespace) -> "SweepRunner":
    from repro.parallel.engine import SweepRunner
    return SweepRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                       use_cache=not args.no_cache)


def parse_factors(specs: Optional[Sequence[str]], flag: str,
                  names: Optional[Sequence[str]] = None
                  ) -> dict[str, float]:
    """``NAME:FACTOR`` specs (``--slow``, ``--error``) as a dict; with
    ``names``, every NAME must be one of them."""
    factors = {}
    for spec in specs or ():
        try:
            name, factor = spec.split(":")
            factors[name] = float(factor)
        except ValueError:
            raise ConfigurationError(
                f"bad {flag} spec {spec!r}; expected NAME:FACTOR") from None
    unknown = set(factors) - set(names) if names is not None else set()
    if unknown:
        raise ConfigurationError(
            f"unknown relation(s) in {flag}: {sorted(unknown)}")
    return factors


def at_least(flag: str, value: int, floor: int) -> None:
    if value < floor:
        raise ConfigurationError(f"{flag} must be >= {floor}, got {value}")
