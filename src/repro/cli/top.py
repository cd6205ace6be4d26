"""``repro top``: terminal dashboard attached to a serving live run or a
``repro serve`` daemon, or ``--replay`` of a flight-recorder dump."""

from __future__ import annotations

import argparse

from repro.common.errors import ConfigurationError
from repro.observability.top import (
    render_top,
    replay_snapshot,
    run_top,
    stream_snapshots,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--connect", default="127.0.0.1:9100",
                        metavar="HOST:PORT",
                        help="the /stream endpoint of a serving live run "
                             "or `repro serve` daemon (default "
                             "127.0.0.1:9100; URLs are accepted)")
    parser.add_argument("--replay", metavar="DUMP", default=None,
                        help="render the final snapshot of a "
                             "flight-recorder dump instead of connecting")
    parser.add_argument("--once", action="store_true",
                        help="print one frame to stdout and exit (no "
                             "curses)")


def run(args: argparse.Namespace) -> int:
    if args.replay:
        snapshot = replay_snapshot(args.replay)
        if snapshot is None:
            raise ConfigurationError("the dump holds no live snapshot (the "
                                     "run had no sampler tick before it "
                                     "ended)")
        print("\n".join(render_top(snapshot)))
        return 0
    if args.once:
        # Alert frames can interleave with snapshots; --once wants
        # the first renderable snapshot, not an alert.
        snapshot = next(
            (frame for frame in stream_snapshots(args.connect)
             if frame.get("kind") != "alert"), None)
        print("\n".join(render_top(snapshot)))
        return 0
    return run_top(args.connect)
