"""``repro watch``: tail a daemon's SSE snapshot stream as JSON lines."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.cli import options
from repro.observability.top import (
    stream_snapshots_reconnect,
    worker_transitions,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--connect", default="127.0.0.1:9100", metavar="URL",
                        help="the daemon's address (default "
                             "127.0.0.1:9100)")
    parser.add_argument("--frames", type=int, default=0,
                        help="stop after this many frames (0 = until the "
                             "stream ends)")


def run(args: argparse.Namespace) -> int:
    def _notice(delay: float, attempt: int) -> None:
        print(f"stream dropped; reconnecting in {delay:.1f}s "
              f"(attempt {attempt})", file=sys.stderr, flush=True)

    options.at_least("--frames", args.frames, 0)
    frames = 0
    previous: "dict[str, Any] | None" = None
    try:
        # fail_fast: a never-reachable endpoint is one crisp error (exit
        # 2), not a 20-second silent retry ladder.
        for snapshot in stream_snapshots_reconnect(args.connect,
                                                   on_reconnect=_notice,
                                                   fail_fast=True):
            if snapshot.get("kind") == "alert":
                # Alerts go to stderr so `watch | jq` pipelines over the
                # snapshot stream stay clean; the JSON line still has
                # everything (objective, window, burn rate, state).
                print(f"ALERT {json.dumps(snapshot, sort_keys=True)}",
                      file=sys.stderr, flush=True)
                continue
            # Worker up/down transitions ride stderr for the same
            # reason: the stdout stream stays pure snapshot JSON.
            for notice in worker_transitions(previous, snapshot):
                print(f"WORKER {notice}", file=sys.stderr, flush=True)
            previous = snapshot
            print(json.dumps(snapshot, sort_keys=True), flush=True)
            frames += 1
            if args.frames and frames >= args.frames:
                return 0
    except KeyboardInterrupt:
        pass
    return 0
