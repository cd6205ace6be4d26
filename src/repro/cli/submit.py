"""``repro submit``: POST one (or ``--count`` many) submissions to a
serving daemon; ``--wait`` polls until they finish."""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli import options
from repro.common.errors import ConfigurationError
from repro.common.units import parse_size
from repro.observability.top import open_connection, request_json


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--connect", default="127.0.0.1:9100",
                        metavar="URL", help="the daemon's address "
                                            "(default 127.0.0.1:9100)")
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--strategy", default="DSE")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wait-us", type=float, default=200.0,
                        help="mean per-tuple source wait in µs (default "
                             "200)")
    parser.add_argument("--jitter", type=float, default=1.0)
    options.slow(parser, default=None)
    parser.add_argument("--priority", type=float, default=None,
                        help="admission priority override "
                             "(default: the tenant's priority)")
    parser.add_argument("--memory", default=None, metavar="SIZE",
                        help="declared working set, e.g. 8M (default: the "
                             "engine's query_memory_bytes)")
    parser.add_argument("--count", type=int, default=1,
                        help="submissions to send (default 1; seeds "
                             "increment per submission)")
    parser.add_argument("--wait", action="store_true",
                        help="poll until every submission finished and "
                             "print the outcomes")


def run(args: argparse.Namespace) -> int:
    options.at_least("--count", args.count, 1)
    slow = options.parse_factors(args.slow, "--slow")
    base = {"tenant": args.tenant, "strategy": args.strategy,
            "scale": args.scale, "wait_us": args.wait_us,
            "jitter": args.jitter}
    if slow:
        base["slow"] = slow
    if args.priority is not None:
        base["priority"] = args.priority
    if args.memory is not None:
        base["memory_bytes"] = parse_size(args.memory, "--memory")

    conn = open_connection(args.connect)
    ids = []
    try:
        for index in range(args.count):
            status, data = request_json(
                conn, "POST", "/submit", dict(base, seed=args.seed + index))
            if status != 202:
                print(f"error: HTTP {status}: "
                      f"{data.get('error', 'submission refused')}",
                      file=sys.stderr)
                return 1
            ids.append(data["id"])
            print(f"{data['id']} {data['tenant']} {data['state']}")

        if not args.wait:
            return 0
        failed = 0
        for submission_id in ids:
            while True:
                status, record = request_json(
                    conn, "GET", f"/submissions/{submission_id}")
                if status != 200 or record["state"] in ("done", "failed"):
                    break
                time.sleep(0.2)
            if status != 200:
                print(f"error: {submission_id}: HTTP {status} "
                      f"(finished submissions age out of the daemon)",
                      file=sys.stderr)
                failed += 1
            elif record["state"] == "failed":
                failed += 1
                print(f"{submission_id} failed: {record.get('error')}")
            else:
                outcome = record.get("outcome") or {}
                print(f"{submission_id} done: "
                      f"{outcome.get('result_tuples', 0)} tuples in "
                      f"{record['latency_s']:.3f}s "
                      f"(admission wait {record['admission_wait']:.3f}s)")
        return 1 if failed else 0
    except (ConnectionError, OSError) as exc:
        raise ConfigurationError(
            f"cannot reach {conn.host}:{conn.port}: {exc} "
            f"(is `repro serve` running?)") from None
    finally:
        conn.close()
