"""``repro live``: strategies on the wall-clock backend — the modelled
jittered sources, in real seconds — with an optional observability
plane (``--serve``) and flight-recorder watchdog (``--flight-dump``)."""

from __future__ import annotations

import argparse
import asyncio
import math
from pathlib import Path

from repro.cli import options
from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.core.strategies import make_policy
from repro.exec.live import LiveQueryEngine
from repro.experiments.workloads import figure5_workload
from repro.wrappers.delays import JitteredDelay


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.02,
                        help="workload scale factor (default 0.02 — live "
                             "runs are wall-clock, keep them small)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--strategy", action="append", dest="strategies",
                        default=None, metavar="NAME",
                        help="strategy to run, repeatable "
                             "(default: SEQ and DSE)")
    options.slow(parser, default=None, note="; default A:10")
    parser.add_argument("--wait-us", type=float, default=200.0,
                        help="mean per-tuple wait of a normal source in µs "
                             "(default 200)")
    parser.add_argument("--jitter", type=float, default=1.0,
                        help="delay jitter in [0, 1]: each message waits "
                             "count * w with w uniform in "
                             "[(1-jitter)*mean, (1+jitter)*mean] "
                             "(default 1)")
    parser.add_argument("--timeline", action="store_true",
                        help="print the per-fragment schedule of each run")
    parser.add_argument("--assert-dse-not-slower", action="store_true",
                        help="exit non-zero unless DSE's response time is "
                             "<= SEQ's (CI smoke check; requires both "
                             "strategies to run)")
    parser.add_argument("--serve", type=int, metavar="PORT", default=None,
                        help="serve /metrics, /healthz and /stream on this "
                             "port while each run is in flight (0 = "
                             "ephemeral; the bound address is printed)")
    parser.add_argument("--sample-interval", type=float, default=0.1,
                        help="wall-clock telemetry sampling interval in "
                             "seconds; live snapshots are published on "
                             "each tick (default 0.1, 0 disables)")
    parser.add_argument("--flight-dump", metavar="PATH", default=None,
                        help="arm the flight recorder; a crashed, stalled "
                             "or overrunning run dumps its last moments to "
                             "PATH")
    parser.add_argument("--stall-after", type=float, metavar="S",
                        default=None,
                        help="abort + dump when no batch completes for S "
                             "wall seconds (needs --flight-dump)")
    parser.add_argument("--deadline", type=float, metavar="S", default=None,
                        help="abort + dump when one run exceeds S wall "
                             "seconds (needs --flight-dump)")
    parser.add_argument("--span-dump", metavar="PATH", default=None,
                        help="record each run's causal span tree on the "
                             "wall-clock backend and write the export to "
                             "PATH (the strategy name is suffixed when "
                             "several strategies run)")


def run(args: argparse.Namespace) -> int:
    # Checked before any run: each would fail (or do nothing) mid-run.
    if not 0.0 <= args.jitter <= 1.0:
        raise ConfigurationError(
            f"--jitter must be in [0, 1], got {args.jitter}")
    if not 0.0 <= args.wait_us < math.inf:
        raise ConfigurationError(
            f"--wait-us must be finite and >= 0, got {args.wait_us}")
    for flag, value in (("--stall-after", args.stall_after),
                        ("--deadline", args.deadline)):
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"{flag} must be positive and finite, got {value}")
    workload = figure5_workload(scale=args.scale)
    params = SimulationParameters().with_overrides(
        telemetry_enabled=True,
        telemetry_sample_interval=args.sample_interval)
    slow = options.parse_factors(
        args.slow if args.slow is not None else ["A:10"], "--slow",
        workload.relation_names)
    strategies = args.strategies if args.strategies else ["SEQ", "DSE"]
    policies = {strategy: make_policy(strategy) for strategy in strategies}
    if args.assert_dse_not_slower and not {"SEQ", "DSE"} <= {
            s.upper() for s in strategies}:
        raise ConfigurationError("--assert-dse-not-slower needs both SEQ "
                                 "and DSE in --strategy")
    base_wait = args.wait_us * 1e-6
    # Seeded per relation (the world's wrapper:<rel> streams, as `repro
    # run` draws them): every strategy faces the same delays.
    delays = {rel: JitteredDelay(base_wait * slow.get(rel, 1.0), args.jitter)
              for rel in workload.relation_names}

    slow_desc = ", ".join(f"{rel}x{factor:g}"
                          for rel, factor in sorted(slow.items())) or "none"
    print(f"live sources: scale={args.scale:g}, mean wait "
          f"{args.wait_us:g}µs/tuple, slow: {slow_desc}")
    results = {}
    for strategy in strategies:
        span_dump = args.span_dump
        if span_dump is not None and len(strategies) > 1:
            p = Path(span_dump)
            span_dump = p.with_name(
                f"{p.stem}-{strategy.lower()}{p.suffix or '.json'}")
        engine = LiveQueryEngine(
            workload.catalog, workload.qep, policies[strategy],
            delays, params=params, seed=args.seed,
            serve_port=args.serve, flight_dump=args.flight_dump,
            stall_after=args.stall_after, deadline=args.deadline,
            span_dump=span_dump,
            on_serve=lambda server: print(
                f"observability plane: {server.url}/metrics "
                f"| /healthz | /stream", flush=True))
        try:
            result = asyncio.run(engine.run())
        except SimulationError as exc:
            if engine.recorder is not None \
                    and "watchdog" in str(exc):
                print(f"FAIL: {exc}")
                return 1
            raise
        results[strategy.upper()] = result
        print(result.summary())
        stalls = ", ".join(f"{cause} {seconds:.3f}s" for cause, seconds
                           in result.stall_by_cause().items())
        print(f"  stalls: {stalls or 'none'}")
        if span_dump is not None:
            print(f"  spans: {span_dump}")
        if args.timeline:
            print(result.render_timeline())

    if "SEQ" in results and "DSE" in results:
        seq, dse = results["SEQ"], results["DSE"]
        if seq.response_time > 0:
            gain = 100.0 * (1 - dse.response_time / seq.response_time)
            print(f"DSE vs SEQ: {gain:+.1f}% "
                  f"({seq.response_time:.3f}s -> {dse.response_time:.3f}s)")
        if args.assert_dse_not_slower and (dse.response_time
                                           > seq.response_time):
            print("FAIL: DSE was slower than SEQ on the live backend")
            return 1
    return 0
