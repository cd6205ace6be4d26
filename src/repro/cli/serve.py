"""``repro serve``: the always-on multi-tenant query service — one
shared wall-clock kernel accepting JSON submissions over HTTP, with
per-tenant priorities and quotas, a governed memory pool, SSE progress
and a graceful drain on SIGTERM / SIGINT."""

from __future__ import annotations

import argparse
import asyncio
import signal

from repro.common.units import parse_size
from repro.resources.tenants import TenantSpec
from repro.service.http import ServiceServer
from repro.service.service import QueryService
from repro.service.slo import parse_slo_specs
from repro.service.workers import DEFAULT_WINDOW


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9100,
                        help="HTTP port (0 = ephemeral; the bound address "
                             "is printed)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--global-memory", default=None, metavar="SIZE",
                        help="mediator-wide memory pool, e.g. 64M "
                             "(suffixes K/M/G; 'inf'/'none' = ungoverned). "
                             "Governed pools queue submissions through the "
                             "admission controller")
    parser.add_argument("--admission", default="priority",
                        choices=["fifo", "priority", "none"],
                        help="admission ordering for a governed pool "
                             "(default priority — tenants with higher "
                             "priority admit first)")
    parser.add_argument("--tenant", action="append", dest="tenants",
                        default=None,
                        metavar="NAME[:PRI[:MAX_ACTIVE[:MEMORY]]]",
                        help="declare a tenant with admission priority and "
                             "quotas, repeatable (e.g. gold:2, "
                             "batch:0:8:64M); unknown tenants are "
                             "auto-registered at priority 0 unless "
                             "--strict-tenants")
    parser.add_argument("--strict-tenants", action="store_true",
                        help="refuse submissions from undeclared tenants")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="execution-plane worker processes (default 1 "
                             "= run queries in-process). N > 1 shards the "
                             "machine memory pool into N static carve-outs "
                             "and dispatches least-loaded-first with work "
                             "stealing")
    parser.add_argument("--publish-interval", type=float, default=1.0,
                        help="seconds between /stream snapshot frames "
                             "(default 1)")
    parser.add_argument("--flight-dump", metavar="PATH", default=None,
                        help="arm the machine-level flight recorder; the "
                             "drain flushes it to PATH")
    parser.add_argument("--span-dump", metavar="PATH", default=None,
                        help="record the machine-wide causal span tree and "
                             "write it to PATH at drain")
    parser.add_argument("--archive-dir", metavar="DIR", default=None,
                        help="write the durable telemetry archive "
                             "(segmented JSONL: outcomes, snapshots, "
                             "decisions, span summaries, SLO alerts) under "
                             "DIR; query it offline with `repro history`")
    parser.add_argument("--slo", action="append", dest="slos", default=None,
                        metavar="TENANT:METRIC<=SECONDS@PERCENT%",
                        help="declare a per-tenant latency objective, "
                             "repeatable (e.g. gold:p99<=30s@99.5%%; "
                             "tenant '*' covers all traffic). Burn-rate "
                             "alerts surface on /slo, the SSE stream and "
                             "the archive")


def run(args: argparse.Namespace) -> int:
    service = QueryService(
        seed=args.seed,
        global_memory_bytes=(parse_size(args.global_memory,
                                        "--global-memory")
                             if args.global_memory is not None else None),
        admission=args.admission,
        tenants=[TenantSpec.parse(text) for text in (args.tenants or [])],
        strict_tenants=args.strict_tenants,
        publish_interval_s=args.publish_interval,
        flight_dump=args.flight_dump, span_dump=args.span_dump,
        archive_dir=args.archive_dir,
        slos=parse_slo_specs(args.slos) if args.slos else None,
        workers=args.workers)
    # Bound before the service starts: a port that cannot be had is a
    # usage error that leaves no started service or worker pool behind.
    server = ServiceServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        await service.start()
        await server.start()
        loop = asyncio.get_running_loop()

        def _on_signal(name: str) -> None:
            in_flight = service.active
            # Drain first: with nobody reading stdout any more the print
            # raises BrokenPipeError, and the daemon must stop anyway.
            service.drain()
            print(f"{name}: draining ({in_flight} in flight; "
                  f"new submissions get 503)", flush=True)

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _on_signal, sig.name)
        print(f"serving on {server.url}", flush=True)
        print(f"  endpoints: POST /submit /drain | GET /metrics /healthz "
              f"/slo /stream /submissions", flush=True)
        if args.workers > 1:
            print(f"  execution plane: {args.workers} worker processes "
                  f"(work-stealing, window {DEFAULT_WINDOW})",
                  flush=True)
        if service.archive is not None:
            print(f"  archiving telemetry under "
                  f"{service.archive.directory} "
                  f"(query with `repro history`)", flush=True)
        try:
            await service.wait_drained()
        finally:
            await service.stop()
            await server.stop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
        print(f"drained: {service.completed} completed, "
              f"{service.failed} failed, {service.rejected} rejected",
              flush=True)

    asyncio.run(_serve())
    return 0
