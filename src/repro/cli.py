"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's tables/figures and runs ad-hoc executions without
writing any code:

* ``table1`` — print the simulation parameters (Table 1);
* ``plan`` — print the Figure 5 QEP and its pipeline chains;
* ``fig6`` — the one-slowed-relation sweep (``--relation F`` for Fig. 7);
* ``fig8`` — the uniform-slowdown gain sweep;
* ``run`` — one execution of one strategy, with optional slow sources;
* ``metrics`` — run one strategy with telemetry and export the metrics,
  stall breakdown and decision log (JSON / CSV / Prometheus text);
* ``trace`` — run one strategy and write the Chrome timeline plus the
  decision audit log (the run's execution trace);
* ``live`` — SEQ vs DSE on the wall-clock execution backend: the
  modelled jittered sources, in real seconds; ``--serve`` exposes
  /metrics, /healthz and an SSE /stream while the run is in flight,
  ``--flight-dump`` (with ``--stall-after`` / ``--deadline``) arms the
  flight-recorder watchdog;
* ``serve`` — the always-on multi-tenant query service: one shared
  wall-clock kernel accepting JSON submissions over HTTP, with
  per-tenant priorities/quotas, a governed memory pool, SSE progress
  streaming and graceful SIGTERM drain;
* ``submit`` — POST one (or ``--count`` many) submissions to a serving
  daemon; ``--wait`` polls until they finish;
* ``watch`` — tail a daemon's SSE snapshot stream as JSON lines;
* ``top`` — terminal dashboard attached to a serving live run or a
  ``repro serve`` daemon (or ``--replay`` of a flight-recorder dump);
* ``multiquery`` — the Section 6 throughput experiment; ``--global-memory``
  sweeps mediator-wide memory pools (with ``--admission`` picking the
  queueing policy) to expose the throughput-vs-response-time tradeoff of
  resource governance;
* ``explain`` — record one run's causal span tree and print the
  attributed critical path (``--vs STRATEGY`` diffs two runs, ``--from``
  explains a saved span export).

Every sweep accepts ``--csv PATH`` to export the series for plotting,
and ``--jobs N`` / ``--cache-dir DIR`` / ``--no-cache`` to shard the
independent runs across worker processes and serve repeats from the
content-addressed run cache (results are identical to a serial run).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, NoReturn, Optional, Sequence

from repro.common.errors import ConfigurationError, PlanError
from repro.config import SimulationParameters
from repro.core.engine import QueryEngine
from repro.core.strategies import lower_bound, make_policy
from repro.experiments import (
    GainPoint,
    SlowdownPoint,
    ThroughputPoint,
    figure5_workload,
    format_table,
    run_multiquery_experiment,
    run_slowdown_experiment,
    run_uniform_slowdown_experiment,
)
from repro.experiments.report import write_csv
from repro.plan import build_qep
from repro.wrappers.delays import JitteredDelay, UniformDelay


class _Parser(argparse.ArgumentParser):
    """Usage errors argparse finds in the shape of every other: one
    ``error:`` line on stderr and exit 2, no usage block.  Subcommand
    parsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reproduction of 'Dynamic Query Scheduling in Data "
                    "Integration Systems' (ICDE 2000)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (simulation parameters)")

    plan = sub.add_parser("plan", help="print the Figure 5 QEP")
    _scale(plan)

    fig6 = sub.add_parser("fig6", help="one slowed-down relation sweep "
                                       "(Figure 6; use --relation F for "
                                       "Figure 7)")
    _sweep(fig6)
    fig6.add_argument("--relation", default="A",
                      help="relation to slow down (default A)")
    fig6.add_argument("--retrieval-times", type=float, nargs="+",
                      default=[2.0, 4.0, 6.0, 8.0],
                      help="total retrieval times of the slowed relation (s)")
    fig6.add_argument("--csv", help="write the series to this CSV file")

    fig8 = sub.add_parser("fig8", help="uniform slowdown gain sweep (Figure 8)")
    _sweep(fig8)
    fig8.add_argument("--waits-us", type=float, nargs="+",
                      default=[5, 10, 15, 20, 35, 50, 80, 120],
                      help="per-tuple waits in µs")
    fig8.add_argument("--csv", help="write the series to this CSV file")

    run = sub.add_parser("run", help="run one strategy once")
    _common(run)
    run.add_argument("--strategy", default="DSE",
                     help="SEQ, MA, DSE, DSE-ND or DPHJ (default DSE)")
    _slow(run)
    run.add_argument("--error", action="append", default=[],
                     metavar="JOIN:FACTOR",
                     help="inject a cardinality estimation error on a "
                          "join's actual output (repeatable), e.g. "
                          "--error J1:3")
    run.add_argument("--reopt", action="store_true",
                     help="let the DQO swap misoriented pending joins")
    run.add_argument("--trace", action="store_true",
                     help="print the scheduler's decision audit log")
    run.add_argument("--timeline", action="store_true",
                     help="print the per-fragment schedule")
    run.add_argument("--chrome-trace", metavar="PATH",
                     help="write a chrome://tracing timeline JSON")
    run.add_argument("--spans-out", metavar="PATH",
                     help="record the causal span tree and write its JSON "
                          "export (plus a .trace.json chrome sibling) to "
                          "PATH; analyze it with `repro explain --from`")

    metrics = sub.add_parser(
        "metrics", help="run one strategy with telemetry and export "
                        "metrics/stalls/decisions")
    _common(metrics)
    metrics.add_argument("--strategy", default="DSE",
                         help="SEQ, MA, DSE or DSE-ND (default DSE)")
    _slow(metrics)
    metrics.add_argument("--sample-interval", type=float, default=0.05,
                         help="virtual-time sampling interval in seconds "
                              "(0 disables periodic samples)")
    metrics.add_argument("--json", metavar="PATH",
                         help="write only the JSON export to PATH")
    metrics.add_argument("--csv", metavar="PATH",
                         help="write only the CSV export to PATH")
    metrics.add_argument("--prom", metavar="PATH",
                         help="write only the Prometheus text export to PATH")
    metrics.add_argument("--out", default="telemetry",
                         help="directory receiving all three exports when no "
                              "single format is selected (default ./telemetry)")
    metrics.add_argument("--from", dest="from_path", metavar="PATH",
                         help="skip the run: load a previously written "
                              "metrics JSON export and summarize/re-export it")

    trace = sub.add_parser(
        "trace", help="run one strategy; write the Chrome timeline "
                      "and print the decision audit log")
    _common(trace)
    trace.add_argument("--strategy", default="DSE",
                       help="SEQ, MA, DSE or DSE-ND (default DSE)")
    _slow(trace)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace output path (default ./trace.json)")
    trace.add_argument("--from", dest="from_path", metavar="PATH",
                       help="skip the run: load a previously written Chrome "
                            "trace (or flight-recorder dump) and summarize it")

    anatomy = sub.add_parser(
        "anatomy", help="side-by-side response-time anatomy of strategies")
    _common(anatomy)
    anatomy.add_argument("--strategies", nargs="+",
                         default=["SEQ", "MA", "DSE"])
    _slow(anatomy)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every table/figure into a directory")
    _sweep(reproduce)
    reproduce.add_argument("--outdir", default="results",
                           help="output directory (default ./results)")

    live = sub.add_parser(
        "live", help="run strategies on the wall-clock backend "
                     "(modelled jittered sources, in real seconds)")
    live.add_argument("--scale", type=float, default=0.02,
                      help="workload scale factor (default 0.02 — live runs "
                           "are wall-clock, keep them small)")
    live.add_argument("--seed", type=int, default=7)
    live.add_argument("--strategy", action="append", dest="strategies",
                      default=None, metavar="NAME",
                      help="strategy to run, repeatable "
                           "(default: SEQ and DSE)")
    _slow(live, default=None, note="; default A:10")
    live.add_argument("--wait-us", type=float, default=200.0,
                      help="mean per-tuple wait of a normal source in µs "
                           "(default 200)")
    live.add_argument("--jitter", type=float, default=1.0,
                      help="delay jitter in [0, 1]: each message waits "
                           "count * w with w uniform in "
                           "[(1-jitter)*mean, (1+jitter)*mean] (default 1)")
    live.add_argument("--timeline", action="store_true",
                      help="print the per-fragment schedule of each run")
    live.add_argument("--assert-dse-not-slower", action="store_true",
                      help="exit non-zero unless DSE's response time is "
                           "<= SEQ's (CI smoke check; requires both "
                           "strategies to run)")
    live.add_argument("--serve", type=int, metavar="PORT", default=None,
                      help="serve /metrics, /healthz and /stream on this "
                           "port while each run is in flight (0 = ephemeral; "
                           "the bound address is printed)")
    live.add_argument("--sample-interval", type=float, default=0.1,
                      help="wall-clock telemetry sampling interval in "
                           "seconds; live snapshots are published on each "
                           "tick (default 0.1, 0 disables)")
    live.add_argument("--flight-dump", metavar="PATH", default=None,
                      help="arm the flight recorder; a crashed, stalled or "
                           "overrunning run dumps its last moments to PATH")
    live.add_argument("--stall-after", type=float, metavar="S", default=None,
                      help="abort + dump when no batch completes for S wall "
                           "seconds (needs --flight-dump)")
    live.add_argument("--deadline", type=float, metavar="S", default=None,
                      help="abort + dump when one run exceeds S wall seconds "
                           "(needs --flight-dump)")
    live.add_argument("--span-dump", metavar="PATH", default=None,
                      help="record each run's causal span tree on the "
                           "wall-clock backend and write the export to PATH "
                           "(the strategy name is suffixed when several "
                           "strategies run)")

    serve = sub.add_parser(
        "serve", help="run the always-on multi-tenant query service "
                      "(JSON submissions over HTTP, SSE progress, "
                      "graceful SIGTERM drain)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9100,
                       help="HTTP port (0 = ephemeral; the bound address "
                            "is printed)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--global-memory", default=None, metavar="SIZE",
                       help="mediator-wide memory pool, e.g. 64M (suffixes "
                            "K/M/G; 'inf'/'none' = ungoverned). Governed "
                            "pools queue submissions through the admission "
                            "controller")
    serve.add_argument("--admission", default="priority",
                       choices=["fifo", "priority", "none"],
                       help="admission ordering for a governed pool "
                            "(default priority — tenants with higher "
                            "priority admit first)")
    serve.add_argument("--tenant", action="append", dest="tenants",
                       default=None,
                       metavar="NAME[:PRI[:MAX_ACTIVE[:MEMORY]]]",
                       help="declare a tenant with admission priority and "
                            "quotas, repeatable (e.g. gold:2, "
                            "batch:0:8:64M); unknown tenants are "
                            "auto-registered at priority 0 unless "
                            "--strict-tenants")
    serve.add_argument("--strict-tenants", action="store_true",
                       help="refuse submissions from undeclared tenants")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="execution-plane worker processes (default 1 = "
                            "run queries in-process). N > 1 shards the "
                            "machine memory pool into N static carve-outs "
                            "and dispatches least-loaded-first with work "
                            "stealing")
    serve.add_argument("--publish-interval", type=float, default=1.0,
                       help="seconds between /stream snapshot frames "
                            "(default 1)")
    serve.add_argument("--flight-dump", metavar="PATH", default=None,
                       help="arm the machine-level flight recorder; the "
                            "drain flushes it to PATH")
    serve.add_argument("--span-dump", metavar="PATH", default=None,
                       help="record the machine-wide causal span tree and "
                            "write it to PATH at drain")
    serve.add_argument("--archive-dir", metavar="DIR", default=None,
                       help="write the durable telemetry archive (segmented "
                            "JSONL: outcomes, snapshots, decisions, span "
                            "summaries, SLO alerts) under DIR; query it "
                            "offline with `repro history`")
    serve.add_argument("--slo", action="append", dest="slos", default=None,
                       metavar="TENANT:METRIC<=SECONDS@PERCENT%",
                       help="declare a per-tenant latency objective, "
                            "repeatable (e.g. gold:p99<=30s@99.5%%; tenant "
                            "'*' covers all traffic). Burn-rate alerts "
                            "surface on /slo, the SSE stream and the "
                            "archive")

    history = sub.add_parser(
        "history", help="query a service telemetry archive offline "
                        "(written by `repro serve --archive-dir`)")
    history.add_argument("archive_dir", metavar="DIR",
                         help="the archive directory to read")
    history.add_argument("--since", type=float, default=None,
                         metavar="EPOCH",
                         help="ignore records before this epoch time "
                              "(values <= 0 are relative to now: "
                              "--since -3600 = the last hour)")
    history.add_argument("--until", type=float, default=None,
                         metavar="EPOCH",
                         help="ignore records after this epoch time "
                              "(<= 0 relative to now)")
    history.add_argument("--tenant", default=None,
                         help="only this tenant's outcomes")
    history.add_argument("--slo", action="append", dest="slos", default=None,
                         metavar="SPEC",
                         help="objectives for --slo-report (same grammar "
                              "as `repro serve --slo`)")
    history.add_argument("--slo-report", action="store_true",
                         help="print per-objective compliance over the "
                              "selected range (needs --slo)")
    history.add_argument("--alerts", action="store_true",
                         help="also list archived SLO alert transitions")
    history.add_argument("--diff", nargs=2, metavar=("WINDOW_A", "WINDOW_B"),
                         default=None,
                         help="compare two time windows START..END "
                              "(epoch or <=0-relative seconds, e.g. "
                              "--diff -7200..-3600 -3600..0)")
    history.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of text")

    submit = sub.add_parser(
        "submit", help="POST query submissions to a serving daemon")
    submit.add_argument("--connect", default="127.0.0.1:9100",
                        metavar="URL", help="the daemon's address "
                                            "(default 127.0.0.1:9100)")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--strategy", default="DSE")
    submit.add_argument("--scale", type=float, default=0.02)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--wait-us", type=float, default=200.0,
                        help="mean per-tuple source wait in µs (default 200)")
    submit.add_argument("--jitter", type=float, default=1.0)
    _slow(submit, default=None)
    submit.add_argument("--priority", type=float, default=None,
                        help="admission priority override "
                             "(default: the tenant's priority)")
    submit.add_argument("--memory", default=None, metavar="SIZE",
                        help="declared working set, e.g. 8M (default: the "
                             "engine's query_memory_bytes)")
    submit.add_argument("--count", type=int, default=1,
                        help="submissions to send (default 1; seeds "
                             "increment per submission)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until every submission finished and "
                             "print the outcomes")

    watch = sub.add_parser(
        "watch", help="tail a daemon's SSE snapshot stream as JSON lines")
    watch.add_argument("--connect", default="127.0.0.1:9100", metavar="URL",
                       help="the daemon's address (default 127.0.0.1:9100)")
    watch.add_argument("--frames", type=int, default=0,
                       help="stop after this many frames (0 = until the "
                            "stream ends)")

    top = sub.add_parser(
        "top", help="terminal dashboard for a live run or daemon "
                    "(attach to `repro live --serve` or `repro serve`)")
    top.add_argument("--connect", default="127.0.0.1:9100", metavar="HOST:PORT",
                     help="the /stream endpoint of a serving live run or "
                          "`repro serve` daemon (default 127.0.0.1:9100; "
                          "URLs are accepted)")
    top.add_argument("--replay", metavar="DUMP", default=None,
                     help="render the final snapshot of a flight-recorder "
                          "dump instead of connecting")
    top.add_argument("--once", action="store_true",
                     help="print one frame to stdout and exit (no curses)")

    multi = sub.add_parser("multiquery",
                           help="concurrent queries (Section 6 future work)")
    _common(multi)
    _parallel(multi)
    multi.add_argument("--queries", type=int, default=4)
    multi.add_argument("--inter-arrival", type=float, default=0.0,
                       help="seconds between query arrivals")
    multi.add_argument("--strategies", nargs="+", default=["SEQ", "DSE"])
    multi.add_argument("--waits-us", type=float, nargs="+", default=[20, 100])
    multi.add_argument("--global-memory", nargs="+", default=None,
                       metavar="SIZE",
                       help="mediator-wide memory pools to sweep, e.g. "
                            "--global-memory 128K 1M inf (suffixes K/M/G; "
                            "'inf' or 'none' = ungoverned). Governed points "
                            "queue queries through the admission controller "
                            "and re-plan on budget grows")
    multi.add_argument("--admission", default="fifo",
                       choices=["fifo", "priority", "none"],
                       help="admission policy for governed pools "
                            "(default fifo)")
    multi.add_argument("--query-memory", default=None, metavar="SIZE",
                       help="initial per-query budget (default: "
                            "the configured query_memory_bytes)")
    multi.add_argument("--min-memory", default=None, metavar="SIZE",
                       help="minimum working set a query must be granted "
                            "before it is admitted")
    multi.add_argument("--max-memory", default=None, metavar="SIZE",
                       help="largest budget a query's lease may grow to "
                            "when the broker offers reclaimed memory")
    multi.add_argument("--csv", help="write the series to this CSV file")

    explain = sub.add_parser(
        "explain", help="record one run's span tree and print the "
                        "attributed critical path (SEQ-vs-DSE diffs, "
                        "saved span exports)")
    _common(explain)
    explain.add_argument("--strategy", default="DSE",
                         help="SEQ, MA, DSE or DSE-ND (default DSE)")
    explain.add_argument("--vs", metavar="STRATEGY", default=None,
                         help="also run this strategy on identical sources "
                              "and print the per-category span diff "
                              "(e.g. --strategy DSE --vs SEQ)")
    _slow(explain)
    explain.add_argument("--segments", type=int, default=8,
                         help="longest critical-path segments to list "
                              "(default 8)")
    explain.add_argument("--spans-out", metavar="PATH",
                         help="also write the recorded span export (plus "
                              "its .trace.json chrome sibling) to PATH")
    explain.add_argument("--from", dest="from_path", metavar="PATH",
                         help="skip the run: explain a span export written "
                              "by --spans-out / `repro run --spans-out` / "
                              "`repro live --span-dump`")

    return parser


def _scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = paper size)")


def _common(parser: argparse.ArgumentParser) -> None:
    _scale(parser)
    parser.add_argument("--seed", type=int, default=1)


def _sweep(parser: argparse.ArgumentParser) -> None:
    """The options of a paper figure: seeded repetitions averaged per
    point (Section 5.1.3 uses 3), sharded and cached."""
    _common(parser)
    parser.add_argument("--repetitions", type=int, default=1,
                        help="seeded runs averaged per point (default 1)")
    _parallel(parser)


def _slow(parser: argparse.ArgumentParser, default: Optional[list] = [],
          note: str = "") -> None:
    # The shared list is never mutated: argparse's "append" copies it.
    parser.add_argument("--slow", action="append", default=default,
                        metavar="REL:FACTOR",
                        help="multiply one source's per-tuple wait by "
                             f"FACTOR (repeatable{note}), e.g. --slow F:10")


def _parallel(parser: argparse.ArgumentParser) -> None:
    """Sharding/caching options shared by every sweep subcommand."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent runs "
                             "(default 1 = serial, 0 = one per core)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed run cache directory; "
                             "repeated runs are served from disk")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass --cache-dir (recompute everything)")


def _runner_from(args: argparse.Namespace) -> "SweepRunner":
    from repro.parallel.engine import SweepRunner
    return SweepRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                       use_cache=not args.no_cache)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "plan": _cmd_plan,
        "fig6": _cmd_fig6,
        "fig8": _cmd_fig8,
        "run": _cmd_run,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "anatomy": _cmd_anatomy,
        "live": _cmd_live,
        "serve": _cmd_serve,
        "history": _cmd_history,
        "submit": _cmd_submit,
        "watch": _cmd_watch,
        "top": _cmd_top,
        "multiquery": _cmd_multiquery,
        "reproduce": _cmd_reproduce,
        "explain": _cmd_explain,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, PlanError) as exc:
        # The one usage-error path: a bad option value, an unreadable
        # input file, an unreachable endpoint or an unbindable port is
        # one line and exit 2, not a traceback.  A run or submission
        # that fails returns 1 from its handler.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


# -- commands ---------------------------------------------------------------

def _cmd_table1(args: argparse.Namespace) -> int:
    params = SimulationParameters()
    print(format_table(["Parameter", "Value"], params.table1_rows(),
                       title="Table 1: Simulation parameters"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    workload = figure5_workload(scale=args.scale)
    print("Query:", workload.tree.render())
    print()
    print(workload.qep.describe())
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    workload = figure5_workload(scale=args.scale)
    params = SimulationParameters()
    points = run_slowdown_experiment(
        workload, args.relation, list(args.retrieval_times), params,
        repetitions=args.repetitions, base_seed=args.seed,
        runner=_runner_from(args))
    rows = [p.row() for p in points]
    figure = "Figure 7" if args.relation == "F" else "Figure 6"
    print(format_table(SlowdownPoint.HEADERS, rows,
                       title=f"{figure}: slowing {args.relation}"))
    if args.csv:
        print("wrote", write_csv(args.csv, SlowdownPoint.HEADERS, rows))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    workload = figure5_workload(scale=args.scale)
    params = SimulationParameters()
    points = run_uniform_slowdown_experiment(
        workload, [w * 1e-6 for w in args.waits_us], params,
        repetitions=args.repetitions, base_seed=args.seed,
        runner=_runner_from(args))
    rows = [p.row() for p in points]
    print(format_table(GainPoint.HEADERS, rows,
                       title="Figure 8: DSE gain vs w_min"))
    if args.csv:
        print("wrote", write_csv(args.csv, GainPoint.HEADERS, rows))
    return 0


def _parse_factors(specs: Optional[Sequence[str]], flag: str,
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


def _slowed_sources(args: argparse.Namespace, params: SimulationParameters):
    """The Figure 5 workload at ``--scale``; each source waits
    ``UniformDelay(w_min x its --slow factor)``."""
    workload = figure5_workload(scale=args.scale)
    slow = _parse_factors(args.slow, "--slow", workload.relation_names)
    return workload, {name: UniformDelay(params.w_min * slow.get(name, 1.0))
                      for name in workload.relation_names}


def _query_engine(args: argparse.Namespace, strategy: str,
                  params: SimulationParameters,
                  errors: Optional[dict[str, float]] = None) -> QueryEngine:
    """One seeded run of ``strategy`` on :func:`_slowed_sources`;
    ``errors`` scales joins' actual output (``run --error``)."""
    workload, delays = _slowed_sources(args, params)
    qep = workload.qep
    if errors:
        qep = build_qep(workload.catalog, workload.tree,
                        actual_output_factors=errors)
    return QueryEngine(workload.catalog, qep, make_policy(strategy), delays,
                       params=params, seed=args.seed)


def _cmd_run(args: argparse.Namespace) -> int:
    params = SimulationParameters().with_overrides(
        enable_reoptimization=args.reopt,
        telemetry_spans=bool(args.spans_out))
    errors = _parse_factors(args.error, "--error")

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
        workload, delays = _slowed_sources(args, params)
        result = SymmetricHashJoinEngine(
            workload.catalog, workload.tree, delays, params=params,
            seed=args.seed).run()
        waits = {name: model.mean_wait() for name, model in delays.items()}
        print(result.summary())
        print(f"LWB: {lower_bound(workload.qep, waits, params):.3f}s")
        return 0

    engine = _query_engine(args, args.strategy, params, errors)
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
        from repro.observability import write_spans_json
        print("spans:", write_spans_json(result.spans, args.spans_out))
    if args.trace:
        print()
        _print_decisions(result)
    return 0


def _print_decisions(result) -> None:
    """The run's decision audit log: its execution trace."""
    if result.decisions:
        print(f"decisions ({len(result.decisions)}):")
        for record in result.decisions:
            print(" ", record)


def _run_with_telemetry(args: argparse.Namespace, sample_interval: float):
    """One telemetry-enabled execution shared by ``metrics`` and ``trace``."""
    params = SimulationParameters().with_overrides(
        telemetry_enabled=True,
        telemetry_sample_interval=sample_interval)
    return _query_engine(args, args.strategy, params).run()


def _summarize_snapshot(snapshot: dict) -> None:
    """Print the run-level summary of a loaded metrics snapshot."""
    print(f"{snapshot['strategy']}: {snapshot['response_time']:.3f}s "
          f"({snapshot['result_tuples']} tuples, "
          f"stall {snapshot['stall_time']:.3f}s, "
          f"{len(snapshot['decisions'])} decisions, "
          f"{len(snapshot['metrics'])} metrics, "
          f"{len(snapshot['samples'])} samples)")
    if snapshot["stall_breakdown"]:
        print("stall breakdown:")
        for cause, seconds in sorted(snapshot["stall_breakdown"].items(),
                                     key=lambda item: (-item[1], item[0])):
            print(f"  {cause:<24} {seconds:.6f}s")


def _cmd_metrics(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.observability import (
        load_metrics_json,
        telemetry_snapshot,
        write_metrics_csv,
        write_metrics_json,
        write_metrics_prometheus,
    )

    if args.from_path:
        snapshot = load_metrics_json(args.from_path)
        _summarize_snapshot(snapshot)
        wrote = [writer(snapshot, path)
                 for path, writer in ((args.json, write_metrics_json),
                                      (args.csv, write_metrics_csv),
                                      (args.prom, write_metrics_prometheus))
                 if path]
        for path in wrote:
            print("wrote", path)
        return 0

    result = _run_with_telemetry(args, args.sample_interval)
    print(result.summary())
    print("stall breakdown:")
    for cause, seconds in result.stall_by_cause().items():
        print(f"  {cause:<24} {seconds:.6f}s")
    _print_decisions(result)

    snapshot = telemetry_snapshot(result)
    explicit = [(args.json, write_metrics_json),
                (args.csv, write_metrics_csv),
                (args.prom, write_metrics_prometheus)]
    wrote = []
    if any(path for path, _ in explicit):
        for path, writer in explicit:
            if path:
                wrote.append(writer(snapshot, path))
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"metrics-{result.strategy.lower()}"
        wrote = [
            write_metrics_json(snapshot, out / f"{stem}.json"),
            write_metrics_csv(snapshot, out / f"{stem}.csv"),
            write_metrics_prometheus(snapshot, out / f"{stem}.prom"),
        ]
    for path in wrote:
        print("wrote", path)
    return 0


def _summarize_trace_file(path: str) -> int:
    """Summarize an existing Chrome trace or flight-recorder dump."""
    from collections import Counter

    from repro.observability import load_flight_dump
    from repro.observability.export import load_json_document

    data = load_json_document(path, "trace file")
    if isinstance(data, dict) and "entries" in data and "reason" in data:
        dump = load_flight_dump(path)  # validates version/layout
        kinds = Counter(entry.kind for entry in dump["entries"])
        print(f"flight-recorder dump: reason={dump['reason']} "
              f"recorded={dump['recorded']} dropped={dump['dropped']}")
        for kind, count in kinds.most_common():
            print(f"  {kind:<10} {count}")
        if dump["entries"]:
            first, last = dump["entries"][0], dump["entries"][-1]
            print(f"  window: t={first.time:.3f}s .. t={last.time:.3f}s")
        return 0

    events = data.get("traceEvents") if isinstance(data, dict) else data
    if not isinstance(events, list) \
            or not all(isinstance(event, dict) for event in events):
        raise ConfigurationError(
            f"{path} is neither a Chrome trace nor a flight-recorder dump")
    categories = Counter(event.get("cat", "?") for event in events
                         if event.get("ph") != "M")
    print(f"chrome trace: {len(events)} events")
    for category, count in categories.most_common(12):
        print(f"  {category:<20} {count}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.trace_export import write_chrome_trace

    if args.from_path:
        return _summarize_trace_file(args.from_path)

    result = _run_with_telemetry(args, sample_interval=0.0)
    print(result.summary())
    _print_decisions(result)
    print("chrome trace:", write_chrome_trace(args.out, result))
    return 0


def _cmd_anatomy(args: argparse.Namespace) -> int:
    from repro.experiments.analysis import comparison_report
    params = SimulationParameters()
    results = {strategy: _query_engine(args, strategy, params).run()
               for strategy in args.strategies}
    print(comparison_report(results,
                            title="Response-time anatomy (Figure 5 workload)"))
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.common.errors import SimulationError
    from repro.exec.live import LiveQueryEngine

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
    slow = _parse_factors(args.slow if args.slow is not None else ["A:10"],
                          "--slow", workload.relation_names)
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
            from pathlib import Path
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


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.observability.top import (
        render_top,
        replay_snapshot,
        run_top,
        stream_snapshots,
    )

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


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.resources import TenantSpec
    from repro.service import QueryService, ServiceServer
    from repro.service.slo import parse_slo_specs
    from repro.service.workers import DEFAULT_WINDOW

    service = QueryService(
        seed=args.seed,
        global_memory_bytes=(_parse_size(args.global_memory,
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
            print(f"{name}: draining ({service.active} in flight; "
                  f"new submissions get 503)", flush=True)
            service.drain()

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


def _cmd_submit(args: argparse.Namespace) -> int:
    import time as time_mod

    from repro.observability.top import open_connection, request_json

    _at_least("--count", args.count, 1)
    slow = _parse_factors(args.slow, "--slow")
    base = {"tenant": args.tenant, "strategy": args.strategy,
            "scale": args.scale, "wait_us": args.wait_us,
            "jitter": args.jitter}
    if slow:
        base["slow"] = slow
    if args.priority is not None:
        base["priority"] = args.priority
    if args.memory is not None:
        base["memory_bytes"] = _parse_size(args.memory, "--memory")

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
                time_mod.sleep(0.2)
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


def _cmd_watch(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.observability.top import (
        stream_snapshots_reconnect,
        worker_transitions,
    )

    def _notice(delay: float, attempt: int) -> None:
        print(f"stream dropped; reconnecting in {delay:.1f}s "
              f"(attempt {attempt})", file=sys.stderr, flush=True)

    _at_least("--frames", args.frames, 0)
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
                print(f"ALERT {json_mod.dumps(snapshot, sort_keys=True)}",
                      file=sys.stderr, flush=True)
                continue
            # Worker up/down transitions ride stderr for the same
            # reason: the stdout stream stays pure snapshot JSON.
            for notice in worker_transitions(previous, snapshot):
                print(f"WORKER {notice}", file=sys.stderr, flush=True)
            previous = snapshot
            print(json_mod.dumps(snapshot, sort_keys=True), flush=True)
            frames += 1
            if args.frames and frames >= args.frames:
                return 0
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.service.history import (
        diff_windows,
        load_alerts,
        load_outcomes,
        resolve_time,
        slo_report,
        summarize_outcomes,
    )
    from repro.service.slo import parse_slo_specs

    if args.diff is not None:
        diff = diff_windows(args.archive_dir, args.diff[0],
                            args.diff[1], tenant=args.tenant)
        if args.json:
            print(json_mod.dumps(diff, indent=2, sort_keys=True))
        else:
            _print_history_diff(diff)
        return 0

    since = resolve_time(args.since)
    until = resolve_time(args.until)
    records, reader = load_outcomes(args.archive_dir, since=since,
                                    until=until, tenant=args.tenant)
    if reader.skipped_lines or reader.skipped_segments:
        print(f"warning: skipped {reader.skipped_lines} corrupt "
              f"line(s) and {reader.skipped_segments} unreadable "
              f"segment(s)", file=sys.stderr)
    summary = summarize_outcomes(records)
    report: "dict[str, Any]" = {
        "archive": args.archive_dir,
        "segments_read": reader.segments_read,
        "skipped_lines": reader.skipped_lines,
        "skipped_segments": reader.skipped_segments,
        "summary": summary,
    }
    if args.slo_report:
        if not args.slos:
            raise ConfigurationError("--slo-report needs at least one --slo "
                                     "objective")
        report["slo"] = slo_report(records, parse_slo_specs(args.slos))
    if args.alerts:
        report["alerts"] = load_alerts(args.archive_dir, since=since,
                                       until=until)
    if args.json:
        print(json_mod.dumps(report, indent=2, sort_keys=True))
    else:
        _print_history_text(report)
    return 0


def _print_history_text(report: "dict[str, Any]") -> None:
    summary = report["summary"]
    latency = summary["latency"]
    print(f"archive {report['archive']}: {summary['outcomes']} outcomes "
          f"({summary['completed']} ok, {summary['failed']} failed) "
          f"over {summary['span_s']:.1f}s "
          f"[{report['segments_read']} segment(s)]")
    print(f"  latency p50={latency['p50_s'] * 1e3:.1f}ms "
          f"p95={latency['p95_s'] * 1e3:.1f}ms "
          f"p99={latency['p99_s'] * 1e3:.1f}ms "
          f"max={latency['max_s'] * 1e3:.1f}ms  "
          f"throughput={summary['throughput_qps']:.1f} q/s")
    for name, tenant in summary["tenants"].items():
        print(f"  tenant {name:<12} {tenant['completed']:>6} done  "
              f"p50={tenant['p50_s'] * 1e3:.1f}ms "
              f"p99={tenant['p99_s'] * 1e3:.1f}ms")
    for objective in report.get("slo", []):
        status = "MET" if objective["met"] else "MISSED"
        print(f"  slo {objective['objective']:<28} {status}  "
              f"compliance={objective['compliance'] * 100:.3f}% "
              f"({objective['bad']}/{objective['events']} bad, "
              f"budget spent {objective['budget_spent'] * 100:.0f}%)")
    for alert in report.get("alerts", []):
        print(f"  alert t={alert['t']:.3f} {alert['state']:<9} "
              f"{alert['objective']} [{alert['window']}] "
              f"burn={alert['burn_rate']:.1f}")


def _print_history_diff(report: "dict[str, Any]") -> None:
    for label in ("window_a", "window_b"):
        window = report[label]
        summary = window["summary"]
        print(f"{label}: [{window['since']:.3f} .. {window['until']:.3f}] "
              f"{summary['outcomes']} outcomes, "
              f"{summary['throughput_qps']:.1f} q/s")
    print(f"{'METRIC':<16} {'A':>12} {'B':>12} {'DELTA':>12} {'RATIO':>8}")
    for metric, delta in report["deltas"].items():
        ratio = (f"{delta['ratio']:.3f}" if delta["ratio"] is not None
                 else "-")
        print(f"{metric:<16} {delta['a']:>12.4f} {delta['b']:>12.4f} "
              f"{delta['delta']:>+12.4f} {ratio:>8}")


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.reproduce import generate_all
    out = generate_all(args.outdir, scale=args.scale,
                       repetitions=args.repetitions, seed=args.seed,
                       progress=lambda step: print(f"[{step}]", flush=True),
                       runner=_runner_from(args))
    print(f"report and CSV series written to {out.resolve()}")
    return 0


def _parse_size(text: str, flag: str) -> Optional[int]:
    """Parse a memory size like ``512``, ``128K``, ``2M``, ``1G``.

    ``inf``/``none`` mean "no pool" (ungoverned) and return ``None``.
    """
    lowered = text.strip().lower()
    if lowered in ("inf", "none", "unbounded"):
        return None
    multiplier = 1
    for suffix, factor in (("k", 1024), ("m", 1024 ** 2), ("g", 1024 ** 3)):
        if lowered.endswith(suffix):
            lowered, multiplier = lowered[:-1], factor
            break
    try:
        value = int(float(lowered) * multiplier)
    except ValueError:
        raise ConfigurationError(
            f"bad {flag} size {text!r}; expected bytes with an optional "
            f"K/M/G suffix, or 'inf'") from None
    if value <= 0:
        raise ConfigurationError(f"{flag} must be positive, got {text!r}")
    return value


def _at_least(flag: str, value: int, floor: int) -> None:
    if value < floor:
        raise ConfigurationError(f"{flag} must be >= {floor}, got {value}")


def _cmd_multiquery(args: argparse.Namespace) -> int:

    workload = figure5_workload(scale=args.scale)
    pools = ([_parse_size(text, "--global-memory")
              for text in args.global_memory]
             if args.global_memory else None)
    governed = pools is not None and any(p is not None for p in pools)
    params = SimulationParameters().with_overrides(
        # Governed runs exercise the full resource-governance plane:
        # leases shrink on release, grow offers go out, and running
        # queries re-plan degraded chains when their budget grows.
        dynamic_budget_replanning=governed)
    for strategy in args.strategies:
        make_policy(strategy)  # validates the name before any run
    points = run_multiquery_experiment(
        workload, list(args.strategies),
        [w * 1e-6 for w in args.waits_us], params,
        num_queries=args.queries, inter_arrival=args.inter_arrival,
        seed=args.seed, runner=_runner_from(args),
        global_memories=pools, admission=args.admission,
        memory_bytes=_parse_size(args.query_memory, "--query-memory")
        if args.query_memory else None,
        min_memory_bytes=_parse_size(args.min_memory, "--min-memory")
        if args.min_memory else None,
        max_memory_bytes=_parse_size(args.max_memory, "--max-memory")
        if args.max_memory else None)
    rows = [p.row() for p in points]
    print(format_table(ThroughputPoint.HEADERS, rows,
                       title=f"{args.queries} concurrent queries"))
    if args.csv:
        print("wrote", write_csv(args.csv, ThroughputPoint.HEADERS, rows))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.observability import (
        explain_spans,
        format_explanation,
        format_explanation_diff,
        load_spans,
        write_spans_json,
    )

    _at_least("--segments", args.segments, 0)
    if args.from_path:
        explanation = explain_spans(load_spans(args.from_path))
        print(format_explanation(explanation, top_segments=args.segments))
        return 0

    params = SimulationParameters().with_overrides(telemetry_spans=True)

    def run_one(strategy: str):
        # Both strategies face identical sources: the per-wrapper RNG
        # streams are seeded by the engine.
        result = _query_engine(args, strategy, params).run()
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


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
