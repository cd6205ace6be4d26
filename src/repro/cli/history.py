"""``repro history``: query a service telemetry archive offline (written
by ``repro serve --archive-dir``)."""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any

from repro.common.errors import ConfigurationError
from repro.service.history import (
    diff_windows,
    load_alerts,
    load_outcomes,
    resolve_time,
    slo_report,
    summarize_outcomes,
)
from repro.service.slo import parse_slo_specs


#: what argparse may read as a value although it starts with "-": a
#: negative number, as by default, or a window ``START..END`` whose
#: START is relative (``--diff -7200..-3600 -3600..0``).
_NEGATIVE_VALUE = re.compile(r"^-\d*\.?\d*(\.\.-?\d*\.?\d*)?$")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser._negative_number_matcher = _NEGATIVE_VALUE
    parser.add_argument("archive_dir", metavar="DIR",
                        help="the archive directory to read")
    parser.add_argument("--since", type=float, default=None,
                        metavar="EPOCH",
                        help="ignore records before this epoch time "
                             "(values <= 0 are relative to now: "
                             "--since -3600 = the last hour)")
    parser.add_argument("--until", type=float, default=None,
                        metavar="EPOCH",
                        help="ignore records after this epoch time "
                             "(<= 0 relative to now)")
    parser.add_argument("--tenant", default=None,
                        help="only this tenant's outcomes")
    parser.add_argument("--slo", action="append", dest="slos", default=None,
                        metavar="SPEC",
                        help="objectives for --slo-report (same grammar "
                             "as `repro serve --slo`)")
    parser.add_argument("--slo-report", action="store_true",
                        help="print per-objective compliance over the "
                             "selected range (needs --slo)")
    parser.add_argument("--alerts", action="store_true",
                        help="also list archived SLO alert transitions")
    parser.add_argument("--diff", nargs=2, metavar=("WINDOW_A", "WINDOW_B"),
                        default=None,
                        help="compare two time windows START..END "
                             "(epoch or <=0-relative seconds, e.g. "
                             "--diff -7200..-3600 -3600..0)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")


def run(args: argparse.Namespace) -> int:
    if args.diff is not None:
        diff = diff_windows(args.archive_dir, args.diff[0],
                            args.diff[1], tenant=args.tenant)
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            _print_diff(diff)
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
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(report)
    return 0


def _print_text(report: "dict[str, Any]") -> None:
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


def _print_diff(report: "dict[str, Any]") -> None:
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
