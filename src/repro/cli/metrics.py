"""``repro metrics``: run one strategy with telemetry and export the
metrics, stall breakdown and decision log (JSON / CSV / Prometheus)."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli import options
from repro.cli.runs import print_decisions, run_with_telemetry
from repro.observability.export import (
    load_metrics_json,
    telemetry_snapshot,
    write_metrics_csv,
    write_metrics_json,
    write_metrics_prometheus,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.common(parser)
    parser.add_argument("--strategy", default="DSE",
                        help="SEQ, MA, DSE or DSE-ND (default DSE)")
    options.slow(parser)
    parser.add_argument("--sample-interval", type=float, default=0.05,
                        help="virtual-time sampling interval in seconds "
                             "(0 disables periodic samples)")
    parser.add_argument("--json", metavar="PATH",
                        help="write only the JSON export to PATH")
    parser.add_argument("--csv", metavar="PATH",
                        help="write only the CSV export to PATH")
    parser.add_argument("--prom", metavar="PATH",
                        help="write only the Prometheus text export to PATH")
    parser.add_argument("--out", default="telemetry",
                        help="directory receiving all three exports when "
                             "no single format is selected (default "
                             "./telemetry)")
    parser.add_argument("--from", dest="from_path", metavar="PATH",
                        help="skip the run: load a previously written "
                             "metrics JSON export and summarize/re-export "
                             "it")


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


def run(args: argparse.Namespace) -> int:
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

    result = run_with_telemetry(args, args.sample_interval)
    print(result.summary())
    print("stall breakdown:")
    for cause, seconds in result.stall_by_cause().items():
        print(f"  {cause:<24} {seconds:.6f}s")
    print_decisions(result)

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
