"""``repro trace``: run one strategy, write the Chrome timeline and print
the decision audit log (the run's execution trace)."""

from __future__ import annotations

import argparse
from collections import Counter

from repro.cli import options
from repro.cli.runs import print_decisions, run_with_telemetry
from repro.common.errors import ConfigurationError
from repro.experiments.trace_export import write_chrome_trace
from repro.observability.export import load_json_document
from repro.observability.flight import load_flight_dump


def add_arguments(parser: argparse.ArgumentParser) -> None:
    options.common(parser)
    parser.add_argument("--strategy", default="DSE",
                        help="SEQ, MA, DSE or DSE-ND (default DSE)")
    options.slow(parser)
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace output path (default "
                             "./trace.json)")
    parser.add_argument("--from", dest="from_path", metavar="PATH",
                        help="skip the run: load a previously written "
                             "Chrome trace (or flight-recorder dump) and "
                             "summarize it")


def _summarize_trace_file(path: str) -> int:
    """Summarize an existing Chrome trace or flight-recorder dump."""
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


def run(args: argparse.Namespace) -> int:
    if args.from_path:
        return _summarize_trace_file(args.from_path)

    result = run_with_telemetry(args, sample_interval=0.0)
    print(result.summary())
    print_decisions(result)
    print("chrome trace:", write_chrome_trace(args.out, result))
    return 0
