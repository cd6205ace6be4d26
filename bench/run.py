#!/usr/bin/env python3
"""The repository benchmark: one command, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints a table of its metrics followed, as the
last line, by one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (which also writes
``bench/out/trace_<workload>.json``).  Without ``--workload`` every
workload runs in turn.  ``--check-repeat`` runs the untraced set twice
and fails when two runs of the same code disagree by more than a
metric's bound.  The exit status is non-zero when any check failed.

Workloads, metrics and what moves what are in README.md; the tables the
driver reads are in ../BENCHMARK.json and, for this code, declared.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

from declared import (  # noqa: E402  (sibling module, script directory)
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    UNITS,
    RunResult,
    workload_names,
)

#: cold starts timed per run for ``setup_s`` (the median is reported);
#: a server tree costs ~2.5 s to start and drain, an interpreter 0.4 s.
SETUP_REPEATS = 5
SERVER_SETUP_REPEATS = 3
QUICK_SECONDS = 1.0


def run_untraced(name: str, seed: int, seconds: float, quick: bool
                 ) -> RunResult:
    if name == "serve_http_pool":
        import http_workload
        import service_workloads

        return http_workload.measure(
            seed, seconds, 1 if quick else SERVER_SETUP_REPEATS,
            service_workloads.expected_result_tuples())
    repeats = 1 if quick else SETUP_REPEATS
    import probes

    if name == "service_saturated":
        import service_workloads

        result = service_workloads.measure(seed, seconds)
    else:
        import sim_workloads

        result = sim_workloads.measure(
            sim_workloads.build(name, seed, quick), seconds)
    result.metrics["setup_s"] = probes.cold_setup_s(name, seed, quick,
                                                    repeats)
    return result


def run_traced(name: str, seed: int, seconds: float, quick: bool
               ) -> RunResult:
    import probes
    import tracer as tracing
    import trace_targets

    installation = tracing.Installation(
        tracing.Tracer(), trace_targets.TARGETS,
        trace_targets.PROCESS_TARGETS, trace_targets.OTHER_PROCESS,
        trace_targets.HARNESS_FRAMES)
    spans: List[Dict[str, Any]]
    try:
        if name == "serve_http_pool":
            import http_workload
            import service_workloads

            # Traced from the client side only: the server is another
            # process, so no proxy is applied.
            result, spans = http_workload.trace(
                seed, seconds, service_workloads.expected_result_tuples())
        elif name == "service_saturated":
            import service_workloads

            result = service_workloads.trace(seed, seconds, installation)
            spans = installation.tracer.spans
        else:
            import sim_workloads

            result = sim_workloads.trace(
                sim_workloads.build(name, seed, quick), seconds, installation)
            spans = installation.tracer.spans
    finally:
        installation.restore()
    result.metrics["plan.figure5_build_ms"] = probes.figure5_build_ms()
    result.metrics["parallel.payload_roundtrip_us"] = (
        probes.payload_roundtrip_us())
    result.metrics["trace.unresolved_targets"] = float(
        len(installation.unresolved))
    result.info["unresolved_targets"] = installation.unresolved
    if installation.tracer.dropped_spans:
        result.info["dropped_spans"] = installation.tracer.dropped_spans
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{name}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds,
        "unresolved_targets": installation.unresolved,
        "metrics": result.metrics,
        "aggregates": installation.tracer.aggregates(),
        "spans": spans,
    }))
    return result


def contract_line(result: RunResult, traced: bool) -> Dict[str, Any]:
    names = ([name for name, *_ in PER_LAYER] if traced
             else [name for name, *_ in END_TO_END])
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name],
                           "unit": UNITS[name]} for name in names},
    }


def print_table(name: str, seed: int, traced: bool, result: RunResult,
                took_s: float) -> None:
    rows = PER_LAYER if traced else END_TO_END
    print(f"== {name}  seed={seed}  "
          f"{'traced' if traced else 'untraced'}  ({took_s:.1f} s) ==")
    for metric, unit, better, *bound in rows:
        value = result.metrics[metric]
        arrow = "^" if better == "higher" else "v"
        limit = f"  bound {bound[0]:.0%}" if bound else ""
        print(f"  {metric:<42} {value:>14.4f} {unit:<9}{arrow}{limit}")
    failed_fraction = result.failed / max(1, result.attempted)
    print(f"  {'failed_fraction':<42} {failed_fraction:>14.4f} "
          f"{'fraction':<9}v  must be 0  "
          f"({result.failed} of {result.attempted})")
    for key, value in result.info.items():
        print(f"  . {key}: {value}")
    for line in result.voids:
        print(f"  VOID: {line}")
    for line in result.problems:
        print(f"  FAILED: {line}")


def run_one(name: str, seed: int, seconds: float, traced: bool,
            quick: bool) -> RunResult:
    started = time.perf_counter()
    run = run_traced if traced else run_untraced
    result = run(name, seed, seconds, quick)
    print_table(name, seed, traced, result, time.perf_counter() - started)
    return result


def check_repeat(seed: int, seconds: float, quick: bool) -> int:
    """The second of two untraced sets of the same code must not read
    worse than the first by more than a metric's bound (and, on the
    virtual-time workloads, must match it bit for bit in its digest)."""
    status = 0
    for name in workload_names():
        runs = []
        for _attempt in range(2):
            result = run_one(name, seed, seconds, False, quick)
            if result.voids:  # the harness's fault: one more try
                result = run_one(name, seed, seconds, False, quick)
            runs.append(result)
        first, second = runs
        print(f"-- repeat check: {name} --")
        for metric, _unit, better, bound in END_TO_END:
            a, b = first.metrics[metric], second.metrics[metric]
            # Positive = the second run reads worse; like the driver,
            # only that direction counts against the bound.
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "OUTSIDE BOUND"
            print(f"  {metric:<20} {a:>12.4f} {b:>12.4f} "
                  f"{worse:>+8.1%} (bound {bound:.0%}) {verdict}")
            if worse > bound:
                status = 1
        if first.info.get("digest") != second.info.get("digest"):
            print("  digest of simulated statistics differs between runs")
            status = 1
        for result in runs:
            if not result.correct or result.voids:
                status = 1
    print("repeat check:", "passed" if status == 0 else "FAILED")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"seconds one run measures "
                             f"(default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help=f"about {QUICK_SECONDS:g} s per workload on "
                             f"shrunken inputs (smoke test)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--out", metavar="FILE",
                        help="also write every result as JSON to FILE")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"found {repro.__file__} instead")
    except ImportError as exc:
        print(f"bench: the program under test is not importable from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else float(RUN_SECONDS))
    if args.check_repeat:
        return check_repeat(args.seed, seconds, args.quick)

    status = 0
    written = []
    names = [args.workload] if args.workload else workload_names()
    for name in names:
        result = run_one(name, args.seed, seconds, bool(args.trace),
                         args.quick)
        line = contract_line(result, bool(args.trace))
        written.append({"workload": name, "seed": args.seed,
                        "trace": args.trace, "voids": result.voids,
                        "problems": result.problems, "info": result.info,
                        **line})
        if args.out:
            Path(args.out).write_text(json.dumps(written, indent=1))
        if not result.correct:
            status = 1
        sys.stdout.flush()
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
