#!/usr/bin/env python
"""Count the kernel work of one untraced, seeded pass of a sim workload.

Runs every query of one pass of a ``bench/sim_workloads.py`` workload in
process and adds up, over the ``Simulator`` runs it makes, the events the
kernel dispatched (``processed_events``) and the waits processes took in
place (``waits_in_place``, see ``Kernel.elapse``).  Their sum is what the
kernel dispatched before waits were taken in place.

    PYTHONPATH=src python scripts/count_kernel_work.py sim_sweep \\
        --dispatched 190823 --work 376083

prints both counts and exits 1 if a pinned one differs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import sim_workloads  # noqa: E402

from repro.sim import Simulator  # noqa: E402


def count_kernel_work(name: str, seed: int = 1) -> tuple[int, int]:
    """``(dispatched, in_place)`` of one untraced pass of workload ``name``."""
    counts = [0, 0]
    run = Simulator.run

    def counted(kernel, *args, **kwargs):
        try:
            return run(kernel, *args, **kwargs)
        finally:
            counts[0] += kernel.processed_events
            counts[1] += kernel.waits_in_place

    Simulator.run = counted
    try:
        for spec in sim_workloads.build(name, seed, False).specs:
            spec.execute()
    finally:
        Simulator.run = run
    return counts[0], counts[1]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dispatched", type=int,
                        help="expected processed_events")
    parser.add_argument("--work", type=int,
                        help="expected processed_events + waits_in_place")
    args = parser.parse_args(argv)
    dispatched, in_place = count_kernel_work(args.workload, args.seed)
    print(f"{args.workload}: {dispatched} dispatched + {in_place} in place "
          f"= {dispatched + in_place}")
    ok = args.dispatched in (None, dispatched) \
        and args.work in (None, dispatched + in_place)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
