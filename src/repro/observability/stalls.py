"""Stall attribution: classify every engine idle interval by cause.

The DQP stalls only when no scheduled fragment has data (Section 3.2);
*why* it had to wait is what the paper diagnoses from execution traces.
Every stall interval is attributed to exactly one cause:

* ``source-wait:<name>`` — woken by a message from wrapper ``<name>``:
  the engine was starved by that remote source;
* ``memory-wait``        — woken by a local temp prefetch completing:
  the engine was waiting for materialized data to be reloaded into
  memory from the local disk;
* ``timeout``            — nothing arrived for the full timeout;
* ``no-schedulable-qf``  — woken for replanning (e.g. a delivery-rate
  change) while no scheduled query fragment had work;
* ``admission-wait``     — (multi-query) the submission sat in the
  admission queue because its minimum working set did not fit the
  global memory pool.

The per-cause totals always sum to ``DynamicQueryProcessor.stall_time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.common.errors import SimulationError

STALL_TIMEOUT = "timeout"
STALL_MEMORY_WAIT = "memory-wait"
STALL_NO_SCHEDULABLE = "no-schedulable-qf"
STALL_ADMISSION_WAIT = "admission-wait"
_SOURCE_PREFIX = "source-wait:"


def source_wait(source: str) -> str:
    """The attribution category for an idle wait on wrapper ``source``."""
    return f"{_SOURCE_PREFIX}{source}"


def is_source_wait(cause: str) -> bool:
    return cause.startswith(_SOURCE_PREFIX)


@dataclass(frozen=True)
class StallInterval:
    """One attributed idle interval."""

    started: float
    ended: float
    cause: str

    @property
    def duration(self) -> float:
        return self.ended - self.started


class StallAttribution:
    """Accumulates the per-cause totals of attributed idle intervals.

    The intervals themselves are not kept — a long-lived machine records
    them without end; an observer that wants each one (the flight
    recorder) hooks :attr:`on_record`.
    """

    def __init__(self) -> None:
        self.breakdown: Dict[str, float] = {}
        #: optional observer invoked after each recorded interval (the
        #: flight recorder hooks in here); must not raise.
        self.on_record: Optional[Callable[[StallInterval], None]] = None

    def record(self, cause: str, started: float, ended: float) -> None:
        """Attribute the idle interval ``[started, ended]`` to ``cause``."""
        if ended < started:
            raise SimulationError(
                f"stall interval ends before it starts: {started} > {ended}")
        self.breakdown[cause] = (self.breakdown.get(cause, 0.0)
                                 + (ended - started))
        # The interval object exists only for an observer to keep.
        if self.on_record is not None:
            self.on_record(StallInterval(started, ended, cause))

    def by_cause(self) -> Dict[str, float]:
        """Per-cause totals, largest first."""
        return dict(sorted(self.breakdown.items(),
                           key=lambda item: (-item[1], item[0])))

    def __repr__(self) -> str:
        return (f"StallAttribution({len(self.breakdown)} causes, "
                f"total={sum(self.breakdown.values()):.6g}s)")
