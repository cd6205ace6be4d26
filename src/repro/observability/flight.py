"""The flight recorder: a bounded post-mortem buffer for live runs.

A wall-clock run is opaque while it is happening and gone when it
crashes — exactly when you need its history most.  The flight recorder
keeps the last *N* observability events (batches, scheduler decisions,
attributed stalls, periodic samples, phase markers) in a ring buffer
with negligible overhead, and dumps them — as a loadable JSON
post-mortem plus a ``chrome://tracing`` timeline — when something goes
wrong:

* the :class:`StallWatchdog` fires because the run made no progress for
  ``stall_after`` wall seconds, or exceeded its ``deadline``;
* the engine crashes (the live engine dumps with ``reason="crash"``);
* the caller asks for one explicitly (:meth:`FlightRecorder.dump`).

The recorder is backend-agnostic plain Python: entries carry the kernel
time at which they happened, and recording is a deque append under a
lock (the watchdog thread reads while the engine thread writes).  When
no recorder is attached (``Telemetry.flight is None``) instrumented
paths pay a single attribute check.
"""

from __future__ import annotations

import math
import threading
import time as _time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Union

from repro.common.errors import ConfigurationError

#: bumped on incompatible dump layout changes.
DUMP_VERSION = 1

#: entry kinds the runtime records.
ENTRY_BATCH = "batch"
ENTRY_DECISION = "decision"
ENTRY_STALL = "stall"
ENTRY_SAMPLE = "sample"
ENTRY_PHASE = "phase"


@dataclass(frozen=True)
class FlightEntry:
    """One recorded moment: kernel time, kind, and a plain-data payload."""

    time: float
    kind: str
    payload: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind, "payload": self.payload}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlightEntry":
        return cls(time=data["time"], kind=data["kind"],
                   payload=dict(data["payload"]))


class FlightRecorder:
    """Bounded ring buffer of recent observability events.

    ``capacity`` bounds memory: the buffer holds the *most recent*
    entries, which is what a post-mortem needs.  :meth:`record` is safe
    to call from the engine thread while the watchdog thread dumps.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ConfigurationError(
                f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Deque[FlightEntry] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0
        #: wall-clock time of the last *progress* entry (a batch); the
        #: stall watchdog watches this.
        self.last_progress_wall = _time.monotonic()
        #: the most recent live snapshot dict, folded into dumps.
        self.latest_snapshot: Optional[Dict[str, Any]] = None

    # -- recording ---------------------------------------------------------
    def record(self, kind: str, time: float, **payload: Any) -> None:
        """Append one entry (drops the oldest beyond ``capacity``)."""
        entry = FlightEntry(time=time, kind=kind, payload=payload)
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
            if kind == ENTRY_BATCH:
                self.last_progress_wall = _time.monotonic()

    def record_decision(self, record: Any) -> None:
        """Audit-log observer: one entry per scheduler decision."""
        self.record(ENTRY_DECISION, record.time, name=record.kind,
                    subject=record.subject)

    def attach(self, telemetry: Any) -> "FlightRecorder":
        """Hook into a world's telemetry feeds (audit log and stalls)."""
        telemetry.flight = self
        telemetry.audit.on_record = self.record_decision
        telemetry.stalls.on_record = lambda interval: self.record(
            ENTRY_STALL, interval.ended, cause=interval.cause,
            duration=interval.duration)
        return self

    def touch(self) -> None:
        """Mark forward progress without recording an entry."""
        self.last_progress_wall = _time.monotonic()

    def entries(self) -> List[FlightEntry]:
        """A stable copy of the buffered entries, oldest first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- dumping -----------------------------------------------------------
    def dump(self, path: Union[str, Path], reason: str,
             error: Optional[str] = None) -> Path:
        """Write the JSON post-mortem (and a chrome-trace sibling).

        Returns the JSON path; the timeline lands next to it with a
        ``.trace.json`` suffix.  Loadable via :func:`load_flight_dump`.
        """
        from repro.observability.export import (
            write_json_document,
            write_trace_document,
        )

        entries = self.entries()
        path = write_json_document({
            "version": DUMP_VERSION,
            "reason": reason,
            "error": error,
            "capacity": self.capacity,
            "recorded": self._recorded,
            "dropped": max(0, self._recorded - len(entries)),
            "entries": [entry.to_dict() for entry in entries],
            "snapshot": self.latest_snapshot,
        }, path)
        write_trace_document(path.with_suffix(".trace.json"),
                             flight_trace_events(entries))
        return path

    def __repr__(self) -> str:
        return (f"FlightRecorder({len(self._entries)}/{self.capacity} "
                f"entries, recorded={self._recorded})")


def flight_trace_events(entries: List[FlightEntry]) -> List[Dict[str, Any]]:
    """Chrome Trace Event list for a flight-recorder entry sequence.

    Stalls render as spans (they have a duration), everything else as
    instants; each kind gets its own lane so the timeline reads like a
    strip chart of the run's last moments.
    """
    from repro.observability.export import (
        trace_instant_event,
        trace_span_event,
        trace_thread_name,
    )

    lanes = {ENTRY_BATCH: 1, ENTRY_STALL: 2, ENTRY_DECISION: 3,
             ENTRY_SAMPLE: 4, ENTRY_PHASE: 5}
    events = [trace_thread_name(tid, kind) for kind, tid in lanes.items()]
    for entry in entries:
        tid = lanes.setdefault(entry.kind, len(lanes) + 1)
        if entry.kind == ENTRY_STALL and "duration" in entry.payload:
            duration = float(entry.payload["duration"])
            events.append(trace_span_event(
                str(entry.payload.get("cause", "stall")), entry.kind,
                entry.time - duration, duration, tid, dict(entry.payload)))
        else:
            events.append(trace_instant_event(
                str(entry.payload.get("name", entry.kind)), entry.kind,
                entry.time, tid, dict(entry.payload)))
    return events


def load_flight_dump(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a dump written by :meth:`FlightRecorder.dump`.

    Returns the dump dict with ``entries`` upgraded to
    :class:`FlightEntry` objects.  Raises :class:`ConfigurationError`
    on a missing, truncated or alien file.
    """
    from repro.observability.export import load_json_document

    data: Dict[str, Any] = load_json_document(
        path, "flight-recorder dump", keys=("entries",), version=DUMP_VERSION)
    data["entries"] = [FlightEntry.from_dict(entry)
                       for entry in data["entries"]]
    return data


class StallWatchdog:
    """Background thread that dumps (and aborts) a wedged live run.

    Fires when either condition holds:

    * no progress entry (batch) for ``stall_after`` wall seconds;
    * total wall time exceeds ``deadline`` seconds.

    On firing it dumps the recorder to ``dump_path`` with a reason of
    ``"stall"`` or ``"deadline"`` and invokes ``on_fire(reason, path)``
    (the live engine cancels the kernel from there).  The watchdog fires
    at most once and is stopped with :meth:`stop` on normal completion.
    """

    def __init__(self, recorder: FlightRecorder,
                 dump_path: Union[str, Path],
                 stall_after: Optional[float] = None,
                 deadline: Optional[float] = None,
                 on_fire: Optional[Callable[[str, Path], None]] = None,
                 poll_interval: float = 0.05):
        if stall_after is None and deadline is None:
            raise ConfigurationError(
                "watchdog needs a stall_after and/or a deadline")
        for name, value in (("stall_after", stall_after),
                            ("deadline", deadline)):
            # `not 0 < value < inf`: a NaN would pass `value <= 0` and arm
            # a watchdog that never fires.
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"watchdog {name} must be positive and finite, "
                    f"got {value}")
        self.recorder = recorder
        self.dump_path = Path(dump_path)
        self.stall_after = stall_after
        self.deadline = deadline
        self.on_fire = on_fire
        self.poll_interval = poll_interval
        self.fired_reason: Optional[str] = None
        self._started_wall = _time.monotonic()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            raise ConfigurationError("watchdog started twice")
        self._started_wall = _time.monotonic()
        self.recorder.touch()
        self._thread = threading.Thread(target=self._run,
                                        name="flight-watchdog", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Disarm and join the watchdog (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _check(self) -> Optional[str]:
        now = _time.monotonic()
        if self.deadline is not None \
                and now - self._started_wall > self.deadline:
            return "deadline"
        if self.stall_after is not None \
                and now - self.recorder.last_progress_wall > self.stall_after:
            return "stall"
        return None

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            reason = self._check()
            if reason is not None:
                self.fired_reason = reason
                path = self.recorder.dump(self.dump_path, reason=reason)
                if self.on_fire is not None:
                    self.on_fire(reason, path)
                return
