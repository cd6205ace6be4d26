"""Causal span tracing: one tree of timed spans per query.

Where the flight recorder keeps *the last N moments* of a live run, the
span recorder keeps the *whole causal structure* of one execution: the
query span at the root, planning and execution phases below it, fragment
lifecycles (PC / MF / CF / continuation), and — at the leaves — the
individual scheduling batches and attributed stall intervals the DQP
processed.  Besides the parent/child containment links, spans carry an
optional **caused-by** edge pointing at the event that triggered them: a
replanning phase caused by a lease grow, a query span caused by the
admission wait that delayed its launch.

Recording is pure bookkeeping — a list append stamped with the kernel
clock (:attr:`Kernel.now`), never a scheduled event, an RNG draw, or a
lock — so it works identically on the virtual-time and asyncio
wall-clock backends and cannot perturb event order: a seeded run is
bit-identical with spans on or off.  The hot paths reach the recorder
through the compiled hook table in :mod:`repro.observability.hooks`, so
a disabled recorder costs the DQP batch loop nothing but one truthiness
check.

Exports: :func:`spans_payload` (JSON, versioned) and
:func:`span_trace_events` (``chrome://tracing``); :meth:`write_json`
writes both, mirroring the flight recorder's dump convention.  The
critical-path analyzer over these spans lives in
:mod:`repro.observability.explain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: bumped on incompatible span-export layout changes.
SPANS_VERSION = 1

#: span kinds the runtime records.
SPAN_QUERY = "query"                    #: one query, submit to EndOfQEP
SPAN_PLANNING = "planning"              #: one DQS planning phase
SPAN_EXEC_PHASE = "exec-phase"          #: one DQP execution phase
SPAN_FRAGMENT = "fragment"              #: one fragment, first batch to done
SPAN_BATCH = "batch"                    #: one DQP scheduling batch
SPAN_STALL = "stall"                    #: one attributed DQP stall interval
SPAN_ADMISSION_WAIT = "admission-wait"  #: queued at the admission controller
SPAN_LEASE_GROW = "lease-grow"          #: broker grew the query's lease
SPAN_BUDGET_REPLAN = "budget-replan"    #: replanning forced by a BudgetGrow
SPAN_RATE_REPLAN = "rate-replan"        #: replanning forced by a RateChange


@dataclass(slots=True)
class Span:
    """One timed interval in the causal tree.

    ``end`` is ``None`` while the span is open (and for instant spans
    that were never finished — exports clamp those to the last known
    time).  ``caused_by`` names the span that *triggered* this one,
    which is distinct from the ``parent_id`` containment edge.  Slotted:
    a traced run keeps one per batch and per stall.
    """

    span_id: int
    kind: str
    name: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    caused_by: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id, "kind": self.kind, "name": self.name,
            "start": self.start, "end": self.end,
            "parent_id": self.parent_id, "caused_by": self.caused_by,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(span_id=data["span_id"], kind=data["kind"],
                   name=data["name"], start=data["start"], end=data["end"],
                   parent_id=data.get("parent_id"),
                   caused_by=data.get("caused_by"),
                   attrs=dict(data.get("attrs", {})))


class SpanRecorder:
    """Records the span tree of one (or several co-located) queries.

    The recorder is bound to a kernel for its clock only; it never
    schedules anything.  Span ids are assigned in recording order, so a
    deterministic simulation produces a deterministic span list.
    """

    def __init__(self, sim: Any):
        self.sim = sim
        self.spans: List[Span] = []
        self._last_of_kind: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------
    def _append(self, kind: str, name: str, start: float,
                end: Optional[float], parent_id: Optional[int],
                caused_by: Optional[int], attrs: Dict[str, Any]) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, kind, name, start, end, parent_id,
                               caused_by, attrs))
        self._last_of_kind[kind] = span_id
        return span_id

    def begin(self, kind: str, name: str, parent_id: Optional[int] = None,
              caused_by: Optional[int] = None, **attrs: Any) -> int:
        """Open a span at the current kernel time; returns its id."""
        return self._append(kind, name, self.sim.now, None, parent_id,
                            caused_by, attrs)

    def finish(self, span_id: int, **attrs: Any) -> None:
        """Close an open span at the current kernel time."""
        span = self.spans[span_id]
        span.end = self.sim.now
        if attrs:
            span.attrs.update(attrs)

    def add(self, kind: str, name: str, start: float, end: float,
            parent_id: Optional[int] = None, caused_by: Optional[int] = None,
            **attrs: Any) -> int:
        """Record a finished interval retrospectively (batches, stalls)."""
        return self._append(kind, name, start, end, parent_id, caused_by,
                            attrs)

    def instant(self, kind: str, name: str, parent_id: Optional[int] = None,
                caused_by: Optional[int] = None, **attrs: Any) -> int:
        """Record a zero-length marker span at the current kernel time."""
        now = self.sim.now
        return self._append(kind, name, now, now, parent_id, caused_by, attrs)

    def last(self, kind: str) -> Optional[int]:
        """Id of the most recently recorded span of ``kind``, if any."""
        return self._last_of_kind.get(kind)

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    # -- export ------------------------------------------------------------
    def write_json(self, path: Union[str, Path]) -> Path:
        """Write the JSON export plus a ``.trace.json`` chrome sibling."""
        return write_spans_json(self.spans, path)

    def __repr__(self) -> str:
        return f"SpanRecorder({len(self.spans)} spans)"


def spans_payload(spans: List[Span]) -> Dict[str, Any]:
    """The versioned export document (read back by :func:`load_spans`)."""
    return {
        "version": SPANS_VERSION,
        "clock": "kernel-seconds",
        "spans": [span.to_dict() for span in spans],
    }


def write_spans_json(spans: List[Span],
                     path: Union[str, Path]) -> Path:
    """Write a span list as the JSON export plus its chrome sibling.

    Works on a live recorder's spans or a list rebuilt from a payload
    (``repro run --spans-out`` exports the result's shipped span list).
    """
    from repro.observability.export import (
        write_json_document,
        write_trace_document,
    )

    path = write_json_document(spans_payload(spans), path)
    write_trace_document(path.with_suffix(".trace.json"),
                         span_trace_events(spans))
    return path


def load_spans(path: Union[str, Path]) -> List[Span]:
    """Load a span export written by :meth:`SpanRecorder.write_json`."""
    from repro.observability.export import load_json_document

    data = load_json_document(path, "span export", keys=("spans",),
                              version=SPANS_VERSION)
    return [Span.from_dict(span) for span in data["spans"]]


#: chrome-trace lane per span kind, one thread id each so the timeline
#: reads top-down: query, phases, fragments, batches, stalls, causes.
_TRACE_LANES = {
    SPAN_QUERY: 1, SPAN_PLANNING: 2, SPAN_EXEC_PHASE: 2, SPAN_FRAGMENT: 3,
    SPAN_BATCH: 4, SPAN_STALL: 5, SPAN_ADMISSION_WAIT: 6, SPAN_LEASE_GROW: 6,
    SPAN_BUDGET_REPLAN: 6, SPAN_RATE_REPLAN: 6,
}


def span_trace_events(spans: List[Span]) -> List[Dict[str, Any]]:
    """Chrome Trace Event list for a span tree.

    Finished spans render as complete ("X") events; open or zero-length
    spans as instants.  The caused-by edges become flow events ("s"/"f")
    so ``chrome://tracing`` draws an arrow from cause to effect.
    """
    from repro.observability.export import (
        trace_flow_events,
        trace_instant_event,
        trace_span_event,
        trace_thread_name,
    )

    last_time = max((span.end for span in spans if span.end is not None),
                    default=0.0)
    lanes = dict(_TRACE_LANES)
    events: List[Dict[str, Any]] = []
    seen_lanes: Dict[int, str] = {}
    for span in spans:
        tid = lanes.setdefault(span.kind, max(lanes.values(), default=0) + 1)
        seen_lanes.setdefault(tid, span.kind)
        start = span.start
        end = span.end if span.end is not None else last_time
        args = {"span_id": span.span_id, **span.attrs}
        if span.caused_by is not None:
            args["caused_by"] = span.caused_by
        if end > start:
            events.append(trace_span_event(span.name, span.kind, start,
                                           end - start, tid, args))
        else:
            events.append(trace_instant_event(span.name, span.kind, start,
                                              tid, args))
        if span.caused_by is not None and 0 <= span.caused_by < len(spans):
            cause = spans[span.caused_by]
            events.extend(trace_flow_events(
                span.span_id, cause.start, lanes.get(cause.kind, 1),
                start, tid))
    metadata = [trace_thread_name(tid, kind)
                for tid, kind in sorted(seen_lanes.items())]
    return metadata + events
