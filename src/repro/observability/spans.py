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

Recording is pure bookkeeping — one row appended to the columns of a
:class:`SpanTable`, stamped with the kernel clock (:attr:`Kernel.now`),
never a scheduled event, an RNG draw, or a lock — so it works
identically on the virtual-time and asyncio wall-clock backends and
cannot perturb event order: a seeded run is bit-identical with spans on
or off.  The hot paths reach the recorder
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

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
    overload,
)

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
    """One timed interval in the causal tree, as a plain value.

    ``end`` is ``None`` while the span is open (and for instant spans
    that were never finished — exports clamp those to the last known
    time).  ``caused_by`` names the span that *triggered* this one,
    which is distinct from the ``parent_id`` containment edge.  A
    recorder keeps its spans as the columns of a :class:`SpanTable` and
    builds a ``Span`` per row on read: changing one changes nothing
    recorded.
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


#: kind codes of the hot rows the compiled DQP hooks append; their
#: attrs live in the columns, not in a dict.
KIND_BATCH = 0
KIND_STALL = 1
#: the kinds every table knows, in code order; others get the next code.
_KINDS = (SPAN_BATCH, SPAN_STALL, SPAN_QUERY, SPAN_PLANNING,
          SPAN_EXEC_PHASE, SPAN_FRAGMENT, SPAN_ADMISSION_WAIT,
          SPAN_LEASE_GROW, SPAN_BUDGET_REPLAN, SPAN_RATE_REPLAN)
#: the parent / caused-by column's "none".
NO_SPAN = -1
#: the end column's "still open".
OPEN = float("nan")


class SpanTable(Sequence[Span]):
    """A recorder's spans as parallel columns, one row per span id.

    A batch or stall row costs one kind byte, a shared name reference,
    ``array('d')`` start and end (NaN while open), ``array('q')`` parent
    and caused-by ids (:data:`NO_SPAN` for none), the batch's tuple
    count and a fragment-kind byte.  Only rows written through
    :meth:`append` (the rare kinds: query, planning, phases, fragments,
    leases, admission waits, replans) keep an ``attrs`` dict; a batch's
    ``fragment_kind`` / ``tuples`` and a stall's ``cause`` are rebuilt
    from the columns on read, in the order the hooks used to write them.

    As a sequence the table is read-only: indexing or iterating builds a
    fresh :class:`Span` per row.
    """

    __slots__ = ("kinds", "kind_codes", "kind", "name", "start", "end",
                 "parent", "caused_by", "tuples", "fragment_kind",
                 "fragment_kinds", "fragment_kind_codes", "attrs")

    def __init__(self) -> None:
        self.kinds: List[str] = list(_KINDS)
        self.kind_codes: Dict[str, int] = {
            kind: code for code, kind in enumerate(_KINDS)}
        self.kind = bytearray()
        self.name: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.caused_by = array("q")
        self.tuples = array("q")
        self.fragment_kind = bytearray()
        self.fragment_kinds: List[str] = []
        self.fragment_kind_codes: Dict[str, int] = {}
        #: the attrs of every row written through :meth:`append`.
        self.attrs: Dict[int, Dict[str, Any]] = {}

    # -- writing -----------------------------------------------------------
    def append(self, kind: str, name: str, start: float,
               end: Optional[float], parent_id: Optional[int],
               caused_by: Optional[int], attrs: Dict[str, Any]) -> int:
        """Append one row with its own attrs dict; returns its id."""
        span_id = len(self.kind)
        code = self.kind_codes.get(kind)
        if code is None:
            code = self.kind_codes[kind] = len(self.kinds)
            self.kinds.append(kind)
        self.kind.append(code)
        self.name.append(sys.intern(name))
        self.start.append(start)
        self.end.append(OPEN if end is None else end)
        self.parent.append(NO_SPAN if parent_id is None else parent_id)
        self.caused_by.append(NO_SPAN if caused_by is None else caused_by)
        self.tuples.append(0)
        self.fragment_kind.append(0)
        self.attrs[span_id] = attrs
        return span_id

    def fragment_kind_code(self, value: str) -> int:
        """The fragment-kind byte for ``value``, assigned on first use."""
        code = self.fragment_kind_codes.get(value)
        if code is None:
            code = self.fragment_kind_codes[value] = len(self.fragment_kinds)
            self.fragment_kinds.append(value)
        return code

    def row_hooks(self, phase_of: Callable[[], Optional[int]]
                  ) -> Tuple[Callable[[float, float, Any, int], None],
                             Callable[[float, float, str], None]]:
        """The DQP's ``batch`` and ``stall`` hooks for this table.

        Each appends one row straight to the columns — no ``Span`` and
        no attrs dict — under the execution phase ``phase_of()`` names
        at call time.
        """
        kind = self.kind.append
        name = self.name.append
        start = self.start.append
        end = self.end.append
        parent = self.parent.append
        caused_by = self.caused_by.append
        tuple_count = self.tuples.append
        fragment_kind = self.fragment_kind.append
        known_kind = self.fragment_kind_codes.get
        new_kind = self.fragment_kind_code
        intern = sys.intern

        def batch(started: float, now: float, fragment: Any,
                  tuples: int) -> None:
            phase = phase_of()
            kind(KIND_BATCH)
            name(fragment.name)
            start(started)
            end(now)
            parent(NO_SPAN if phase is None else phase)
            caused_by(NO_SPAN)
            tuple_count(tuples)
            value = fragment.kind.value
            code = known_kind(value)
            fragment_kind(new_kind(value) if code is None else code)

        def stall(started: float, ended: float, cause: str) -> None:
            phase = phase_of()
            kind(KIND_STALL)
            # A source wait's cause string is built per stall: keep one.
            name(intern(cause))
            start(started)
            end(ended)
            parent(NO_SPAN if phase is None else phase)
            caused_by(NO_SPAN)
            tuple_count(0)
            fragment_kind(0)

        return batch, stall

    def subtree(self, root: int) -> List[Span]:
        """Row ``root`` and every row below it, in id order.

        Parents are recorded before their children, so one pass over
        the parent column from ``root`` finds them, and only the rows
        returned are built.
        """
        ids = {root}
        rows = [root]
        for span_id, parent in enumerate(self.parent[root + 1:], root + 1):
            if parent in ids:
                ids.add(span_id)
                rows.append(span_id)
        return [self._row(span_id) for span_id in rows]

    def own_attrs(self, span_id: int) -> Dict[str, Any]:
        """Row ``span_id``'s stored attrs dict, made one if the row had
        its attrs in the columns: the dict a writer may update."""
        attrs = self.attrs.get(span_id)
        if attrs is None:
            attrs = self.attrs[span_id] = self._column_attrs(span_id)
        return attrs

    # -- reading -----------------------------------------------------------
    def _column_attrs(self, span_id: int) -> Dict[str, Any]:
        code = self.kind[span_id]
        if code == KIND_BATCH:
            return {"fragment_kind":
                    self.fragment_kinds[self.fragment_kind[span_id]],
                    "tuples": self.tuples[span_id]}
        if code == KIND_STALL:
            return {"cause": self.name[span_id]}
        return {}

    def _row(self, span_id: int) -> Span:
        end = self.end[span_id]
        parent = self.parent[span_id]
        cause = self.caused_by[span_id]
        attrs = self.attrs.get(span_id)
        return Span(span_id, self.kinds[self.kind[span_id]],
                    self.name[span_id], self.start[span_id],
                    None if end != end else end,
                    None if parent == NO_SPAN else parent,
                    None if cause == NO_SPAN else cause,
                    self._column_attrs(span_id) if attrs is None
                    else dict(attrs))

    def __len__(self) -> int:
        return len(self.kind)

    @overload
    def __getitem__(self, index: int) -> Span: ...

    @overload
    def __getitem__(self, index: slice) -> List[Span]: ...

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        size = len(self.kind)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("span id out of range")
        return self._row(index)

    def __iter__(self) -> Iterator[Span]:
        return map(self._row, range(len(self.kind)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return f"SpanTable({len(self)} spans)"


class SpanRecorder:
    """Records the span tree of one (or several co-located) queries.

    The recorder is bound to a kernel for its clock only; it never
    schedules anything.  Span ids are assigned in recording order, so a
    deterministic simulation produces a deterministic span table.
    """

    def __init__(self, sim: Any):
        self.sim = sim
        self.spans = SpanTable()

    # -- recording ---------------------------------------------------------
    def begin(self, kind: str, name: str, parent_id: Optional[int] = None,
              caused_by: Optional[int] = None, **attrs: Any) -> int:
        """Open a span at the current kernel time; returns its id."""
        return self.spans.append(kind, name, self.sim.now, None, parent_id,
                                 caused_by, attrs)

    def finish(self, span_id: int, **attrs: Any) -> None:
        """Close an open span at the current kernel time."""
        self.spans.end[span_id] = self.sim.now
        if attrs:
            self.annotate(span_id, **attrs)

    def annotate(self, span_id: int, **attrs: Any) -> None:
        """Add (or overwrite) attributes of a recorded span."""
        self.spans.own_attrs(span_id).update(attrs)

    def add(self, kind: str, name: str, start: float, end: float,
            parent_id: Optional[int] = None, caused_by: Optional[int] = None,
            **attrs: Any) -> int:
        """Record a finished interval retrospectively (fragments, waits)."""
        return self.spans.append(kind, name, start, end, parent_id,
                                 caused_by, attrs)

    def instant(self, kind: str, name: str, parent_id: Optional[int] = None,
                caused_by: Optional[int] = None, **attrs: Any) -> int:
        """Record a zero-length marker span at the current kernel time."""
        now = self.sim.now
        return self.spans.append(kind, name, now, now, parent_id, caused_by,
                                 attrs)

    def last(self, kind: str) -> Optional[int]:
        """Id of the most recently recorded span of ``kind``, if any."""
        code = self.spans.kind_codes.get(kind)
        span_id = -1 if code is None else self.spans.kind.rfind(code)
        return None if span_id < 0 else span_id

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    # -- export ------------------------------------------------------------
    def write_json(self, path: Union[str, Path]) -> Path:
        """Write the JSON export plus a ``.trace.json`` chrome sibling."""
        return write_spans_json(self.spans, path)

    def __repr__(self) -> str:
        return f"SpanRecorder({len(self.spans)} spans)"


def spans_payload(spans: Sequence[Span]) -> Dict[str, Any]:
    """The versioned export document (read back by :func:`load_spans`)."""
    return {
        "version": SPANS_VERSION,
        "clock": "kernel-seconds",
        "spans": [span.to_dict() for span in spans],
    }


def write_spans_json(spans: Sequence[Span],
                     path: Union[str, Path]) -> Path:
    """Write spans as the JSON export plus their chrome sibling.

    Works on a recorder's table or a list rebuilt from a payload
    (``repro run --spans-out`` exports the result's table).
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


def span_trace_events(spans: Sequence[Span]) -> List[Dict[str, Any]]:
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
