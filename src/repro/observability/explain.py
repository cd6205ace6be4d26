"""The critical-path analyzer behind ``repro explain``.

The paper's argument is about *where response time goes*; this module
turns a recorded span tree (:mod:`repro.observability.spans`) into that
answer for a single query.  The engine executes on one mediator CPU, so
the query span's timeline **is** the critical path to the final answer:
every instant between submit and EndOfQEP is spent in exactly one leaf
span (a scheduling batch, an attributed stall, a planning phase, an
admission wait) or in the gaps between them (context switches, CPU
queueing — scheduling overhead).  :func:`critical_path` walks the span
DAG, partitions the timeline into those segments, and
:func:`explain_spans` attributes the total to

* ``execution`` — pipelined batch work (PC / CF / continuation),
* ``materialization`` — MF batch work writing temps,
* ``source-wait`` — stalls attributed to a slow wrapper,
* ``memory/admission-wait`` — memory stalls, admission-queue waits,
* ``scheduling-overhead`` — planning phases, timeouts, switch gaps,

with the attributed segments re-summing **exactly** to the query's
response time (a residual-absorption pass pushes float rounding dust
into the scheduling bucket until the left-to-right sum is equal).

The diff half (:func:`format_explanation_diff`) compares two runs and
attributes the delta per category, so "why is SEQ 2.3 s slower than DSE
here" becomes a one-screen answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.observability.spans import (
    SPAN_ADMISSION_WAIT,
    SPAN_BATCH,
    SPAN_PLANNING,
    SPAN_QUERY,
    SPAN_STALL,
    Span,
)
from repro.observability.stalls import (
    STALL_ADMISSION_WAIT,
    STALL_MEMORY_WAIT,
    is_source_wait,
)

#: attribution categories, in report (and exact re-sum) order.
CAT_EXECUTION = "execution"
CAT_MATERIALIZATION = "materialization"
CAT_SOURCE_WAIT = "source-wait"
CAT_MEMORY_WAIT = "memory/admission-wait"
CAT_SCHEDULING = "scheduling-overhead"

CATEGORIES = (CAT_EXECUTION, CAT_MATERIALIZATION, CAT_SOURCE_WAIT,
              CAT_MEMORY_WAIT, CAT_SCHEDULING)

#: leaf span kinds that occupy critical-path time.
_LEAF_KINDS = frozenset(
    {SPAN_BATCH, SPAN_STALL, SPAN_PLANNING, SPAN_ADMISSION_WAIT})


@dataclass(frozen=True)
class Segment:
    """One contiguous critical-path interval with its attribution."""

    start: float
    end: float
    category: str
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Explanation:
    """The attributed critical path of one finished query."""

    name: str
    strategy: str
    response_time: float
    segments: List[Segment]
    #: per-category totals in :data:`CATEGORIES` order; their
    #: left-to-right sum equals ``response_time`` exactly.
    totals: Dict[str, float]

    @property
    def accounted(self) -> float:
        total = 0.0
        for category in CATEGORIES:
            total += self.totals[category]
        return total


def _leaf_category(span: Span) -> str:
    """Attribution category of one leaf span."""
    if span.kind == SPAN_BATCH:
        if span.attrs.get("fragment_kind") == "mf":
            return CAT_MATERIALIZATION
        return CAT_EXECUTION
    if span.kind == SPAN_STALL:
        cause = str(span.attrs.get("cause", span.name))
        if is_source_wait(cause):
            return CAT_SOURCE_WAIT
        if cause in (STALL_MEMORY_WAIT, STALL_ADMISSION_WAIT):
            return CAT_MEMORY_WAIT
        return CAT_SCHEDULING
    if span.kind == SPAN_ADMISSION_WAIT:
        return CAT_MEMORY_WAIT
    return CAT_SCHEDULING  # planning


def _query_root(spans: Sequence[Span],
                query: Optional[str] = None) -> Span:
    roots = [span for span in spans if span.kind == SPAN_QUERY]
    if query is not None:
        roots = [span for span in roots if span.name == query]
    if not roots:
        raise ConfigurationError(
            "no query span in the export"
            + (f" matching {query!r}" if query else "")
            + " (was the run recorded with spans enabled?)")
    return roots[0]


def _descendant_ids(spans: Sequence[Span], root_id: int) -> set:
    children: Dict[Optional[int], List[int]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span.span_id)
    ids = set()
    frontier = [root_id]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in ids:
                ids.add(child)
                frontier.append(child)
    return ids


def critical_path(spans: Sequence[Span],
                  query: Optional[str] = None) -> List[Segment]:
    """Partition the query span's timeline into attributed segments.

    Leaf spans (batches, stalls, planning phases, admission waits) under
    the query root claim their intervals; every uncovered gap becomes a
    ``scheduling-overhead`` segment.  Segments tile ``[t0, T]`` with no
    overlap, so their durations account for the whole response time.
    """
    spans = list(spans)  # read a span table's rows once, not per pass
    root = _query_root(spans, query)
    t0 = root.start
    horizon = root.end if root.end is not None else max(
        (s.end for s in spans if s.end is not None), default=t0)
    inside = _descendant_ids(spans, root.span_id)
    inside.add(root.span_id)
    leaves = sorted(
        (s for s in spans
         if s.kind in _LEAF_KINDS and s.end is not None
         and (s.span_id in inside or s.parent_id is None)),
        key=lambda s: (s.start, s.span_id))

    segments: List[Segment] = []
    cursor = t0

    def emit(start: float, end: float, category: str, label: str) -> None:
        if end <= start:
            return
        last = segments[-1] if segments else None
        if (last is not None and last.category == category
                and last.label == label and last.end == start):
            segments[-1] = Segment(last.start, end, category, label)
        else:
            segments.append(Segment(start, end, category, label))

    for leaf in leaves:
        start = max(leaf.start, cursor)
        end = min(leaf.end if leaf.end is not None else horizon, horizon)
        if end <= cursor:
            continue
        if start > cursor:
            emit(cursor, start, CAT_SCHEDULING, "engine")
        emit(start, end, _leaf_category(leaf), leaf.name)
        cursor = end
    if cursor < horizon:
        emit(cursor, horizon, CAT_SCHEDULING, "engine")
    return segments


def explain_spans(spans: Sequence[Span], query: Optional[str] = None,
                  strategy: str = "") -> Explanation:
    """Build the attributed critical path of one recorded query.

    The per-category totals re-sum *exactly* (float equality) to the
    response time: rounding dust from the segment additions is absorbed
    into the ``scheduling-overhead`` bucket, which by construction is
    the engine's own bookkeeping time.
    """
    spans = list(spans)  # read a span table's rows once, not per pass
    root = _query_root(spans, query)
    horizon = root.end if root.end is not None else max(
        (s.end for s in spans if s.end is not None), default=root.start)
    response_time = horizon - root.start
    segments = critical_path(spans, query)
    totals = {category: 0.0 for category in CATEGORIES}
    for segment in segments:
        totals[segment.category] += segment.duration
    # Exact re-sum: left-to-right float addition of the five category
    # totals rarely lands on ``response_time`` to the last ulp.  The
    # rounding dust (ulps at most) is charged to scheduling overhead by
    # replacing its total with ``response_time - partial`` where
    # ``partial`` is the same left-to-right sum of the other four: by
    # Sterbenz's lemma the subtraction is exact whenever ``partial`` is
    # within a factor of two of ``response_time`` (always, in practice —
    # engine bookkeeping is never half the response time), making
    # ``partial + (response_time - partial)`` bit-equal to
    # ``response_time``.  An incremental fallback covers the remainder.
    partial = 0.0
    for category in CATEGORIES[:-1]:
        partial += totals[category]
    totals[CAT_SCHEDULING] = response_time - partial
    for _ in range(8):
        accounted = 0.0
        for category in CATEGORIES:
            accounted += totals[category]
        residual = response_time - accounted
        if residual == 0.0:
            break
        totals[CAT_SCHEDULING] += residual
    return Explanation(
        name=root.name,
        strategy=strategy or str(root.attrs.get("strategy", "")),
        response_time=response_time,
        segments=segments,
        totals=totals)


# -- rendering -------------------------------------------------------------

def _bar(fraction: float, width: int = 24) -> str:
    return "#" * max(0, min(width, round(fraction * width)))


def format_explanation(explanation: Explanation,
                       top_segments: int = 8) -> str:
    """One-screen text rendering of an attributed critical path."""
    lines = []
    title = explanation.name or "query"
    strategy = f" ({explanation.strategy})" if explanation.strategy else ""
    lines.append(f"critical path: {title}{strategy}  "
                 f"response time {explanation.response_time:.3f}s")
    lines.append("")
    rt = explanation.response_time
    for category in CATEGORIES:
        value = explanation.totals[category]
        fraction = value / rt if rt > 0 else 0.0
        lines.append(f"  {category:<22} {value:>9.3f}s  {fraction:>6.1%}  "
                     f"{_bar(fraction)}")
    exact = explanation.accounted == explanation.response_time
    lines.append(f"  {'= response time':<22} {explanation.accounted:>9.3f}s"
                 f"  ({'exact' if exact else 'residual!'})")
    longest = sorted(explanation.segments,
                     key=lambda s: -s.duration)[:top_segments]
    if longest:
        lines.append("")
        lines.append("longest critical-path segments:")
        for segment in longest:
            lines.append(
                f"  {segment.duration:>9.3f}s  {segment.category:<22} "
                f"{segment.label:<18} [{segment.start:.3f} → "
                f"{segment.end:.3f}]")
    return "\n".join(lines)


def format_explanation_diff(base: Explanation,
                            other: Explanation) -> str:
    """Attribute the response-time delta between two runs per category."""
    base_name = base.strategy or base.name or "base"
    other_name = other.strategy or other.name or "other"
    delta_rt = other.response_time - base.response_time
    lines = [f"span diff: {base_name} ({base.response_time:.3f}s) vs "
             f"{other_name} ({other.response_time:.3f}s)  "
             f"delta {delta_rt:+.3f}s", ""]
    lines.append(f"  {'category':<22} {base_name:>12} {other_name:>12} "
                 f"{'delta':>10}")
    for category in CATEGORIES:
        a = base.totals[category]
        b = other.totals[category]
        lines.append(f"  {category:<22} {a:>11.3f}s {b:>11.3f}s "
                     f"{b - a:>+9.3f}s")
    biggest = max(CATEGORIES,
                  key=lambda c: abs(other.totals[c] - base.totals[c]))
    lines.append("")
    lines.append(f"largest contributor to the delta: {biggest} "
                 f"({other.totals[biggest] - base.totals[biggest]:+.3f}s)")
    return "\n".join(lines)


def span_summary(spans: Sequence[Span]) -> Dict[str, Any]:
    """The compact summary shipped through pool/cache payloads.

    Carries the per-category critical-path attribution and span counts —
    enough for sweep-level analysis without serializing every batch span.
    """
    try:
        explanation = explain_spans(spans)
    except ConfigurationError:
        return {"spans": len(spans), "totals": None, "response_time": None}
    return {
        "spans": len(spans),
        "response_time": explanation.response_time,
        "totals": {category: explanation.totals[category]
                   for category in CATEGORIES},
    }
