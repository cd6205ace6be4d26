"""The span table: spans kept as columns, read back as ``Span`` values.

Pinned here:

* every export of a seeded, spans-on multi-query run (the JSON payload,
  the chrome trace, each query's critical path, the summary, the files
  ``write_spans_json`` writes and what ``load_spans`` reads back) is
  byte-identical to what the list-of-``Span`` recorder produced — the
  digests below were taken from it;
* a ``Span`` read from the table is a value: changing it changes
  nothing recorded;
* a batch or stall row written through the compiled hooks costs at most
  80 bytes, counted by ``tracemalloc`` (a ``Span`` with its own attrs
  dict was about 345).
"""

import dataclasses
import hashlib
import json
import tracemalloc

import pytest

from repro.config import SimulationParameters
from repro.observability import (
    SPAN_BATCH,
    SPAN_QUERY,
    SPAN_STALL,
    SpanRecorder,
    compile_dqp_hooks,
    explain_spans,
    load_spans,
    source_wait,
    span_summary,
    span_trace_events,
    write_spans_json,
)
from repro.observability.spans import spans_payload
from repro.observability.telemetry import Telemetry
from repro.parallel.spec import MultiQuerySpec

MB = 1024 * 1024

#: sha256 prefixes of each export of the quick tightmem run at seed 1,
#: as the list-of-``Span`` recorder wrote them.
PINNED = {
    "DSE": {"spans": 1382, "payload": "5d08fffa96304448",
            "trace": "2dc657d39f4f6bdf", "explain": "1e69c154c168224b",
            "summary": "8665acde2234c121", "file": "60864b9d212fb343",
            "chrome": "980ed8c2b68c560d", "loaded": "d23dbe5d9f29afbc"},
    "MA": {"spans": 1680, "payload": "c46fdd647a3838e3",
           "trace": "c65b0d41c2907b25", "explain": "5e72db03a624ca44",
           "summary": "2ba4b79e407ea0a5", "file": "73bb866d03f93023",
           "chrome": "43335cedf0bda04c", "loaded": "98374f8caa586684"},
}


def _tightmem_quick(strategy, seed=1):
    """Eight staggered queries in a shrunken pool with spans on: the
    ``sim_multiquery_tightmem`` benchmark configuration at quick size."""
    shrink = 0.04
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_spans=True,
                                  dynamic_budget_replanning=True)
    return MultiQuerySpec(
        strategy, 4 * params.w_min, 8, seed + 2, 0.5 * shrink,
        inter_arrival=0.05, params=params,
        memory_bytes=int(4.0 * MB * shrink),
        min_memory_bytes=int(3.7 * MB * shrink),
        max_memory_bytes=int(8 * MB * shrink),
        global_memory_bytes=int(10 * MB * shrink),
        admission="priority").execute()


def _digest(document):
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()[:16]


def _file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("strategy", sorted(PINNED))
def test_every_export_is_byte_identical(strategy, tmp_path):
    spans = _tightmem_quick(strategy).spans
    queries = [span.name for span in spans if span.kind == SPAN_QUERY]
    path = write_spans_json(spans, tmp_path / "spans.json")
    seen = {
        "spans": len(spans),
        "payload": _digest(spans_payload(spans)),
        "trace": _digest(span_trace_events(spans)),
        "explain": _digest([dataclasses.asdict(explain_spans(spans, query))
                            for query in queries]),
        "summary": _digest(span_summary(spans)),
        "file": _file_digest(path),
        "chrome": _file_digest(path.with_suffix(".trace.json")),
        "loaded": _digest(spans_payload(load_spans(path))),
    }
    assert seen == PINNED[strategy]


def test_the_result_holds_the_recorders_table_not_a_copy():
    result = _tightmem_quick("DSE")
    assert type(result.spans).__name__ == "SpanTable"
    assert result.spans == list(result.spans)
    assert result.spans[-1] == list(result.spans)[-1]
    assert result.spans[1:3] == list(result.spans)[1:3]
    with pytest.raises(IndexError):
        result.spans[len(result.spans)]


class _Clock:
    def __init__(self):
        self.now = 0.0


class _Kind:
    def __init__(self, value):
        self.value = value


class _Fragment:
    def __init__(self, name, kind):
        self.name = name
        self.kind = _Kind(kind)


def _hooked_recorder(phase=3):
    telemetry = Telemetry()
    recorder = telemetry.spans = SpanRecorder(_Clock())
    hooks = compile_dqp_hooks(telemetry, phase_span_of=lambda: phase)
    (batch,), (stall,) = hooks.batch, hooks.stall
    return recorder, batch, stall


def test_a_span_read_from_the_table_is_a_value():
    recorder, batch, stall = _hooked_recorder()
    root = recorder.begin(SPAN_QUERY, "q", chains=2)
    batch(0.0, 0.5, _Fragment("pA", "mf"), 64)
    stall(0.5, 1.0, source_wait("A"))
    recorded = list(recorder.spans)
    for span in recorder.spans:
        span.attrs["strategy"] = "changed"
        span.end = 99.0
        span.parent_id = 42
    assert list(recorder.spans) == recorded
    assert recorded[root].end is None and recorded[root].attrs == {
        "chains": 2}
    assert recorded[1].attrs == {"fragment_kind": "mf", "tuples": 64}
    assert recorded[2].attrs == {"cause": "source-wait:A"}
    # Writes go through the recorder.
    recorder.annotate(root, strategy="DSE")
    recorder.finish(root, result_tuples=7)
    assert recorder.spans[root].attrs == {
        "chains": 2, "strategy": "DSE", "result_tuples": 7}
    assert recorder.spans[root].end == 0.0
    recorder.annotate(1, note="x")
    assert recorder.spans[1].attrs == {
        "fragment_kind": "mf", "tuples": 64, "note": "x"}
    assert recorder.last(SPAN_STALL) == 2 and recorder.last(SPAN_BATCH) == 1


def test_hook_rows_cost_at_most_80_bytes_each():
    """20,000 batch and stall rows through the compiled hooks, counted
    by tracemalloc: each stall's cause is a fresh string, as the DQP
    builds it, so the count also covers the name column."""
    rows = 20_000
    recorder, batch, stall = _hooked_recorder()
    fragments = [_Fragment(name, kind) for name, kind in
                 (("pA", "pc"), ("mB", "mf"), ("cB", "cf"))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(rows // 2):
            t = i * 1e-3
            batch(t, t + 5e-4, fragments[i % 3], i)
            stall(t + 5e-4, t + 1e-3, source_wait("ABC"[i % 3]))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / rows <= 80, f"{held / rows:.1f} bytes a span row"
    assert len(recorder) == rows
    spans = list(recorder.spans)
    assert [span.span_id for span in spans] == list(range(rows))
    assert [span.kind for span in spans[:2]] == [SPAN_BATCH, SPAN_STALL]
    assert spans[-2].attrs == {"fragment_kind": "pc",
                               "tuples": rows // 2 - 1}
    assert spans[-1].name == "source-wait:A" and spans[-1].parent_id == 3
