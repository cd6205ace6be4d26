"""Causal span tracing: recorder, compiled hooks, critical path, exports.

The acceptance behaviour pinned here:

* the span recorder is pure bookkeeping — a seeded run is bit-identical
  with spans on or off;
* the recorded tree has the paper's causal shape (query → planning /
  exec phases → fragments → batches and stalls, caused-by edges from
  planning to the replan trigger and from a query to its admission
  wait);
* the critical-path analyzer's attributed categories re-sum **exactly**
  (float equality) to the response time, live and after a JSON
  round-trip;
* the compiled hook table is the shared ``NULL_HOOKS`` no-op when every
  observability channel is off.
"""

import json

import pytest

from repro.config import SimulationParameters
from repro.core.engine import QueryEngine
from repro.core.strategies import make_policy
from repro.experiments import figure5_workload
from repro.observability import (
    NULL_HOOKS,
    SPAN_ADMISSION_WAIT,
    SPAN_BATCH,
    SPAN_EXEC_PHASE,
    SPAN_FRAGMENT,
    SPAN_PLANNING,
    SPAN_QUERY,
    SPAN_STALL,
    Span,
    SpanRecorder,
    compile_dqp_hooks,
    explain_spans,
    format_explanation,
    format_explanation_diff,
    load_spans,
    span_summary,
    span_trace_events,
    write_spans_json,
)
from repro.observability.explain import (
    CAT_EXECUTION,
    CAT_MATERIALIZATION,
    CAT_SOURCE_WAIT,
    CATEGORIES,
    critical_path,
)
from repro.observability.spans import spans_payload
from repro.observability.telemetry import Telemetry
from repro.wrappers.delays import UniformDelay

SCALE = 0.05


class _Clock:
    def __init__(self):
        self.now = 0.0


# --------------------------------------------------------------------------
# SpanRecorder mechanics
# --------------------------------------------------------------------------

def test_begin_finish_builds_a_parented_span():
    clock = _Clock()
    recorder = SpanRecorder(clock)
    root = recorder.begin(SPAN_QUERY, "q", chains=3)
    clock.now = 1.0
    child = recorder.begin(SPAN_PLANNING, "planning-1", parent_id=root)
    clock.now = 1.5
    recorder.finish(child, fragments=4)
    clock.now = 2.0
    recorder.finish(root)

    assert len(recorder) == 2
    query, planning = recorder.spans
    assert (query.start, query.end) == (0.0, 2.0)
    assert query.attrs == {"chains": 3}
    assert planning.parent_id == root
    assert planning.end - planning.start == 0.5
    assert planning.attrs == {"fragments": 4}
    assert [s for s in recorder.spans if s.parent_id == root] == [planning]
    assert [s for s in recorder.spans if s.parent_id is None] == [query]


def test_add_instant_last_and_set_cause():
    clock = _Clock()
    recorder = SpanRecorder(clock)
    clock.now = 3.0
    marker = recorder.instant("lease-grow", "q2", granted_bytes=64)
    assert recorder.spans[marker].end == recorder.spans[marker].start
    assert recorder.last("lease-grow") == marker

    batch = recorder.add(SPAN_BATCH, "pA", 1.0, 2.0, tuples=50)
    assert [span for span in recorder.spans if span.kind == SPAN_BATCH] == [recorder.spans[batch]]
    assert recorder.last("never-recorded") is None


def test_payload_roundtrip_preserves_every_field():
    clock = _Clock()
    recorder = SpanRecorder(clock)
    root = recorder.begin(SPAN_QUERY, "q")
    clock.now = 1.0
    recorder.add(SPAN_STALL, "timeout", 0.25, 0.75, parent_id=root,
                 cause="timeout")
    recorder.finish(root)

    rebuilt = [Span.from_dict(row)
               for row in spans_payload(recorder.spans)["spans"]]
    assert [span.to_dict() for span in rebuilt] == \
        [span.to_dict() for span in recorder.spans]


def test_span_is_slotted_and_round_trips():
    """A span row carries no ``__dict__``; it still survives the payload
    dict and pickle field for field."""
    import pickle

    span = Span(3, SPAN_BATCH, "pA", 0.5, 1.0, 1, 2,
                {"fragment_kind": "mf", "tuples": 10})
    assert not hasattr(span, "__dict__")
    assert Span.from_dict(span.to_dict()) == span
    assert pickle.loads(pickle.dumps(span)) == span
    assert span.to_dict() == {
        "span_id": 3, "kind": SPAN_BATCH, "name": "pA", "start": 0.5,
        "end": 1.0, "parent_id": 1, "caused_by": 2,
        "attrs": {"fragment_kind": "mf", "tuples": 10}}


def test_write_json_and_load_spans_roundtrip(tmp_path):
    clock = _Clock()
    recorder = SpanRecorder(clock)
    root = recorder.begin(SPAN_QUERY, "q")
    clock.now = 2.0
    recorder.add(SPAN_BATCH, "pA", 0.5, 1.0, parent_id=root,
                 caused_by=root, tuples=10)
    recorder.finish(root)

    path = recorder.write_json(tmp_path / "spans.json")
    assert path.exists()
    loaded = load_spans(path)
    assert [span.to_dict() for span in loaded] == \
        [span.to_dict() for span in recorder.spans]

    # The chrome sibling lands next to it, with flow edges for the
    # caused-by links and a thread-name lane per span kind.
    trace = json.loads((tmp_path / "spans.trace.json").read_text())
    phases = [event["ph"] for event in trace["traceEvents"]]
    assert "X" in phases and "M" in phases
    assert "s" in phases and "f" in phases  # the caused-by flow arrow


def test_load_spans_rejects_alien_and_missing_files(tmp_path):
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="not found"):
        load_spans(tmp_path / "nope.json")
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"version": 999, "spans": []}))
    with pytest.raises(ConfigurationError, match="not a span export"):
        load_spans(alien)


def test_trace_events_clamp_open_spans_to_the_horizon():
    spans = [Span(span_id=0, kind=SPAN_QUERY, name="q", start=0.0, end=None),
             Span(span_id=1, kind=SPAN_BATCH, name="pA", start=0.0, end=2.0)]
    events = [e for e in span_trace_events(spans) if e.get("ph") == "X"]
    # The open query span renders to the last known end, not zero-width.
    assert len(events) == 2
    assert all(event["dur"] >= 1.0 for event in events)


# --------------------------------------------------------------------------
# Compiled hook table
# --------------------------------------------------------------------------

def test_everything_off_compiles_to_the_shared_null_table():
    hooks = compile_dqp_hooks(Telemetry())
    assert hooks is NULL_HOOKS
    assert not (hooks.batch or hooks.stall or hooks.plan)
    assert hooks.batch == () and hooks.stall == () and hooks.plan == ()


def test_spans_only_compile_batch_and_stall_slots():
    telemetry = Telemetry()
    telemetry.spans = SpanRecorder(_Clock())
    hooks = compile_dqp_hooks(telemetry, phase_span_of=lambda: 7)
    assert hooks.batch or hooks.stall or hooks.plan
    assert len(hooks.batch) == 1 and len(hooks.stall) == 1
    assert hooks.plan == ()

    class _Kind:
        value = "mf"

    class _Fragment:
        name = "pA"
        kind = _Kind()

    hooks.batch[0](1.0, 2.0, _Fragment(), 32)
    hooks.stall[0](2.0, 3.0, "source-wait:A")
    batch, stall = telemetry.spans.spans
    assert batch.kind == SPAN_BATCH and batch.parent_id == 7
    assert batch.attrs == {"fragment_kind": "mf", "tuples": 32}
    assert stall.kind == SPAN_STALL and stall.end - stall.start == 1.0


def test_metrics_channel_compiles_every_slot():
    telemetry = Telemetry(sim=_Clock(), enabled=True)
    hooks = compile_dqp_hooks(telemetry)
    assert len(hooks.batch) == 1 and len(hooks.stall) == 1
    assert len(hooks.plan) == 1
    hooks.plan[0](0.0, 5)
    assert telemetry.registry.get("dqs.plan_fragments").value == 5
    assert telemetry.registry.get("dqs.planning_phases") is None


# --------------------------------------------------------------------------
# Engine integration: the recorded tree and its invariants
# --------------------------------------------------------------------------

def _run(strategy="DSE", spans=True, slow=None, seed=3, scale=SCALE):
    workload = figure5_workload(scale=scale)
    params = SimulationParameters(telemetry_spans=spans)
    slow = slow or {}
    delays = {name: UniformDelay(params.w_min * slow.get(name, 1.0))
              for name in workload.relation_names}
    engine = QueryEngine(workload.catalog, workload.qep,
                         make_policy(strategy), delays, params=params,
                         seed=seed)
    return engine.run()


@pytest.fixture(scope="module")
def dse_spans():
    return _run("DSE", slow={"C": 8.0}).spans


def test_recorded_tree_has_the_causal_shape(dse_spans):
    spans = dse_spans
    queries = [s for s in spans if s.kind == SPAN_QUERY]
    assert len(queries) == 1
    root = queries[0]
    assert root.end is not None and root.attrs["strategy"] == "DSE"
    assert "result_tuples" in root.attrs

    plannings = [s for s in spans if s.kind == SPAN_PLANNING]
    phases = [s for s in spans if s.kind == SPAN_EXEC_PHASE]
    assert plannings and phases
    assert all(s.parent_id == root.span_id for s in plannings + phases)
    # Every exec phase is caused by the planning phase that produced it.
    planning_ids = {s.span_id for s in plannings}
    assert all(s.caused_by in planning_ids for s in phases)

    phase_ids = {s.span_id for s in phases}
    batches = [s for s in spans if s.kind == SPAN_BATCH]
    assert batches
    assert all(s.parent_id in phase_ids for s in batches)
    assert all(s.end is not None and s.end >= s.start for s in batches)

    fragments = [s for s in spans if s.kind == SPAN_FRAGMENT]
    assert fragments
    assert all(s.parent_id == root.span_id for s in fragments)
    assert {"mf", "pc"} <= {s.attrs["fragment_kind"] for s in fragments}


def test_stall_spans_carry_their_attributed_cause(dse_spans):
    stalls = [s for s in dse_spans if s.kind == SPAN_STALL]
    assert stalls, "a slowed source must stall the DQP"
    assert any(s.attrs["cause"].startswith("source-wait:")
               for s in stalls)


def test_seeded_run_is_bit_identical_with_spans_on_or_off():
    on = _run("DSE", spans=True, slow={"A": 10.0})
    off = _run("DSE", spans=False, slow={"A": 10.0})
    assert off.spans is None and on.spans
    assert on.response_time == off.response_time
    assert on.batches_processed == off.batches_processed
    assert on.context_switches == off.context_switches
    assert on.stall_time == off.stall_time
    assert on.result_tuples == off.result_tuples
    assert on.fragment_stats == off.fragment_stats


def test_span_ids_are_deterministic_across_repeat_runs():
    first = _run("SEQ", slow={"C": 4.0}).spans
    second = _run("SEQ", slow={"C": 4.0}).spans
    assert [s.to_dict() for s in first] == [s.to_dict() for s in second]


# --------------------------------------------------------------------------
# Critical-path analyzer
# --------------------------------------------------------------------------

def test_explanation_re_sums_exactly_for_both_strategies():
    for strategy in ("SEQ", "DSE"):
        result = _run(strategy, slow={"C": 8.0})
        explanation = explain_spans(result.spans, strategy=strategy)
        assert explanation.response_time == result.response_time
        assert explanation.accounted == explanation.response_time
        assert "(exact)" in format_explanation(explanation)


def test_segments_tile_the_response_time_without_overlap(dse_spans):
    segments = critical_path(dse_spans)
    root = next(s for s in dse_spans if s.kind == SPAN_QUERY)
    assert segments[0].start == root.start
    assert segments[-1].end == root.end
    for before, after in zip(segments, segments[1:]):
        assert after.start == before.end  # gapless, no overlap
    assert all(seg.duration > 0 for seg in segments)
    assert all(seg.category in CATEGORIES for seg in segments)


def test_dse_converts_source_wait_into_overlapped_work():
    """The paper's Figure 6 story, read off the span trees: SEQ's
    critical path is dominated by waiting for the slowed relation, DSE
    hides that wait behind materialization work and finishes earlier."""
    # Needs enough work per phase for the overlap to pay off, so run at a
    # larger scale than the module default with a harsher slowdown.
    seq = explain_spans(
        _run("SEQ", slow={"C": 10.0}, seed=7, scale=0.3).spans, strategy="SEQ")
    dse = explain_spans(
        _run("DSE", slow={"C": 10.0}, seed=7, scale=0.3).spans, strategy="DSE")
    assert dse.response_time < seq.response_time
    assert seq.totals[CAT_SOURCE_WAIT] > dse.totals[CAT_SOURCE_WAIT]
    assert seq.totals[CAT_SOURCE_WAIT] > seq.totals[CAT_EXECUTION]
    assert dse.totals[CAT_MATERIALIZATION] > seq.totals[CAT_MATERIALIZATION]

    diff = format_explanation_diff(dse, seq)
    assert "largest contributor to the delta: source-wait" in diff


def test_explanation_survives_the_json_roundtrip(tmp_path):
    result = _run("DSE", slow={"C": 8.0})
    live = explain_spans(result.spans)
    path = write_spans_json(result.spans, tmp_path / "dse.json")
    loaded = explain_spans(load_spans(path))
    assert loaded.totals == live.totals
    assert loaded.accounted == loaded.response_time


def test_span_summary_matches_the_full_explanation():
    result = _run("DSE", slow={"C": 8.0})
    summary = span_summary(result.spans)
    explanation = explain_spans(result.spans)
    assert summary["spans"] == len(result.spans)
    assert summary["response_time"] == explanation.response_time
    assert summary["totals"] == explanation.totals


def test_span_summary_of_an_empty_recording_is_harmless():
    assert span_summary([]) == {"spans": 0, "totals": None,
                                "response_time": None}


# --------------------------------------------------------------------------
# Multi-query: admission waits cause late query spans
# --------------------------------------------------------------------------

def test_admission_wait_span_causes_the_queued_query(tiny_fig5):
    from repro import MultiQueryEngine, QuerySubmission

    KB = 1024
    params = SimulationParameters().with_overrides(
        dynamic_budget_replanning=True, telemetry_spans=True)

    def sub(name, mem, mn=None, start=0.0):
        return QuerySubmission(
            name=name, catalog=tiny_fig5.catalog, qep=tiny_fig5.qep,
            policy=make_policy("SEQ"),
            delay_models={n: UniformDelay(params.w_min)
                          for n in tiny_fig5.relation_names},
            start_time=start, memory_bytes=mem, min_memory_bytes=mn)

    engine = MultiQueryEngine(params=params, seed=11,
                              global_memory_bytes=240 * KB)
    engine.submit(sub("running", mem=180 * KB))
    engine.submit(sub("waiter", mem=150 * KB, mn=100 * KB, start=0.001))
    result = engine.run()

    assert result.spans is not None
    waits = [s for s in result.spans if s.kind == SPAN_ADMISSION_WAIT]
    assert len(waits) == 1 and waits[0].name == "waiter"
    waiter = {o.name: o for o in result.outcomes}["waiter"]
    assert waits[0].end - waits[0].start == waiter.admission_wait

    queries = {s.name: s for s in result.spans if s.kind == SPAN_QUERY}
    assert set(queries) == {"running", "waiter"}
    assert queries["running"].caused_by is None
    assert queries["waiter"].caused_by == waits[0].span_id
