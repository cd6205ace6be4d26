"""The flight recorder: ring buffer, dumps, and the stall watchdog.

The acceptance behaviour pinned at the bottom is the headline one: a
live run against a source that wedges mid-stream is aborted by the
watchdog, raises a ``SimulationError`` naming the dump path, and leaves
a loadable JSON post-mortem plus a parseable chrome-trace sibling.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.observability import (
    ENTRY_BATCH,
    ENTRY_DECISION,
    ENTRY_PHASE,
    ENTRY_STALL,
    FlightRecorder,
    StallWatchdog,
    flight_trace_events,
    load_flight_dump,
)
from repro.wrappers import UniformDelay


# --------------------------------------------------------------------------
# Ring buffer
# --------------------------------------------------------------------------

def test_recorder_keeps_the_most_recent_entries():
    recorder = FlightRecorder(capacity=4)
    for i in range(10):
        recorder.record(ENTRY_BATCH, float(i), fragment=f"f{i}", tuples=1)
    assert len(recorder) == 4
    assert recorder._recorded == 10
    entries = recorder.entries()
    assert [entry.time for entry in entries] == [6.0, 7.0, 8.0, 9.0]
    assert entries[0].payload == {"fragment": "f6", "tuples": 1}


def test_recorder_rejects_nonpositive_capacity():
    with pytest.raises(ConfigurationError):
        FlightRecorder(capacity=0)


def test_batch_entries_mark_progress_but_others_do_not():
    recorder = FlightRecorder(capacity=8)
    before = recorder.last_progress_wall
    time.sleep(0.01)
    recorder.record(ENTRY_DECISION, 1.0, name="degrade", subject="C1")
    assert recorder.last_progress_wall == before
    recorder.record(ENTRY_BATCH, 1.0, fragment="pA", tuples=128)
    assert recorder.last_progress_wall > before


def test_recorder_is_falsy_when_empty():
    # The live engine uses identity checks (`is not None`) because an
    # armed-but-empty recorder must still count as armed.
    recorder = FlightRecorder(capacity=8)
    assert not recorder
    assert recorder is not None


# --------------------------------------------------------------------------
# Dump / load round trip
# --------------------------------------------------------------------------

def _populated_recorder() -> FlightRecorder:
    recorder = FlightRecorder(capacity=3)
    recorder.record(ENTRY_PHASE, 0.0, name="run-start")
    recorder.record(ENTRY_BATCH, 0.5, fragment="pA", tuples=128)
    recorder.record(ENTRY_STALL, 1.0, cause="source-wait:A", duration=0.25)
    recorder.record(ENTRY_DECISION, 1.5, name="degrade", subject="C2")
    recorder.latest_snapshot = {"strategy": "DSE", "now": 1.5}
    return recorder


def test_dump_and_load_roundtrip(tmp_path):
    recorder = _populated_recorder()
    path = recorder.dump(tmp_path / "flight.json", reason="stall")
    dump = load_flight_dump(path)
    assert dump["reason"] == "stall"
    assert dump["recorded"] == 4
    assert dump["dropped"] == 1  # capacity 3, four entries recorded
    assert [entry.kind for entry in dump["entries"]] == [
        ENTRY_BATCH, ENTRY_STALL, ENTRY_DECISION]
    assert dump["entries"][1].payload["cause"] == "source-wait:A"
    assert dump["snapshot"] == {"strategy": "DSE", "now": 1.5}


def test_dump_writes_a_parseable_chrome_trace_sibling(tmp_path):
    recorder = _populated_recorder()
    path = recorder.dump(tmp_path / "flight.json", reason="crash",
                         error="RuntimeError('boom')")
    trace = json.loads(path.with_suffix(".trace.json").read_text())
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 1  # the stall renders as a span with a duration
    assert spans[0]["args"]["cause"] == "source-wait:A"
    assert spans[0]["dur"] == pytest.approx(0.25 * 1e6)
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["cat"] for e in instants} == {ENTRY_BATCH, ENTRY_DECISION}


def test_flight_trace_events_of_empty_buffer_is_just_lane_metadata():
    events = flight_trace_events([])
    assert events and all(event["ph"] == "M" for event in events)


def test_load_flight_dump_friendly_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_flight_dump(tmp_path / "missing.json")
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"version": 1, "entries": [')
    with pytest.raises(ConfigurationError, match="unreadable"):
        load_flight_dump(truncated)
    alien = tmp_path / "alien.json"
    alien.write_text('{"some": "other file"}')
    with pytest.raises(ConfigurationError, match="not a flight-recorder"):
        load_flight_dump(alien)


# --------------------------------------------------------------------------
# Stall watchdog
# --------------------------------------------------------------------------

def test_watchdog_needs_a_trigger_and_positive_values(tmp_path):
    recorder = FlightRecorder()
    with pytest.raises(ConfigurationError):
        StallWatchdog(recorder, tmp_path / "d.json")
    with pytest.raises(ConfigurationError):
        StallWatchdog(recorder, tmp_path / "d.json", stall_after=0.0)
    with pytest.raises(ConfigurationError):
        StallWatchdog(recorder, tmp_path / "d.json", deadline=-1.0)


@pytest.mark.parametrize("field", ["stall_after", "deadline"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_watchdog_rejects_non_finite_values(field, value, tmp_path):
    # A NaN passes `value <= 0` and would arm a watchdog that never fires.
    with pytest.raises(ConfigurationError, match="positive and finite"):
        StallWatchdog(FlightRecorder(), tmp_path / "d.json",
                      **{field: value})


def test_watchdog_fires_on_stall_and_dumps(tmp_path):
    recorder = FlightRecorder()
    recorder.record(ENTRY_BATCH, 0.0, fragment="pA", tuples=1)
    fired = threading.Event()
    seen = {}

    def on_fire(reason, path):
        seen["reason"], seen["path"] = reason, path
        fired.set()

    watchdog = StallWatchdog(recorder, tmp_path / "wd.json",
                             stall_after=0.1, on_fire=on_fire,
                             poll_interval=0.02)
    watchdog.start()
    try:
        assert fired.wait(timeout=2.0)
    finally:
        watchdog.stop()
    assert watchdog.fired_reason == "stall"
    assert seen["reason"] == "stall"
    dump = load_flight_dump(seen["path"])
    assert dump["reason"] == "stall"


def test_watchdog_does_not_fire_while_progress_keeps_coming(tmp_path):
    recorder = FlightRecorder()
    watchdog = StallWatchdog(recorder, tmp_path / "wd.json",
                             stall_after=0.15, poll_interval=0.02)
    watchdog.start()
    try:
        for _ in range(6):
            time.sleep(0.05)
            recorder.record(ENTRY_BATCH, 0.0, fragment="pA", tuples=1)
    finally:
        watchdog.stop()
    assert watchdog.fired_reason is None
    assert not (tmp_path / "wd.json").exists()


def test_watchdog_deadline_fires_even_with_steady_progress(tmp_path):
    recorder = FlightRecorder()
    fired = threading.Event()
    watchdog = StallWatchdog(recorder, tmp_path / "wd.json",
                             deadline=0.1,
                             on_fire=lambda *a: fired.set(),
                             poll_interval=0.02)
    watchdog.start()
    try:
        deadline = time.monotonic() + 2.0
        while not fired.is_set() and time.monotonic() < deadline:
            recorder.record(ENTRY_BATCH, 0.0, fragment="pA", tuples=1)
            time.sleep(0.01)
    finally:
        watchdog.stop()
    assert watchdog.fired_reason == "deadline"


# --------------------------------------------------------------------------
# Acceptance: a wedged live run leaves a loadable post-mortem
# --------------------------------------------------------------------------

class _Wedged(UniformDelay):
    """Ships its first message, then waits an hour before the next."""

    def message_seconds(self, cardinality, per_message, rng):
        seconds = super().message_seconds(cardinality, per_message, rng)
        yield next(seconds)
        yield 3600.0


def _live_engine(delays, **plane):
    from repro.config import SimulationParameters
    from repro.core.strategies import make_policy
    from repro.exec.live import LiveQueryEngine
    from repro.experiments import figure5_workload

    workload = figure5_workload(scale=0.01)
    return LiveQueryEngine(
        workload.catalog, workload.qep, make_policy("DSE"),
        {rel: delays.get(rel, UniformDelay(1e-5))
         for rel in workload.relation_names},
        params=SimulationParameters(), seed=3, **plane)


def test_wedged_live_run_is_aborted_and_leaves_a_postmortem(tmp_path):
    dump_path = tmp_path / "flight.json"
    engine = _live_engine({"A": _Wedged(1e-5)},  # 1,000 tuples: 5 messages
                          flight_dump=dump_path, stall_after=0.3)

    with pytest.raises(SimulationError, match="watchdog \\(stall\\)") as exc:
        asyncio.run(engine.run())
    assert str(dump_path) in str(exc.value)

    dump = load_flight_dump(dump_path)
    assert dump["reason"] == "stall"
    kinds = {entry.kind for entry in dump["entries"]}
    assert ENTRY_BATCH in kinds     # progress before the wedge was kept
    assert ENTRY_PHASE in kinds     # run-start marker
    assert {ENTRY_DECISION, ENTRY_STALL} <= kinds
    trace = json.loads(dump_path.with_suffix(".trace.json").read_text())
    assert isinstance(trace["traceEvents"], list)


def test_clean_live_run_leaves_no_dump(tmp_path):
    dump_path = tmp_path / "flight.json"
    engine = _live_engine({}, flight_dump=dump_path, stall_after=10.0,
                          deadline=60.0)
    result = asyncio.run(engine.run())
    assert result.result_tuples > 0
    assert not dump_path.exists()
    assert engine.recorder is not None and engine.recorder._recorded > 0


def test_engine_validates_watchdog_needs_a_dump_path():
    with pytest.raises(ConfigurationError, match="flight_dump"):
        _live_engine({}, stall_after=1.0)
