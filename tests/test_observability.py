"""Tests for the unified telemetry layer.

Covers the metrics registry (including the disabled null path), stall
attribution summing to the DQP's ``stall_time``, the scheduler decision
audit log, periodic sampling, the exporters (JSON round-trip, CSV,
Prometheus text), the Chrome-trace export fixes and the new CLI
subcommands.
"""

from __future__ import annotations

import csv
import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.core.engine import FragmentStat, QueryEngine
from repro.core.strategies import make_policy
from repro.experiments.trace_export import chrome_trace_events
from repro.observability import (
    NULL_METRIC,
    DecisionAuditLog,
    DecisionRecord,
    MetricsRegistry,
    StallAttribution,
    Telemetry,
    load_metrics_json,
    prometheus_text,
    source_wait,
    telemetry_snapshot,
    write_metrics_csv,
    write_metrics_json,
    write_metrics_prometheus,
)
from repro.sim import Simulator
from repro.wrappers.delays import UniformDelay


# --------------------------------------------------------------------------
# Metrics registry
# --------------------------------------------------------------------------

def test_counter_and_get_or_create():
    registry = MetricsRegistry()
    counter = registry.counter("dqp.batches")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counter("dqp.batches") is counter
    assert registry.get("dqp.batches") is counter
    assert sorted(registry._metrics) == ["dqp.batches"]


def test_kind_mismatch_is_configuration_error():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ConfigurationError):
        registry.gauge("x")


def test_gauge_tracks_min_max_and_time_weighted_mean(sim):
    registry = MetricsRegistry(sim=sim)
    gauge = registry.gauge("memory.used")

    def proc():
        gauge.set(10.0)
        yield sim.timeout(1.0)
        gauge.set(30.0)
        yield sim.timeout(1.0)
        gauge.set(0.0)

    sim.process(proc())
    sim.run()
    assert gauge.minimum == 0.0 and gauge.maximum == 30.0
    assert gauge.time_weighted_mean() == pytest.approx(20.0)


def test_histogram_buckets_and_stream_stats():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(1.0, 10.0))
    for value in (0.5, 0.9, 5.0, 100.0):
        hist.observe(value)
    assert hist.counts == [2, 1, 1]  # <=1, <=10, +Inf
    assert hist.count == 4
    assert hist.sum == pytest.approx(106.4)
    assert hist.mean == pytest.approx(106.4 / 4)


def test_disabled_registry_hands_out_null_metric():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("a")
    assert counter is NULL_METRIC
    assert registry.histogram("b") is NULL_METRIC
    assert registry.gauge("c") is NULL_METRIC
    # No-ops, no registration, no state.
    counter.inc()
    counter.observe(1.0)
    counter.set(2.0)
    assert len(registry) == 0
    assert registry.as_dict() == {}


# --------------------------------------------------------------------------
# Stall attribution
# --------------------------------------------------------------------------

def test_stall_attribution_accumulates_by_cause():
    stalls = StallAttribution()
    intervals = []
    stalls.on_record = intervals.append
    stalls.record(source_wait("A"), 0.0, 1.5)
    stalls.record(source_wait("A"), 2.0, 2.5)
    stalls.record("memory-wait", 3.0, 3.25)
    assert sum(stalls.breakdown.values()) == pytest.approx(2.25)
    assert stalls.by_cause() == {"source-wait:A": 2.0, "memory-wait": 0.25}
    assert len(intervals) == 3
    assert intervals[0].duration == pytest.approx(1.5)


def test_an_unobserved_stall_builds_no_interval(monkeypatch):
    """With no observer hooked a stall only adds to its cause's total;
    hooked, the flight recorder receives the same interval per stall as
    before, and both machines' totals re-sum exactly."""
    from repro.observability import stalls as stalls_module
    from repro.observability.flight import ENTRY_STALL, FlightRecorder

    built = []
    real = stalls_module.StallInterval

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(stalls_module, "StallInterval", counting)
    steps = [(source_wait("A"), 0.0, 1.5), ("memory-wait", 2.0, 2.25),
             (source_wait("A"), 3.0, 3.5)]
    quiet = StallAttribution()
    for step in steps:
        quiet.record(*step)
    assert built == []

    telemetry = Telemetry()
    flight = FlightRecorder().attach(telemetry)
    for step in steps:
        telemetry.stalls.record(*step)
    assert built == [(started, ended, cause)
                     for cause, started, ended in steps]
    assert [(e.kind, e.time, e.payload) for e in flight.entries()] == [
        (ENTRY_STALL, ended, {"cause": cause, "duration": ended - started})
        for cause, started, ended in steps]
    assert quiet.by_cause() == telemetry.stalls.by_cause() \
        == {"source-wait:A": 2.0, "memory-wait": 0.25}
    assert sum(quiet.breakdown.values()) \
        == sum(telemetry.stalls.breakdown.values()) == sum(
        e.payload["duration"] for e in flight.entries()) == 2.25


def test_stall_attribution_rejects_backwards_interval():
    with pytest.raises(SimulationError):
        StallAttribution().record("timeout", 2.0, 1.0)


# --------------------------------------------------------------------------
# Decision audit log
# --------------------------------------------------------------------------

def test_audit_log_splits_typed_fields_from_details():
    log = DecisionAuditLog()
    record = log.record("degrade", "pA", time=1.0, critical=0.5, bmi=1.5,
                        bmt=1.0, mf="MF(pA)")
    assert record.critical == 0.5 and record.bmi == 1.5
    assert record.details == {"mf": "MF(pA)"}
    assert record.args()["mf"] == "MF(pA)"
    assert "time" not in record.args()
    assert sum(1 for r in log.records if r.kind == "degrade") == 1
    assert [r for r in log.records if r.subject == "pA"] == [record]
    assert [r for r in log.records if r.kind == "mf-stop"] == []


def test_decision_record_dict_roundtrip():
    record = DecisionRecord(time=2.0, kind="reopt-swap", subject="J1",
                            details={"new_build": ["A", "B"]})
    assert DecisionRecord.from_dict(record.to_dict()) == record


# --------------------------------------------------------------------------
# End-to-end: stall breakdown sums to stall_time, audit carries bmi > bmt
# --------------------------------------------------------------------------

def _run(workload, strategy, params, slow=None, seed=1):
    waits = {name: params.w_min * (slow or {}).get(name, 1.0)
             for name in workload.relation_names}
    delays = {name: UniformDelay(wait) for name, wait in waits.items()}
    engine = QueryEngine(workload.catalog, workload.qep,
                         make_policy(strategy), delays, params=params,
                         seed=seed)
    return engine.run()


@pytest.mark.parametrize("strategy", ["SEQ", "MA", "DSE"])
def test_stall_breakdown_sums_to_stall_time(mini_fig5, strategy):
    params = SimulationParameters()
    result = _run(mini_fig5, strategy, params, slow={"A": 10.0})
    assert result.stall_time > 0
    assert sum(result.stall_breakdown.values()) == pytest.approx(
        result.stall_time, abs=1e-9)
    # The slowed source dominates the engine's idle time.
    assert result.stall_breakdown.get(source_wait("A"), 0.0) > 0


def test_stall_breakdown_present_without_telemetry_flag(tiny_fig5):
    """Attribution is always on; metrics/samples are opt-in."""
    result = _run(tiny_fig5, "DSE", SimulationParameters(), slow={"A": 10.0})
    assert result.metrics is None
    assert result.samples == []
    assert sum(result.stall_breakdown.values()) == pytest.approx(
        result.stall_time, abs=1e-9)


def test_audit_records_degrade_with_bmi_exceeding_bmt(mini_fig5):
    params = SimulationParameters()
    result = _run(mini_fig5, "DSE", params, slow={"F": 10.0})
    degrades = [d for d in result.decisions if d.kind == "degrade"]
    assert degrades, "overloaded-source DSE run must degrade some chain"
    for record in degrades:
        assert record.bmi is not None and record.bmt == params.bmt
        assert record.bmi > record.bmt
        assert record.critical is not None and record.critical > 0
        assert record.memory_total_bytes == params.query_memory_bytes
    assert result.degradations == len(degrades)


def test_telemetry_run_collects_metrics_and_samples(mini_fig5):
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_sample_interval=0.05)
    result = _run(mini_fig5, "DSE", params, slow={"A": 10.0})
    assert result.metrics is not None
    assert result.metrics.get("dqp.batches").value == result.batches_processed
    assert (result.metrics.get("dqs.planning_phases").value
            == result.planning_phases)
    assert result.samples, "periodic sampler produced no samples"
    times = [sample.time for sample in result.samples]
    assert times == sorted(times)
    last = result.samples[-1]
    assert last.memory_total_bytes == params.query_memory_bytes
    assert set(last.queue_depth_tuples) == set(mini_fig5.relation_names)


@pytest.mark.parametrize("strategy", ["SEQ", "MA", "DSE"])
def test_a_telemetry_run_writes_no_counter(mini_fig5, strategy, monkeypatch):
    """Counters are read from the fields that count them when the result
    is collected: no component writes one while the query runs."""
    from repro.observability.registry import CounterMetric

    calls = []
    monkeypatch.setattr(CounterMetric, "inc",
                        lambda self, amount=1.0: calls.append(self.name))
    result = _run(mini_fig5, strategy, SimulationParameters(
        telemetry_enabled=True), slow={"A": 10.0})
    assert calls == []
    assert result.metrics.get("dqp.batches").value == result.batches_processed


# --------------------------------------------------------------------------
# Exporters
# --------------------------------------------------------------------------

@pytest.fixture
def telemetry_result(tiny_fig5):
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_sample_interval=0.05)
    return _run(tiny_fig5, "DSE", params, slow={"A": 10.0})


def test_json_export_roundtrip(telemetry_result, tmp_path):
    snapshot = telemetry_snapshot(telemetry_result)
    path = write_metrics_json(snapshot, tmp_path / "metrics.json")
    assert load_metrics_json(path) == snapshot


def test_csv_export_is_tidy(telemetry_result, tmp_path):
    snapshot = telemetry_snapshot(telemetry_result)
    path = write_metrics_csv(snapshot, tmp_path / "metrics.csv")
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["section", "name", "field", "value"]
    sections = {row[0] for row in rows[1:]}
    assert {"run", "stall", "metric"} <= sections
    stall_rows = {row[1]: float(row[3]) for row in rows if row[0] == "stall"}
    assert sum(stall_rows.values()) == pytest.approx(
        telemetry_result.stall_time, abs=1e-9)


def test_prometheus_text_format(telemetry_result, tmp_path):
    snapshot = telemetry_snapshot(telemetry_result)
    text = prometheus_text(snapshot)
    assert "# TYPE repro_response_time_seconds gauge" in text
    assert 'repro_stall_seconds_total{cause="source-wait:A"}' in text
    assert 'repro_decisions_total{kind="degrade"}' in text
    assert "# TYPE repro_dqp_batches counter" in text
    assert 'repro_dqp_stall_seconds_bucket{le="+Inf"}' in text
    assert "repro_dqp_stall_seconds_sum" in text
    path = write_metrics_prometheus(snapshot, tmp_path / "m.prom")
    assert path.read_text() == text


def test_histogram_bucket_lines_are_cumulative(telemetry_result):
    snapshot = telemetry_snapshot(telemetry_result)
    hist = snapshot["metrics"]["dqp.stall_seconds"]
    text = prometheus_text(snapshot)
    last_finite = None
    for line in text.splitlines():
        if line.startswith('repro_dqp_stall_seconds_bucket{le="+Inf"}'):
            assert int(float(line.split()[-1])) == hist["count"]
        elif line.startswith("repro_dqp_stall_seconds_bucket"):
            value = int(float(line.split()[-1]))
            if last_finite is not None:
                assert value >= last_finite  # cumulative, never decreasing
            last_finite = value


# --------------------------------------------------------------------------
# Chrome-trace export fixes
# --------------------------------------------------------------------------

def test_chrome_trace_allocates_tid_for_unknown_chain():
    stat = FragmentStat(name="CF(pX)", kind="cf", chain="pX",
                        started_at=0.0, finished_at=1.0, tuples_in=5,
                        tuples_out=5, batches=1, cpu_seconds=0.1)
    view = SimpleNamespace(fragment_stats={}, timeline=lambda: [stat],
                           decisions=[])
    events = chrome_trace_events(view)
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and spans[0]["tid"] == 1
    names = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
    assert names == {"pX": 1}


def test_chrome_trace_decision_instants_carry_audit_args(mini_fig5):
    params = SimulationParameters()
    result = _run(mini_fig5, "DSE", params, slow={"F": 10.0})
    events = chrome_trace_events(result)
    degrades = [e for e in events
                if e["ph"] == "i" and e["name"].startswith("degrade:")]
    assert degrades
    for event in degrades:
        assert event["args"]["bmi"] > event["args"]["bmt"]
        assert "critical" in event["args"]
        assert "memory_used_bytes" in event["args"]


def test_chrome_trace_without_decisions_has_no_instants(tiny_fig5):
    result = _run(tiny_fig5, "SEQ", SimulationParameters())
    assert result.decisions == []
    events = chrome_trace_events(result)
    assert all(e["ph"] != "i" for e in events)


# --------------------------------------------------------------------------
# Telemetry facade
# --------------------------------------------------------------------------

def test_disabled_telemetry_is_inert(sim):
    telemetry = Telemetry()
    assert not telemetry.sampling
    assert telemetry.registry.counter("x") is NULL_METRIC
    assert telemetry.start_sampler(None, None) is None
    telemetry.stop_sampler()  # no-op, must not raise


def test_sampler_requires_positive_interval(sim):
    from repro.observability import TelemetrySampler
    with pytest.raises(ConfigurationError):
        TelemetrySampler(sim, 0.0, None, None, [])


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def test_cli_metrics_writes_all_three_formats(tmp_path, capsys):
    out = tmp_path / "telemetry"
    assert main(["metrics", "--strategy", "dse", "--scale", "0.02",
                 "--slow", "A:10", "--out", str(out)]) == 0
    assert (out / "metrics-dse.json").exists()
    assert (out / "metrics-dse.csv").exists()
    assert (out / "metrics-dse.prom").exists()
    stdout = capsys.readouterr().out
    assert "stall breakdown:" in stdout
    snapshot = load_metrics_json(out / "metrics-dse.json")
    assert sum(snapshot["stall_breakdown"].values()) == pytest.approx(
        snapshot["stall_time"], abs=1e-9)


def test_cli_metrics_single_format(tmp_path):
    target = tmp_path / "only.json"
    assert main(["metrics", "--scale", "0.02", "--json", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "telemetry").exists()


def test_cli_trace_writes_chrome_trace(tmp_path, capsys):
    target = tmp_path / "trace.json"
    assert main(["trace", "--strategy", "dse", "--scale", "0.02",
                 "--slow", "A:10", "--out", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["traceEvents"]
    assert "decisions" in capsys.readouterr().out


def test_cli_run_trace_prints_the_audit_log(tmp_path, capsys):
    """``run --trace`` prints the decision lines ``repro trace`` prints."""
    argv = ["--strategy", "dse", "--scale", "0.02", "--slow", "A:10"]
    assert main(["run", *argv, "--trace"]) == 0
    run_lines = capsys.readouterr().out.splitlines()
    assert main(["trace", *argv, "--out", str(tmp_path / "t.json")]) == 0
    trace_lines = capsys.readouterr().out.splitlines()
    start = next(index for index, line in enumerate(trace_lines)
                 if line.startswith("decisions ("))
    decisions = trace_lines[start:-1]  # up to the "chrome trace:" line
    assert len(decisions) > 1
    assert run_lines[-len(decisions):] == decisions


def test_cli_metrics_rejects_unknown_slow_relation(capsys):
    assert main(["metrics", "--scale", "0.02", "--slow", "ZZ:10"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown relation(s) in --slow: ['ZZ']\n")
