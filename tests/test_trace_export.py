"""Tests for the Chrome-tracing exporter and the new CLI commands."""

import json

import pytest

from repro import QueryEngine, SimulationParameters, UniformDelay, make_policy
from repro.cli import main
from repro.experiments import (
    chrome_trace_events,
    slowdown_waits,
    write_chrome_trace,
)


def run_dse(workload):
    params = SimulationParameters()
    waits = slowdown_waits(workload, "F", 0.5, params)
    delays = {n: UniformDelay(w) for n, w in waits.items()}
    return QueryEngine(workload.catalog, workload.qep, make_policy("DSE"),
                       delays, params=params, seed=1).run()


def test_events_cover_all_finished_fragments(mini_fig5):
    result = run_dse(mini_fig5)
    events = chrome_trace_events(result)
    spans = [e for e in events if e["ph"] == "X"]
    finished = [s for s in result.fragment_stats.values()
                if s.finished_at is not None]
    assert len(spans) == len(finished)
    for span in spans:
        assert span["dur"] >= 1.0
        assert span["args"]["tuples_in"] >= 0


def test_one_lane_per_chain(mini_fig5):
    result = run_dse(mini_fig5)
    events = chrome_trace_events(result)
    metadata = [e for e in events if e["ph"] == "M"]
    lanes = {e["args"]["name"] for e in metadata}
    assert lanes == {c.name for c in mini_fig5.qep.chains}


def test_decisions_included_when_traced(mini_fig5):
    result = run_dse(mini_fig5)
    events = chrome_trace_events(result)
    instants = [e for e in events if e["ph"] == "i"]
    assert any(e["name"].startswith("degrade") for e in instants)
    assert any(e["name"].startswith("cf-create") for e in instants)


def test_one_instant_per_decision(mini_fig5):
    """The audit log is the trace: each record is one instant, in
    order, at its time, with its inputs as args."""
    result = run_dse(mini_fig5)
    instants = [e for e in chrome_trace_events(result) if e["ph"] == "i"]
    assert result.decisions
    assert [(e["name"], e["ts"], e["args"]) for e in instants] == [
        (f"{r.kind}: {r.subject}", r.time * 1e6, r.args())
        for r in result.decisions]


def test_write_chrome_trace_valid_json(mini_fig5, tmp_path):
    result = run_dse(mini_fig5)
    path = write_chrome_trace(tmp_path / "nested" / "trace.json", result)
    payload = json.loads(path.read_text())
    assert payload["otherData"]["strategy"] == "DSE"
    assert payload["traceEvents"]


def test_cli_run_timeline_and_chrome_trace(tmp_path, capsys):
    target = tmp_path / "t.json"
    assert main(["run", "--scale", "0.02", "--strategy", "DSE",
                 "--timeline", "--chrome-trace", str(target)]) == 0
    out = capsys.readouterr().out
    assert "fragment" in out  # timeline header
    assert target.exists()
    json.loads(target.read_text())


def test_cli_anatomy(capsys):
    assert main(["anatomy", "--scale", "0.02", "--strategies", "SEQ", "DSE",
                 "--slow", "F:5"]) == 0
    out = capsys.readouterr().out
    assert "anatomy" in out
    assert "engine stalls" in out


def test_cli_anatomy_unknown_relation(capsys):
    assert main(["anatomy", "--scale", "0.02", "--slow", "Z:5"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown relation(s) in --slow: ['Z']\n")
