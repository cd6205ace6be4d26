"""Tests for the reproduction package generator and fragment timelines."""

import csv

import pytest

from repro import QueryEngine, SimulationParameters, UniformDelay, make_policy
from repro.cli import main
from repro.experiments import generate_all, slowdown_waits


# --------------------------------------------------------------------------
# generate_all
# --------------------------------------------------------------------------

def test_generate_all_writes_every_artifact(tmp_path):
    out = generate_all(tmp_path / "results", scale=0.02)
    names = {p.name for p in out.iterdir()}
    assert names == {"REPORT.txt", "table1.csv", "fig6.csv", "fig7.csv",
                     "fig8.csv", "multiquery.csv"}
    report = (out / "REPORT.txt").read_text()
    for marker in ["Table 1", "Figure 5", "Figure 6", "Figure 7",
                   "Figure 8", "concurrent queries"]:
        assert marker in report


def test_generate_all_csv_series_parse(tmp_path):
    out = generate_all(tmp_path / "r", scale=0.02)
    with (out / "fig6.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["retrieval_s", "SEQ", "MA", "DSE", "LWB"]
    assert len(rows) == 8  # header + 7 sweep points
    # Every cell is numeric.
    for row in rows[1:]:
        [float(cell) for cell in row]


def test_generate_all_progress_callback(tmp_path):
    steps = []
    generate_all(tmp_path / "r", scale=0.02, progress=steps.append)
    assert steps == ["table1", "fig5", "fig6", "fig7", "fig8",
                     "multiquery", "done"]


def test_cli_reproduce(tmp_path, capsys):
    assert main(["reproduce", "--scale", "0.02",
                 "--outdir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "written to" in out
    assert (tmp_path / "out" / "REPORT.txt").exists()


# --------------------------------------------------------------------------
# Fragment timelines
# --------------------------------------------------------------------------

def run_dse(workload, waits):
    params = SimulationParameters()
    delays = {n: UniformDelay(w) for n, w in waits.items()}
    return QueryEngine(workload.catalog, workload.qep, make_policy("DSE"),
                       delays, params=params, seed=1).run()


def test_timeline_covers_all_fragments(mini_fig5):
    params = SimulationParameters()
    waits = slowdown_waits(mini_fig5, "F", 1.0, params)
    result = run_dse(mini_fig5, waits)
    stats = result.fragment_stats
    # Every chain has at least its PC fragment recorded.
    chains = {stat.chain for stat in stats.values()}
    assert chains == {c.name for c in mini_fig5.qep.chains}
    # All fragments finished (the query completed).
    assert all(stat.finished_at is not None for stat in stats.values())


def test_timeline_ordering_and_duration(mini_fig5):
    params = SimulationParameters()
    waits = {n: params.w_min for n in mini_fig5.relation_names}
    result = run_dse(mini_fig5, waits)
    timeline = result.timeline()
    starts = [s.started_at for s in timeline if s.started_at is not None]
    assert starts == sorted(starts)
    for stat in timeline:
        if stat.started_at is not None and stat.finished_at is not None:
            assert stat.finished_at >= stat.started_at
        assert stat.cpu_seconds >= 0


def test_timeline_mf_precedes_cf(mini_fig5):
    params = SimulationParameters()
    waits = slowdown_waits(mini_fig5, "F", 1.0, params)
    result = run_dse(mini_fig5, waits)
    stats = result.fragment_stats
    if "MF(pF)" in stats and "CF(pF)" in stats:
        assert stats["MF(pF)"].finished_at <= stats["CF(pF)"].started_at


def test_render_timeline_is_printable(mini_fig5):
    params = SimulationParameters()
    waits = {n: params.w_min for n in mini_fig5.relation_names}
    text = run_dse(mini_fig5, waits).render_timeline()
    assert "fragment" in text.splitlines()[0]
    assert "pA" in text


def test_cpu_seconds_sum_below_busy_time(mini_fig5):
    """Fragment CPU is a subset of total CPU (receive/IO/planning add)."""
    params = SimulationParameters()
    waits = {n: params.w_min for n in mini_fig5.relation_names}
    result = run_dse(mini_fig5, waits)
    fragment_cpu = sum(s.cpu_seconds for s in result.fragment_stats.values())
    assert 0 < fragment_cpu <= result.cpu_busy_time + 1e-9
