"""End-to-end tests for scan selectivities (local selections at the
mediator, applied by the chain's scan — and by MF(p), Section 4.4)."""

import pytest

from repro import (
    QueryEngine,
    SimulationParameters,
    UniformDelay,
    build_qep,
    make_policy,
)
from repro.experiments import figure5_workload


def build_with_selections(workload, selections):
    return build_qep(workload.catalog, workload.tree,
                     scan_selectivities=selections)


def run(workload, qep, strategy, seed=1, waits=None):
    params = SimulationParameters()
    if waits is None:
        waits = {n: params.w_min for n in workload.relation_names}
    delays = {n: UniformDelay(w) for n, w in waits.items()}
    return QueryEngine(workload.catalog, qep, make_policy(strategy), delays,
                       params=params, seed=seed).run()


def test_selection_scales_results(tiny_fig5):
    full = run(tiny_fig5, tiny_fig5.qep, "SEQ")
    qep = build_with_selections(tiny_fig5, {"A": 0.5})
    half = run(tiny_fig5, qep, "SEQ")
    # Halving A's tuples halves everything downstream of J1.
    assert half.result_tuples == pytest.approx(full.result_tuples / 2,
                                               rel=0.02)


def test_selection_on_probe_side(tiny_fig5):
    qep = build_with_selections(tiny_fig5, {"C": 0.25})
    result = run(tiny_fig5, qep, "SEQ")
    assert result.result_tuples == pytest.approx(1000 * 0.25, rel=0.02)


def test_strategies_agree_under_selections(tiny_fig5):
    selections = {"A": 0.5, "C": 0.5, "F": 0.8}
    counts = set()
    for strategy in ["SEQ", "MA", "DSE"]:
        qep = build_with_selections(tiny_fig5, selections)
        counts.add(run(tiny_fig5, qep, strategy).result_tuples)
    assert len(counts) == 1


def test_wrapper_still_ships_everything(tiny_fig5):
    """Selection happens at the mediator: the wrapper sends the full
    relation (the delay cost of every raw tuple is paid)."""
    qep = build_with_selections(tiny_fig5, {"A": 0.1})
    result = run(tiny_fig5, qep, "SEQ")
    sent, _, _ = result.wrapper_stats["A"]
    assert sent == tiny_fig5.catalog.relation("A").cardinality


def test_mf_applies_the_scan(tiny_fig5):
    """Section 4.4: MF(p) 'applies the first scan operator of p (if
    any)' — the temp holds filtered tuples only."""
    waits = {n: 20e-6 for n in tiny_fig5.relation_names}
    waits["F"] = 200e-6
    qep = build_with_selections(tiny_fig5, {"F": 0.3})
    result = run(tiny_fig5, qep, "DSE", waits=waits)
    stats = result.fragment_stats["MF(pF)"]
    assert stats.finished_at is not None
    if stats.tuples_in > 1000:  # enough volume to check the ratio
        assert stats.tuples_out == pytest.approx(
            stats.tuples_in * 0.3, rel=0.05)


def test_selection_reduces_memory_footprint(tiny_fig5):
    full = run(tiny_fig5, tiny_fig5.qep, "SEQ")
    qep = build_with_selections(tiny_fig5, {"A": 0.2, "B": 0.2})
    filtered = run(tiny_fig5, qep, "SEQ")
    assert filtered.memory_peak_bytes < full.memory_peak_bytes


def test_invalid_selectivity_rejected(tiny_fig5):
    from repro.common.errors import PlanError
    with pytest.raises(PlanError):
        build_with_selections(tiny_fig5, {"A": 0.0})
    with pytest.raises(PlanError):
        build_with_selections(tiny_fig5, {"A": 1.5})
