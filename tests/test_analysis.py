"""Tests for the post-run analysis (time breakdown, comparison report)."""

import pytest

from repro import QueryEngine, SimulationParameters, UniformDelay, make_policy
from repro.experiments import (
    comparison_report,
    slowdown_waits,
    time_breakdown,
)


def run(workload, strategy, waits, seed=1):
    params = SimulationParameters()
    delays = {n: UniformDelay(w) for n, w in waits.items()}
    return QueryEngine(workload.catalog, workload.qep, make_policy(strategy),
                       delays, params=params, seed=seed).run()


def test_breakdown_components_sum_to_response(mini_fig5):
    params = SimulationParameters()
    waits = slowdown_waits(mini_fig5, "F", 1.0, params)
    result = run(mini_fig5, "SEQ", waits)
    breakdown = time_breakdown(result)
    total = (breakdown.fragment_cpu + breakdown.overhead_cpu
             + breakdown.stall_time + breakdown.other_time)
    # Stalls can overlap CPU work done by the communication manager, so
    # the parts cover at least the whole response (and the non-stall
    # parts alone never exceed it).
    assert total >= result.response_time - 1e-9
    assert (breakdown.fragment_cpu + breakdown.overhead_cpu
            + breakdown.other_time) <= result.response_time + 1e-9


def test_breakdown_fragment_cpu_is_pure_work(mini_fig5):
    """Fragment CPU must be identical across strategies doing the same
    pipeline work (SEQ vs DSE-ND: same operators, no materialization)."""
    params = SimulationParameters()
    waits = {n: params.w_min for n in mini_fig5.relation_names}
    seq = time_breakdown(run(mini_fig5, "SEQ", waits))
    nd = time_breakdown(run(mini_fig5, "DSE-ND", waits))
    assert nd.fragment_cpu == pytest.approx(seq.fragment_cpu, rel=1e-6)


def test_breakdown_dse_extra_work_is_materialization(mini_fig5):
    params = SimulationParameters()
    waits = slowdown_waits(mini_fig5, "F", 1.0, params)
    seq = time_breakdown(run(mini_fig5, "SEQ", waits))
    dse_result = run(mini_fig5, "DSE", waits)
    dse = time_breakdown(dse_result)
    assert dse.fragment_cpu > seq.fragment_cpu  # spill/replay moves
    assert dse.stall_time < seq.stall_time      # that is what it buys


def test_useful_fraction_in_unit_range(mini_fig5):
    params = SimulationParameters()
    waits = {n: params.w_min for n in mini_fig5.relation_names}
    breakdown = time_breakdown(run(mini_fig5, "DSE", waits))
    assert 0.0 < breakdown.fragment_cpu / breakdown.response_time <= 1.0


def test_comparison_report_renders(mini_fig5):
    params = SimulationParameters()
    waits = {n: params.w_min for n in mini_fig5.relation_names}
    results = {s: run(mini_fig5, s, waits) for s in ("SEQ", "DSE")}
    text = comparison_report(results, title="anatomy")
    assert "anatomy" in text
    assert "SEQ" in text and "DSE" in text
    assert "response time (s)" in text
    assert "result tuples" in text


def test_comparison_report_empty_rejected():
    with pytest.raises(ValueError):
        comparison_report({})
