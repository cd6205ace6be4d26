"""Tests for runtime statistics collection and misestimate detection."""

import pytest

from repro import SimulationParameters, QueryEngine, UniformDelay, make_policy
from repro.common.errors import SchedulingError
from repro.core.statistics import JoinObservation, RuntimeStatistics
from repro.plan import build_qep


# --------------------------------------------------------------------------
# JoinObservation
# --------------------------------------------------------------------------

def test_error_ratio():
    obs = JoinObservation("J1", estimated_build=100.0, observed_build=150.0)
    assert obs.error_ratio == pytest.approx(1.5)


def test_error_ratio_unobserved():
    assert JoinObservation("J1", 100.0).error_ratio is None


def test_error_ratio_zero_estimate():
    assert JoinObservation("J1", 0.0, observed_build=10.0).error_ratio == float("inf")
    assert JoinObservation("J1", 0.0, observed_build=0.0).error_ratio == 1.0


@pytest.mark.parametrize("observed,misestimated", [
    (100.0, False),    # exact
    (149.0, False),    # within 1.5x
    (151.0, True),     # above 1.5x
    (67.0, False),     # within 1/1.5
    (66.0, True),      # below 1/1.5
])
def test_misestimation_threshold(observed, misestimated):
    obs = JoinObservation("J1", 100.0, observed_build=observed)
    assert obs.is_misestimated(0.5) is misestimated


def test_unobserved_is_never_misestimated():
    assert not JoinObservation("J1", 100.0).is_misestimated(0.0)


# --------------------------------------------------------------------------
# RuntimeStatistics container
# --------------------------------------------------------------------------

def test_register_and_observe():
    stats = RuntimeStatistics()
    stats.register_join("J1", 100.0)
    stats.observe_build("J1", 250.0, time=1.5)
    obs = stats._joins["J1"]
    assert obs.observed_build == 250.0
    assert obs.observed_at == 1.5


def test_register_twice_rejected():
    stats = RuntimeStatistics()
    stats.register_join("J1", 1.0)
    with pytest.raises(SchedulingError):
        stats.register_join("J1", 1.0)


def test_observe_unknown_rejected():
    with pytest.raises(SchedulingError):
        RuntimeStatistics().observe_build("J9", 1.0, time=0.0)


def test_misestimated_joins_filtering():
    stats = RuntimeStatistics()
    stats.register_join("good", 100.0)
    stats.register_join("bad", 100.0)
    stats.register_join("pending", 100.0)
    stats.observe_build("good", 105.0, time=1.0)
    stats.observe_build("bad", 300.0, time=2.0)
    flagged = stats.misestimated_joins(0.5)
    assert [o.join_name for o in flagged] == ["bad"]


def test_misestimated_negative_threshold_rejected():
    with pytest.raises(SchedulingError):
        RuntimeStatistics().misestimated_joins(-0.1)


def test_rate_history():
    stats = RuntimeStatistics()
    stats.snapshot_rates(0.0, {"A": 1e-5, "B": 2e-5})
    stats.snapshot_rates(1.0, {"A": 3e-5, "B": 2e-5})
    assert [(snap.time, snap.waits["A"]) for snap in stats.rate_history] \
        == [(0.0, 1e-5), (1.0, 3e-5)]
    assert len(stats.rate_history) == 2


# --------------------------------------------------------------------------
# End-to-end detection through the engine
# --------------------------------------------------------------------------

def _run_with_factor(workload, factor):
    qep = build_qep(workload.catalog, workload.tree,
                    actual_output_factors={"J1": factor})
    params = SimulationParameters()
    delays = {name: UniformDelay(params.w_min)
              for name in workload.relation_names}
    engine = QueryEngine(workload.catalog, qep, make_policy("SEQ"), delays,
                         params=params, seed=1)
    return engine.run()


def test_engine_detects_injected_misestimate(tiny_fig5):
    result = _run_with_factor(tiny_fig5, 3.0)
    # J1 feeds J2's build (and propagates to J3): both get flagged.
    assert "J2" in result.reopt_opportunities


def test_engine_flags_nothing_with_exact_estimates(tiny_fig5):
    result = _run_with_factor(tiny_fig5, 1.0)
    assert result.reopt_opportunities == []


def test_engine_records_all_observations(tiny_fig5):
    result = _run_with_factor(tiny_fig5, 1.0)
    observations = result.statistics.observations()
    assert len(observations) == len(tiny_fig5.qep.joins)
    for obs in observations:
        assert obs.observed_build is not None
        assert obs.error_ratio == pytest.approx(1.0, rel=0.01)


def test_engine_records_rate_snapshots(tiny_fig5):
    result = _run_with_factor(tiny_fig5, 1.0)
    assert len(result.statistics.rate_history) == result.planning_phases
