"""Tests for the experiment harness (workloads, runners, sweeps, report)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.experiments import (
    figure5_workload,
    format_table,
    run_once,
    run_slowdown_experiment,
    run_uniform_slowdown_experiment,
    slowdown_waits,
)
from repro.experiments.runner import (
    measure_points,
    point_specs,
    resolve_repetitions,
    run_point_specs,
)
from repro.parallel.spec import uniform_delay_specs
from repro.plan import ancestor_closure, validate_qep
from repro.wrappers import UniformDelay


@pytest.fixture
def fast_params():
    return SimulationParameters()


def delay_factory_for(workload, params):
    def factory():
        return {name: UniformDelay(params.w_min)
                for name in workload.relation_names}
    return factory


# --------------------------------------------------------------------------
# Figure 5 workload
# --------------------------------------------------------------------------

def test_figure5_structure():
    workload = figure5_workload()
    validate_qep(workload.qep)
    assert sorted(workload.relation_names) == ["A", "B", "C", "D", "E", "F"]
    # 4 medium, 2 small (paper).
    cards = {r.name: r.cardinality for r in workload.catalog}
    mediums = [n for n, c in cards.items() if 100_000 <= c <= 200_000]
    smalls = [n for n, c in cards.items() if 10_000 <= c <= 20_000]
    assert len(mediums) == 4 and len(smalls) == 2


def test_figure5_paper_constraints():
    workload = figure5_workload()
    closure = ancestor_closure(workload.qep)
    assert {"pB", "pF"} <= {name for name, anc in closure.items()
                            if "pA" in anc}
    assert all("pC" not in ancestors for name, ancestors in closure.items())


def test_figure5_result_cardinality():
    workload = figure5_workload()
    assert workload.qep.root.estimated_output_cardinality == pytest.approx(
        50_000, rel=1e-6)


def test_figure5_scaling():
    workload = figure5_workload(scale=0.1)
    assert workload.catalog.relation("A").cardinality == 10_000
    assert workload.qep.root.estimated_output_cardinality == pytest.approx(
        5000, rel=1e-6)


def test_figure5_scale_validation():
    for scale in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="scale must be"):
            figure5_workload(scale=scale)


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------

def test_run_once(tiny_fig5, fast_params):
    result = run_once(tiny_fig5.catalog, tiny_fig5.qep, "SEQ",
                      delay_factory_for(tiny_fig5, fast_params), fast_params)
    assert result.result_tuples == 1000


def measure_uniform(workload, params, strategies, reps, base_seed=0):
    """Run every strategy ``reps`` times at ``w_min`` and fold the runs."""
    waits = {name: params.w_min for name in workload.relation_names}
    specs = point_specs(strategies, workload.scale, workload.tuple_size,
                        uniform_delay_specs(waits), params, reps,
                        base_seed=base_seed)
    results = run_point_specs(specs)
    return specs, results, measure_points(strategies, results, reps)


def test_average_response_time_repeats(tiny_fig5, fast_params):
    """Seeded repetitions of one strategy fold back into their mean."""
    reps = 3
    specs, results, measured = measure_uniform(
        tiny_fig5, fast_params, ["SEQ"], reps, base_seed=4)
    assert [spec.seed for spec in specs] == [4, 5, 6]
    point = measured["SEQ"]
    assert point.repetitions == reps
    assert point.response_time == pytest.approx(
        sum(run.response_time for run in results) / reps)
    assert point.response_time > 0


def test_run_strategies_compares(tiny_fig5, fast_params):
    """Strategy-major runs fold back into one mean per strategy."""
    strategies, reps = ["SEQ", "DSE"], 2
    specs, results, measured = measure_uniform(
        tiny_fig5, fast_params, strategies, reps)
    assert [spec.seed for spec in specs] == [0, 1] * 2
    assert set(measured) == {"SEQ", "DSE"}
    for s, strategy in enumerate(strategies):
        runs = results[s * reps:(s + 1) * reps]
        assert {run.strategy for run in runs} == {strategy}
        point = measured[strategy]
        assert point.repetitions == reps
        assert point.response_time == pytest.approx(
            sum(run.response_time for run in runs) / reps)


def test_repetitions_validation(fast_params):
    assert resolve_repetitions(fast_params, None) == fast_params.repetitions
    assert resolve_repetitions(fast_params, 2) == 2
    for bad in (0, -1):
        with pytest.raises(ConfigurationError,
                           match="repetitions must be >= 1"):
            resolve_repetitions(fast_params, bad)


# --------------------------------------------------------------------------
# Slowdown sweeps (fig 6/7 machinery)
# --------------------------------------------------------------------------

def test_slowdown_waits_computation(fast_params):
    workload = figure5_workload()
    waits = slowdown_waits(workload, "A", 8.0, fast_params)
    assert waits["A"] == pytest.approx(8.0 / 100_000)
    assert waits["B"] == fast_params.w_min


def test_slowdown_waits_floor_at_w_min(fast_params):
    workload = figure5_workload()
    waits = slowdown_waits(workload, "A", 0.0, fast_params)
    assert waits["A"] == fast_params.w_min


def test_slowdown_experiment_shape(fast_params):
    workload = figure5_workload(scale=0.02)
    points = run_slowdown_experiment(workload, "F", [0.05, 0.3], fast_params,
                                     repetitions=1)
    assert len(points) == 2
    for point in points:
        assert set(point.response_times) == {"SEQ", "MA", "DSE"}
        # 1% slack: LWB is on expected delays, runs are sampled.
        assert point.lwb <= min(point.response_times.values()) * 1.01
    # SEQ grows with the slowdown.
    assert (points[1].response_times["SEQ"]
            > points[0].response_times["SEQ"])


def test_slowdown_unknown_relation_rejected(fast_params):
    workload = figure5_workload(scale=0.02)
    with pytest.raises(ConfigurationError, match="unknown relation 'Z'"):
        run_slowdown_experiment(workload, "Z", [1.0], fast_params)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_slowdown_rejects_a_bad_retrieval_time(bad, fast_params):
    """Clamped to w_min, the row would run at w_min under a bad label."""
    workload = figure5_workload(scale=0.02)
    with pytest.raises(ConfigurationError,
                       match="retrieval times must be finite and >= 0"):
        run_slowdown_experiment(workload, "A", [1.0, bad], fast_params)


def test_uniform_slowdown_gain(fast_params):
    workload = figure5_workload(scale=0.02)
    points = run_uniform_slowdown_experiment(
        workload, [5e-6, 60e-6], fast_params, repetitions=1)
    assert len(points) == 2
    # At 60 us everyone is slow: DSE gains clearly (the margin is smaller
    # at 2% scale, where fixed overheads weigh more).
    assert points[1].gain > 0.1
    # Gains grow with w (paper Figure 8).
    assert points[1].gain > points[0].gain


# --------------------------------------------------------------------------
# Report formatting
# --------------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["a", "long_header"], [["1", "2"], ["333", "4"]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    assert len(lines) == 5


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["1"]])
