"""Tests for double-pipelined (symmetric) hash joins — the operator-level
adaptation comparator of Section 1.1."""

import pytest

from repro import (
    ConfigurationError,
    MemoryOverflowError,
    QueryEngine,
    SimulationParameters,
    SymmetricHashJoinEngine,
    UniformDelay,
    make_policy,
)
from repro.core.symmetric import LEFT, RIGHT, SymmetricPlan
from repro.query import JoinTree


# --------------------------------------------------------------------------
# SymmetricPlan structure
# --------------------------------------------------------------------------

def test_plan_one_join_per_tree_node(tiny_fig5):
    plan = SymmetricPlan(tiny_fig5.catalog, tiny_fig5.tree)
    assert len(plan.joins) == 5
    assert set(plan.paths) == set(tiny_fig5.relation_names)


def test_paths_are_leaf_to_root(tiny_fig5):
    plan = SymmetricPlan(tiny_fig5.catalog, tiny_fig5.tree)
    root = plan.joins[-1]
    for path in plan.paths.values():
        # Every path ends at the root join.
        assert path.steps[-1][0] is root
        # Relation sets widen monotonically along the path.
        sizes = [len(join.left_relations) + len(join.right_relations)
                 for join, _ in path.steps]
        assert sizes == sorted(sizes)


def test_path_sides_match_tree(small_catalog, small_tree):
    plan = SymmetricPlan(small_catalog, small_tree)
    j1 = plan.joins[0]
    assert plan.paths["R"].steps[0] == (j1, LEFT)
    assert plan.paths["S"].steps[0] == (j1, RIGHT)
    root = plan.joins[-1]
    assert plan.paths["T"].steps == [(root, RIGHT)]


def test_plan_rejects_cross_product(small_catalog):
    tree = JoinTree.join(JoinTree.leaf("R"), JoinTree.leaf("T"))
    with pytest.raises(ConfigurationError):
        SymmetricPlan(small_catalog, tree)


def test_total_table_bytes(small_catalog, small_tree):
    plan = SymmetricPlan(small_catalog, small_tree)
    # J1: R(1000) + S(2000); root: RS(2000) + T(1500); x 40 bytes.
    assert plan.total_table_bytes() == (1000 + 2000 + 2000 + 1500) * 40


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def run_dphj(workload, waits=None, seed=1, **overrides):
    params = SimulationParameters().with_overrides(**overrides)
    if waits is None:
        waits = {name: params.w_min for name in workload.relation_names}
    delays = {name: UniformDelay(wait) for name, wait in waits.items()}
    return SymmetricHashJoinEngine(workload.catalog, workload.tree, delays,
                                   params=params, seed=seed).run()


def test_result_count_matches_asymmetric(tiny_fig5):
    result = run_dphj(tiny_fig5)
    # The expectation model converges to the exact count up to the
    # rounding carried at each level.
    assert result.result_tuples == pytest.approx(1000, abs=5)


def test_result_independent_of_delays(tiny_fig5):
    waits = {name: 20e-6 for name in tiny_fig5.relation_names}
    waits["A"] = 400e-6
    slowed = run_dphj(tiny_fig5, waits=waits)
    normal = run_dphj(tiny_fig5)
    assert slowed.result_tuples == pytest.approx(normal.result_tuples, abs=5)


def test_dphj_absorbs_slow_source_like_dse(mini_fig5):
    """Under a slow source, DPHJ avoids SEQ's stalls (that is its point)."""
    waits = {name: 20e-6 for name in mini_fig5.relation_names}
    waits["A"] = 200e-6
    params = SimulationParameters()
    delays = {n: UniformDelay(w) for n, w in waits.items()}
    seq = QueryEngine(mini_fig5.catalog, mini_fig5.qep, make_policy("SEQ"),
                      delays, params=params, seed=1).run()
    dphj = run_dphj(mini_fig5, waits=waits)
    assert dphj.response_time < seq.response_time


def test_dphj_memory_is_both_sides_everywhere(tiny_fig5):
    """DPHJ's known weakness: every table of both sides stays resident."""
    dphj = run_dphj(tiny_fig5)
    params = SimulationParameters()
    delays = {n: UniformDelay(params.w_min) for n in tiny_fig5.relation_names}
    dse = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep, make_policy("DSE"),
                      delays, params=params, seed=1).run()
    assert dphj.memory_peak_bytes > 2 * dse.memory_peak_bytes


def test_dphj_refuses_insufficient_memory(tiny_fig5):
    plan_bytes = SymmetricPlan(tiny_fig5.catalog,
                               tiny_fig5.tree).total_table_bytes()
    with pytest.raises(MemoryOverflowError):
        run_dphj(tiny_fig5, query_memory_bytes=plan_bytes // 2)


def test_dphj_missing_delay_model(tiny_fig5):
    with pytest.raises(ConfigurationError):
        SymmetricHashJoinEngine(tiny_fig5.catalog, tiny_fig5.tree,
                                {"A": UniformDelay(1e-5)})


def test_dphj_deterministic(tiny_fig5):
    first = run_dphj(tiny_fig5, seed=9)
    second = run_dphj(tiny_fig5, seed=9)
    assert first.response_time == second.response_time
    assert first.result_tuples == second.result_tuples


def test_dphj_machine_keeps_no_metrics_registry(tiny_fig5,
                                                machines_built_by):
    """``SymmetricResult`` returns no registry, so the run's machine keeps
    none even when the params turn telemetry on; the run is unchanged."""
    import repro.core.symmetric as module

    machines = machines_built_by(module)
    on = run_dphj(tiny_fig5, telemetry_enabled=True)
    off = run_dphj(tiny_fig5)
    assert len(machines) == 2
    assert [len(m.telemetry.registry) for m in machines] == [0, 0]
    assert on == off


def test_dphj_single_relation(small_catalog):
    params = SimulationParameters()
    engine = SymmetricHashJoinEngine(
        small_catalog, JoinTree.leaf("R"),
        {"R": UniformDelay(params.w_min)}, params=params)
    result = engine.run()
    assert result.result_tuples == 1000
