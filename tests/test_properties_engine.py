"""Property-based tests over whole executions.

These are the big invariants of the system: every strategy computes the
same answer on any workload; conservation laws hold (spilled = reloaded,
sent = consumed); the analytic bound really bounds; plan revisions
preserve semantics.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    CostModel,
    DynamicProgrammingOptimizer,
    QueryEngine,
    QueryGenerator,
    SimulationParameters,
    SymmetricHashJoinEngine,
    UniformDelay,
    build_qep,
    lower_bound,
    make_policy,
)
from repro.core.strategies.lwb import lower_bound as lwb
from repro.plan.reopt import swap_join_sides
from repro.plan.validation import validate_qep


def _workload(seed, num_relations=4):
    gen = QueryGenerator(np.random.default_rng(seed),
                         min_cardinality=500, max_cardinality=3000)
    workload = gen.generate(num_relations, shape="tree")
    tree = DynamicProgrammingOptimizer(
        CostModel(workload.catalog)).optimize(workload.query)
    qep = build_qep(workload.catalog, tree)
    return workload, tree, qep


def _delays(workload, rng, w_range=(5e-6, 100e-6)):
    return {name: UniformDelay(float(rng.uniform(*w_range)))
            for name in workload.relation_names}


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=5))
def test_all_strategies_agree_on_any_workload(seed, num_relations):
    workload, tree, qep = _workload(seed, num_relations)
    params = SimulationParameters()
    rng = np.random.default_rng(seed + 1)
    waits = {name: float(rng.uniform(5e-6, 100e-6))
             for name in workload.relation_names}

    # The analytic bound uses distribution *means*; a single run's
    # sampled delays can fall below them, so allow the retrieval term's
    # sampling deviation (sum of n uniforms: sigma = w * sqrt(n/3)).
    noise = 4 * max(
        waits[name] * np.sqrt(workload.catalog.relation(name).cardinality / 3)
        for name in workload.relation_names)
    bound = lwb(qep, waits, params) - noise

    counts = {}
    for strategy in ["SEQ", "MA", "DSE", "DSE-ND"]:
        delays = {name: UniformDelay(wait) for name, wait in waits.items()}
        engine = QueryEngine(workload.catalog, qep, make_policy(strategy),
                             delays, params=params, seed=seed)
        result = engine.run()
        counts[strategy] = result.result_tuples
        assert bound <= result.response_time, strategy
    assert len(set(counts.values())) == 1, counts

    # DPHJ converges to the same count.  Its expectation model carries
    # fractional tuples per stream; terminal remainders are amplified by
    # downstream fanouts, so small workloads see a few percent of drift.
    delays = {name: UniformDelay(wait) for name, wait in waits.items()}
    dphj = SymmetricHashJoinEngine(workload.catalog, tree, delays,
                                   params=params, seed=seed).run()
    expected = counts["SEQ"]
    assert dphj.result_tuples == pytest.approx(expected,
                                               abs=max(10, expected * 0.03))


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_spill_reload_conservation(seed):
    """Everything MA spills is reloaded exactly once."""
    workload, _tree, qep = _workload(seed, 4)
    params = SimulationParameters()
    delays = {name: UniformDelay(20e-6) for name in workload.relation_names}
    engine = QueryEngine(workload.catalog, qep, make_policy("MA"), delays,
                         params=params, seed=seed)
    result = engine.run()
    assert result.tuples_spilled == result.tuples_reloaded
    total = sum(workload.catalog.relation(n).cardinality
                for n in workload.relation_names)
    assert result.tuples_spilled == total


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_wrappers_deliver_everything(seed):
    workload, _tree, qep = _workload(seed, 4)
    params = SimulationParameters()
    delays = {name: UniformDelay(20e-6) for name in workload.relation_names}
    engine = QueryEngine(workload.catalog, qep, make_policy("DSE"), delays,
                         params=params, seed=seed)
    result = engine.run()
    for name, (sent, _production, _blocked) in result.wrapper_stats.items():
        assert sent == workload.catalog.relation(name).cardinality


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=6))
def test_any_single_swap_preserves_plan_semantics(seed, num_relations):
    """Swapping any join of any optimized plan keeps it valid with the
    same estimated (and actual) output cardinality."""
    workload, _tree, qep = _workload(seed, num_relations)
    for join_name in list(qep.joins):
        swapped = swap_join_sides(qep, join_name, tuple_size=40)
        validate_qep(swapped)
        assert (swapped.root.estimated_output_cardinality
                == pytest.approx(qep.root.estimated_output_cardinality))
        new_join = swapped.joins[join_name]
        old_join = qep.joins[join_name]
        assert new_join.build_relations == old_join.probe_relations
        assert (new_join.actual_probe_cardinality * new_join.actual_fanout()
                == pytest.approx(old_join.actual_probe_cardinality
                                 * old_join.actual_fanout(), rel=1e-9))


def _floor_drift_bound(qep) -> float:
    """Result tuples ``qep`` can withhold to flooring: each probe of the
    root chain keeps a fractional carry of < 1 tuple, which every probe
    downstream of it would have multiplied by its fanout."""
    bound, downstream = 0.0, 1.0
    for join in reversed(qep.root.probe_joins()):
        bound += downstream
        downstream *= join.actual_fanout()
    return bound


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=0, max_value=10_000))
@example(5891)  # 920 vs 924: red under the former constant abs=3
@example(945)   # 3583 vs 3593
@example(2254)  # 2933 vs 2942
def test_swap_executes_correctly_end_to_end(seed):
    """Executing a swapped plan yields the same result as the original.

    Fractional fanouts accumulate over the *other* side's stream after a
    swap, and an early ±1 floor shift is multiplied by downstream
    fanouts, so each plan falls short of the exact cardinality by less
    than its :func:`_floor_drift_bound`; anything beyond the larger of
    the two would be a real defect.
    """
    workload, _tree, qep = _workload(seed, 4)
    params = SimulationParameters()
    join_name = list(qep.joins)[0]
    swapped = swap_join_sides(qep, join_name, tuple_size=40)

    def run(plan):
        delays = {name: UniformDelay(20e-6)
                  for name in workload.relation_names}
        return QueryEngine(workload.catalog, plan, make_policy("SEQ"),
                           delays, params=params, seed=seed).run()

    drift = max(_floor_drift_bound(qep), _floor_drift_bound(swapped))
    assert abs(run(swapped).result_tuples - run(qep).result_tuples) <= drift


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=0, max_value=10_000))
def test_memory_peak_never_exceeds_budget(seed):
    workload, _tree, qep = _workload(seed, 4)
    params = SimulationParameters()
    # A budget a bit above the largest single table (so the query is
    # feasible) but likely below the unconstrained peak.
    largest = max(int(j.estimated_build_cardinality * 40) + 8192
                  for j in qep.joins.values())
    floor = _memory_floor(qep)
    budget = max(largest * 2, floor + 64 * 1024)
    tight = params.with_overrides(query_memory_bytes=budget)
    delays = {name: UniformDelay(20e-6) for name in workload.relation_names}
    result = QueryEngine(workload.catalog, qep, make_policy("SEQ"), delays,
                         params=tight, seed=seed).run()
    assert result.memory_peak_bytes <= budget


def _memory_floor(qep) -> int:
    """Co-resident tables the root chain needs, the plan's hard floor."""
    return sum(int(j.estimated_build_cardinality * 40) + 8192
               for j in qep.root.probe_joins())
