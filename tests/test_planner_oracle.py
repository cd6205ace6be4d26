"""The incremental planner returns exactly what the full planner did.

Planning keeps what changes only on an event (the C-schedulable set, the
chains the DSE may degrade, the open MFs, the wait snapshot, the fresh
build observations) and updates it where the event happens.  Every
scenario here runs twice on the same seed: once on the shipped planner
and once on the full one that re-derives everything each phase
(``tests/reference_planner.py``).  The two must agree phase by phase —
the admitted fragments in order, the overflow fragment, the priorities
— and on everything the run reports: decision records with their
``decision_inputs`` floats, rate history and every ``ExecutionResult``
field.  Random plans come from ``repro.query``
(2-6 relations); delays are uniform or jittered; memory is static,
tight enough to force DQO splits, or a governed lease with dynamic
budget re-planning.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CostModel,
    DynamicProgrammingOptimizer,
    QueryEngine,
    QueryGenerator,
    SimulationParameters,
    UniformDelay,
    build_qep,
    make_policy,
)
from repro.common.errors import ReproError
from repro.core.dqs import DynamicQueryScheduler
from repro.core.multiquery import MultiQueryEngine, QuerySubmission
from repro.experiments import figure5_workload
from repro.wrappers import InitialDelay, JitteredDelay
from tests.reference_planner import install

STRATEGIES = ("DSE", "DSE-ND", "MA", "SEQ")
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _qep(seed, relations, shape, misestimate):
    generator = QueryGenerator(np.random.default_rng(seed),
                               min_cardinality=1_000, max_cardinality=12_000)
    workload = generator.generate(relations, shape=shape)
    tree = DynamicProgrammingOptimizer(
        CostModel(workload.catalog)).optimize(workload.query)
    factors = None
    if misestimate != 1.0 and relations > 2:
        # A wrong fanout on the first join: later builds come out
        # misestimated, the DQO flags them and may swap a pending join.
        first = build_qep(workload.catalog, tree)
        factors = {next(iter(first.joins)): misestimate}
    qep = build_qep(workload.catalog, tree, actual_output_factors=factors)
    return workload, qep


def _delays(workload, seed, jittered):
    """A per-relation wait from sparse to dense, uniform or jittered."""
    rng = np.random.default_rng(seed)
    models = {}
    for name in workload.relation_names:
        wait = float(10 ** rng.uniform(-6, -3.5))
        models[name] = (JitteredDelay(wait, float(rng.uniform(0.2, 1.0)))
                        if jittered else UniformDelay(wait))
    return models


def _record(monkeypatch, plans):
    """Append every plan's (query, fragments, overflow, priorities)."""
    real = DynamicQueryScheduler.plan

    def recording(self):
        sp = real(self)
        plans.append((self.runtime.world.memory.name,
                      [fragment.name for fragment in sp.fragments],
                      sp.overflow_fragment.name
                      if sp.overflow_fragment is not None else None,
                      dict(sp.priorities)))
        return sp
    monkeypatch.setattr(DynamicQueryScheduler, "plan", recording)


def _both(run):
    """``(shipped, reference)``: each side's plans and what ``run()``
    returned, or the error it raised."""
    sides = []
    for reference in (False, True):
        plans: list = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            if reference:
                install(monkeypatch)
            _record(monkeypatch, plans)
            try:
                outcome = run()
            except ReproError as error:
                outcome = repr(error)
        sides.append((plans, outcome))
    return sides


def _result_fields(result):
    """Every ``ExecutionResult`` field, the statistics unpacked."""
    fields = {field.name: getattr(result, field.name)
              for field in dataclasses.fields(result)
              if field.name not in ("statistics", "metrics")}
    fields["rate_history"] = result.statistics.rate_history
    fields["observations"] = result.statistics.observations()
    return fields


def _assert_same(shipped, reference):
    (shipped_plans, shipped_outcome), (reference_plans, reference_outcome) = \
        shipped, reference
    assert shipped_plans, "no planning phase ran"
    for phase, (mine, theirs) in enumerate(zip(shipped_plans,
                                               reference_plans)):
        assert mine == theirs, f"plan {phase + 1} differs"
    assert len(shipped_plans) == len(reference_plans), "plan count differs"
    assert shipped_outcome == reference_outcome


@SETTINGS
@given(seed=st.integers(0, 10_000), relations=st.integers(2, 6),
       shape=st.sampled_from(["chain", "star", "tree"]),
       strategy=st.sampled_from(STRATEGIES), jittered=st.booleans(),
       tight=st.sampled_from([0, 1.2, 1.6, 2.5]),
       misestimate=st.sampled_from([1.0, 0.1, 10.0]),
       reoptimize=st.booleans())
def test_one_query_plans_the_same(seed, relations, shape, strategy, jittered,
                                  tight, misestimate, reoptimize):
    workload, qep = _qep(seed, relations, shape, misestimate)
    params = SimulationParameters(enable_reoptimization=reoptimize)
    if tight:
        # About the largest table: the DQO has to split fragments (or
        # rightly gives up when a continuation cannot fit either).
        largest = max(join.estimated_build_cardinality * params.tuple_size
                      for join in qep.joins.values())
        params = params.with_overrides(query_memory_bytes=int(
            largest * tight) + params.page_size)

    def run():
        result = QueryEngine(workload.catalog, qep, make_policy(strategy),
                             _delays(workload, seed, jittered), params=params,
                             seed=seed).run()
        return _result_fields(result)

    _assert_same(*_both(run))


@SETTINGS
@given(seed=st.integers(0, 10_000), relations=st.integers(2, 6),
       strategies=st.lists(st.sampled_from(STRATEGIES), min_size=2,
                           max_size=3),
       jittered=st.booleans(), pool_tables=st.floats(1.2, 3.0))
def test_governed_leases_plan_the_same(seed, relations, strategies, jittered,
                                       pool_tables):
    """Queries sharing a governed pool with dynamic budget re-planning:
    DSE degrades memory-blocked chains and reverts them on a grow."""
    workload, qep = _qep(seed, relations, "tree", 1.0)
    params = SimulationParameters(dynamic_budget_replanning=True,
                                  telemetry_spans=True)
    largest = max(int(join.estimated_build_cardinality * params.tuple_size)
                  for join in qep.joins.values())
    floor = largest + 16 * params.page_size
    pool = int(floor * pool_tables) + floor

    def run():
        engine = MultiQueryEngine(params=params, seed=seed,
                                  global_memory_bytes=pool,
                                  admission="priority")
        for index, strategy in enumerate(strategies):
            engine.submit(QuerySubmission(
                name=f"Q{index}", catalog=workload.catalog, qep=qep,
                policy=make_policy(strategy),
                delay_models=_delays(workload, seed + index, jittered),
                start_time=index * 1e-3, memory_bytes=floor,
                min_memory_bytes=floor, max_memory_bytes=pool))
        result = engine.run()
        return (result.outcomes, result.makespan, result.cpu_busy_time,
                result.disk_busy_time, result.decisions, result.spans)

    _assert_same(*_both(run))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("factor,reoptimize", [(1.0, False), (3.0, True)])
def test_figure5_plans_the_same(strategy, factor, reoptimize):
    """The paper's plan with a slow, jittered source A; with J1's fanout
    misestimated the DQO swaps pending joins mid-run under SEQ and
    DSE-ND, which re-derives the planning state from the new plan."""
    workload = figure5_workload(scale=0.05)
    qep = build_qep(workload.catalog, workload.tree,
                    actual_output_factors={"J1": factor})
    params = SimulationParameters(enable_reoptimization=reoptimize)

    def run():
        delays = {name: JitteredDelay(params.w_min, 1.0)
                  for name in workload.relation_names}
        delays["A"] = JitteredDelay(params.w_min * 10, 1.0)
        return _result_fields(QueryEngine(
            workload.catalog, qep, make_policy(strategy), delays,
            params=params, seed=7).run())

    shipped, reference = _both(run)
    _assert_same(shipped, reference)
    assert bool(shipped[1]["reopt_swaps"]) == (
        reoptimize and strategy in ("SEQ", "DSE-ND"))


def test_a_chain_unblocked_before_its_source_shows_slow():
    """D says nothing for 50 ms, then turns out slow.  By then pE is
    complete and pD runs, so the DSE must no longer count pD among the
    chains it may degrade (``bmt`` 2 keeps every chain at ``w_min``
    undegraded until then)."""
    workload = figure5_workload(scale=0.05)
    params = SimulationParameters(bmt=2.0)

    def run():
        delays = {name: UniformDelay(params.w_min)
                  for name in workload.relation_names}
        delays["D"] = InitialDelay(0.05, UniformDelay(params.w_min * 5))
        return _result_fields(QueryEngine(
            workload.catalog, workload.qep, make_policy("DSE"), delays,
            params=params, seed=7).run())

    shipped, reference = _both(run)
    _assert_same(shipped, reference)
    assert shipped[1]["degradations"] == 0
