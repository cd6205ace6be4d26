"""End-to-end integration tests for the query engine."""

import pytest

from repro import (
    ConfigurationError,
    QueryEngine,
    SimulationParameters,
    UniformDelay,
    make_policy,
)
from repro.wrappers import ConstantDelay, InitialDelay, BurstyDelay


def make_engine(workload, strategy="DSE", seed=1, delay_models=None,
                **overrides):
    params = SimulationParameters().with_overrides(**overrides)
    if delay_models is None:
        delay_models = {name: UniformDelay(params.w_min)
                        for name in workload.relation_names}
    return QueryEngine(workload.catalog, workload.qep, make_policy(strategy),
                       delay_models, params=params, seed=seed)


def test_missing_delay_model_rejected(tiny_fig5):
    with pytest.raises(ConfigurationError, match="no delay model"):
        QueryEngine(tiny_fig5.catalog, tiny_fig5.qep, make_policy("SEQ"),
                    {"A": UniformDelay(1e-5)})


def test_result_is_deterministic_per_seed(tiny_fig5):
    first = make_engine(tiny_fig5, seed=7).run()
    second = make_engine(tiny_fig5, seed=7).run()
    assert first.response_time == second.response_time
    assert first.result_tuples == second.result_tuples
    assert first.batches_processed == second.batches_processed


def test_different_seeds_vary_response(tiny_fig5):
    first = make_engine(tiny_fig5, seed=1).run()
    second = make_engine(tiny_fig5, seed=2).run()
    # Same result count, (almost surely) different timings.
    assert first.result_tuples == second.result_tuples
    assert first.response_time != second.response_time


def test_engine_reusable_across_runs(tiny_fig5):
    engine = make_engine(tiny_fig5)
    first = engine.run()
    second = engine.run()
    assert first.result_tuples == second.result_tuples


def test_stateful_delay_models_reset_between_runs(tiny_fig5):
    delays = {name: ConstantDelay(1e-5) for name in tiny_fig5.relation_names}
    delays["A"] = InitialDelay(0.05, ConstantDelay(1e-5))
    engine = make_engine(tiny_fig5, strategy="SEQ", delay_models=delays)
    first = engine.run()
    second = engine.run()
    # Without reset() the initial delay would vanish on the second run.
    assert second.response_time == pytest.approx(first.response_time, rel=0.05)
    assert first.response_time > 0.05


def test_cpu_utilization_reported(tiny_fig5):
    result = make_engine(tiny_fig5).run()
    assert 0.0 < result.cpu_utilization <= 1.0
    assert result.cpu_busy_time == pytest.approx(
        result.cpu_utilization * result.response_time)


def test_wrapper_stats_complete(tiny_fig5):
    result = make_engine(tiny_fig5).run()
    assert set(result.wrapper_stats) == set(tiny_fig5.relation_names)
    for name, (sent, production, blocked) in result.wrapper_stats.items():
        assert sent == tiny_fig5.catalog.relation(name).cardinality
        assert production >= 0 and blocked >= 0


def test_summary_renders(tiny_fig5):
    result = make_engine(tiny_fig5).run()
    text = result.summary()
    assert "DSE" in text and "tuples" in text


def test_initial_delay_hidden_by_dse(mini_fig5):
    """DSE overlaps an initial delay on A with other work.

    A is the *first* chain in iterator order, so SEQ sits idle for the
    whole initial delay — the scrambling papers' motivating case.
    """
    def delays():
        models = {name: UniformDelay(20e-6)
                  for name in mini_fig5.relation_names}
        models["A"] = InitialDelay(0.5, UniformDelay(20e-6))
        return models

    seq = make_engine(mini_fig5, "SEQ", delay_models=delays()).run()
    dse = make_engine(mini_fig5, "DSE", delay_models=delays()).run()
    assert dse.response_time < seq.response_time


def test_bursty_arrival_hidden_by_dse(mini_fig5):
    def delays():
        models = {name: UniformDelay(20e-6)
                  for name in mini_fig5.relation_names}
        models["F"] = BurstyDelay(burst_tuples=2000, gap=0.1,
                                  within_burst_wait=10e-6)
        return models

    seq = make_engine(mini_fig5, "SEQ", delay_models=delays()).run()
    dse = make_engine(mini_fig5, "DSE", delay_models=delays()).run()
    assert dse.response_time < seq.response_time


def test_slow_delivery_hidden_by_dse(mini_fig5):
    """The paper's headline case: regular but slow delivery."""
    def delays():
        models = {name: UniformDelay(20e-6)
                  for name in mini_fig5.relation_names}
        models["F"] = UniformDelay(200e-6)
        return models

    seq = make_engine(mini_fig5, "SEQ", delay_models=delays()).run()
    dse = make_engine(mini_fig5, "DSE", delay_models=delays()).run()
    assert dse.response_time < seq.response_time


def test_memory_constrained_run_still_correct(mini_fig5):
    """A budget forcing splits must not change the result.

    At 10% scale, SEQ's peak residency is ~880 KB (pF probes J2 while
    building the 480 KB final table); 850 KB forces exactly that chain
    to split.
    """
    roomy = make_engine(mini_fig5, "SEQ").run()
    budget = 850 * 1024
    tight = make_engine(mini_fig5, "SEQ", query_memory_bytes=budget).run()
    assert tight.result_tuples == roomy.result_tuples
    assert tight.memory_splits >= 1
    assert tight.memory_peak_bytes <= budget


def test_dse_memory_constrained_correct(mini_fig5):
    roomy = make_engine(mini_fig5, "DSE").run()
    tight = make_engine(mini_fig5, "DSE",
                        query_memory_bytes=1024 * 1024).run()
    assert tight.result_tuples == roomy.result_tuples
    assert tight.memory_peak_bytes <= 1024 * 1024


def test_single_relation_query(small_catalog):
    """Degenerate plan: one scan straight to output."""
    from repro.plan import build_qep
    from repro.query import JoinTree
    qep = build_qep(small_catalog, JoinTree.leaf("R"))
    params = SimulationParameters()
    engine = QueryEngine(small_catalog, qep, make_policy("SEQ"),
                         {"R": UniformDelay(params.w_min)}, params=params)
    result = engine.run()
    assert result.result_tuples == 1000


def test_generated_workload_end_to_end():
    """Random query -> DP optimizer -> QEP -> all three strategies agree."""
    import numpy as np
    from repro import CostModel, DynamicProgrammingOptimizer, QueryGenerator
    from repro.plan import build_qep

    gen = QueryGenerator(np.random.default_rng(3),
                         min_cardinality=2000, max_cardinality=4000)
    workload = gen.generate(5, shape="tree")
    tree = DynamicProgrammingOptimizer(
        CostModel(workload.catalog)).optimize(workload.query)
    qep = build_qep(workload.catalog, tree)
    params = SimulationParameters()
    delays = lambda: {name: UniformDelay(params.w_min)
                      for name in workload.relation_names}
    counts = set()
    for strategy in ["SEQ", "MA", "DSE"]:
        engine = QueryEngine(workload.catalog, qep, make_policy(strategy),
                             delays(), params=params, seed=4)
        counts.add(engine.run().result_tuples)
    assert len(counts) == 1


# -- the one query lifecycle (QueryRun) --------------------------------------

def test_source_failure_surfaces_from_the_one_shot_engine(
        tiny_fig5, breaking_delays, params):
    """Default parameters: nothing caps the TimeOut loop, so the run
    only returns because the dead source's stream was closed."""
    from repro import SimulationError

    engine = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep,
                         make_policy("DSE"),
                         breaking_delays(tiny_fig5, params),
                         params=params, seed=1)
    with pytest.raises(SimulationError,
                       match="source 'A' failed mid-stream") as raised:
        engine.run()
    assert isinstance(raised.value.__cause__, RuntimeError)


def make_run(workload, strategy="SEQ"):
    from repro.core.engine import QueryRun, seeded_wrappers
    from repro.core.runtime import World

    params = SimulationParameters()
    world = World(params, seed=1)
    delays = {name: UniformDelay(params.w_min)
              for name in workload.relation_names}
    return QueryRun(world, workload.qep, make_policy(strategy),
                    seeded_wrappers(world, workload.catalog, delays))


@pytest.mark.parametrize("shape", ["start", "drive"])
def test_query_run_cannot_attach_twice(tiny_fig5, shape):
    from repro import SimulationError

    run = make_run(tiny_fig5)
    if shape == "start":
        run.start()
    else:
        run.world.sim.process(run.drive(), name="launcher")
    run.world.sim.run()
    assert run.result().result_tuples == 1000
    with pytest.raises(SimulationError, match="started twice"):
        run.start()
    with pytest.raises(SimulationError, match="started twice"):
        next(run.drive())


def test_query_run_result_before_completion_is_an_error(tiny_fig5):
    from repro import SimulationError

    run = make_run(tiny_fig5)
    with pytest.raises(SimulationError, match="has not finished"):
        run.result()
    run.start()
    with pytest.raises(SimulationError, match="has not finished"):
        run.result()
    run.world.sim.run()
    assert run.result().response_time > 0
