"""Tests for multi-query execution on a shared mediator."""

import json
import zlib

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    MultiQueryEngine,
    QuerySubmission,
    SimulationParameters,
    UniformDelay,
    make_policy,
)


def submission(workload, params, name="Q1", strategy="SEQ", start=0.0,
               memory=None, wait=None):
    wait = wait if wait is not None else params.w_min
    return QuerySubmission(
        name=name, catalog=workload.catalog, qep=workload.qep,
        policy=make_policy(strategy),
        delay_models={n: UniformDelay(wait)
                      for n in workload.relation_names},
        start_time=start, memory_bytes=memory)


@pytest.fixture
def params():
    return SimulationParameters()


class OwnStreamDelay(UniformDelay):
    """Uniform waits drawn from the model's own per-relation stream.

    The one-shot engine labels a wrapper's RNG stream ``wrapper:<rel>``,
    the multi-query launcher ``<query>:wrapper:<rel>``; drawing from a
    private stream gives both front-ends the same delays.
    """

    def __init__(self, mean, relation):
        super().__init__(mean)
        self.relation = relation
        self.reset()

    def reset(self):
        self.stream = np.random.default_rng(
            zlib.crc32(self.relation.encode()))

    def waiting_times(self, count, rng):
        return super().waiting_times(count, self.stream)


def test_single_query_matches_single_engine(tiny_fig5, params):
    """One lifecycle: the same seeded query through the one-shot
    front-end and through an ungoverned single submission is the same
    execution, to the bit."""
    from repro import QueryEngine

    def delays():
        return {name: OwnStreamDelay(
                    params.w_min * (10 if name == "A" else 1), name)
                for name in tiny_fig5.relation_names}

    for strategy in ("SEQ", "MA", "DSE"):
        single = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep,
                             make_policy(strategy), delays(), params=params,
                             seed=1).run()
        multi = MultiQueryEngine(params=params, seed=1)
        multi.submit(QuerySubmission(
            name="Q1", catalog=tiny_fig5.catalog, qep=tiny_fig5.qep,
            policy=make_policy(strategy), delay_models=delays()))
        result = multi.run()
        assert len(result.outcomes) == 1
        outcome = result.outcomes[0]
        assert outcome.result_tuples == single.result_tuples == 1000
        assert outcome.planning_phases == single.planning_phases
        assert outcome.degradations == single.degradations
        # Equal batches: every batch charges CPU and moves the clock, so
        # bit-equal completion and stall times leave no room for a
        # different batch sequence.
        assert outcome.completion_time == single.response_time
        assert outcome.stall_time == single.stall_time
        assert result.makespan == outcome.response_time


def test_source_failure_returns_the_lease(tiny_fig5, breaking_delays,
                                          params, machines_built_by):
    """One lifecycle: a source dying mid-stream fails the run, and the
    machine's query bracket still gives the query's lease back to the
    pool."""
    import repro.core.multiquery as module
    from repro import SimulationError

    machines = machines_built_by(module)
    engine = MultiQueryEngine(params=params, seed=1,
                              global_memory_bytes=64 << 20)
    engine.submit(QuerySubmission(
        name="Q1", catalog=tiny_fig5.catalog, qep=tiny_fig5.qep,
        policy=make_policy("DSE"), memory_bytes=8 << 20,
        delay_models=breaking_delays(tiny_fig5, params)))
    with pytest.raises(SimulationError,
                       match="source 'A' failed mid-stream"):
        engine.run()
    (machine,) = machines
    assert machine.broker.governed and machine.broker.leased_bytes == 0


def test_source_failure_fails_its_own_query_only(tiny_fig5,
                                                 breaking_delays,
                                                 machines_built_by):
    """Q1's source dies mid-stream on a pool that holds one lease: Q1
    fails naming the source, Q2 — queued behind it — is admitted, runs
    to completion, and the pool ends empty.  (The kernel's ``process
    'wrapper:A' died`` used to replace both results.)"""
    import repro.core.multiquery as module
    from repro import SimulationError
    from repro.observability import SPAN_QUERY

    machines = machines_built_by(module)
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_spans=True)
    engine = MultiQueryEngine(params=params, seed=1,
                              global_memory_bytes=8 << 20)
    engine.submit(QuerySubmission(
        name="Q1", catalog=tiny_fig5.catalog, qep=tiny_fig5.qep,
        policy=make_policy("DSE"), memory_bytes=8 << 20,
        delay_models=breaking_delays(tiny_fig5, params)))
    engine.submit(submission(tiny_fig5, params, name="Q2", strategy="DSE",
                             memory=8 << 20))
    with pytest.raises(SimulationError,
                       match="'Q1': source 'A' failed mid-stream"):
        engine.run()
    (machine,) = machines
    telemetry = machine.telemetry
    assert [record.subject for record in telemetry.audit
            if record.kind == "admission-queue"] == ["Q2"]
    results = {span.name: span.attrs.get("result_tuples")
               for span in [span for span in telemetry.spans.spans if span.kind == SPAN_QUERY]}
    assert results["Q2"] == 1000
    assert machine.broker.leased_bytes == 0


def _governed_run(workload, telemetry):
    """Two DSE queries on a pool that queues the second one, spans on."""
    params = SimulationParameters(telemetry_enabled=telemetry,
                                  telemetry_spans=True,
                                  dynamic_budget_replanning=True)
    engine = MultiQueryEngine(params=params, seed=11,
                              global_memory_bytes=240 << 10,
                              admission="priority")
    engine.submit(submission(workload, params, name="Q1", strategy="DSE",
                             memory=180 << 10))
    engine.submit(submission(workload, params, name="Q2", strategy="DSE",
                             start=0.001, memory=150 << 10))
    return engine.run()


def test_machine_keeps_no_metrics_registry(tiny_fig5, machines_built_by):
    """``MultiQueryResult`` returns no registry, so the run's machine
    keeps none even when the params turn telemetry on."""
    import repro.core.multiquery as module

    machines = machines_built_by(module)
    result = _governed_run(tiny_fig5, telemetry=True)
    assert [o.result_tuples for o in result.outcomes] == [1000, 1000]
    assert result.queued_queries == 1
    (machine,) = machines
    assert len(machine.telemetry.registry) == 0


def test_spans_are_byte_identical_with_telemetry_on_or_off(tiny_fig5):
    """Turning the registry switch on changes no recorded span."""
    from repro.observability.spans import spans_payload

    on, off = (_governed_run(tiny_fig5, telemetry=flag)
               for flag in (True, False))
    assert on.spans and on.outcomes == off.outcomes
    assert json.dumps(spans_payload(on.spans)) \
        == json.dumps(spans_payload(off.spans))


def test_no_submissions_rejected(params):
    with pytest.raises(ConfigurationError):
        MultiQueryEngine(params=params).run()


def test_duplicate_names_rejected(tiny_fig5, params):
    engine = MultiQueryEngine(params=params)
    engine.submit(submission(tiny_fig5, params, name="Q"))
    with pytest.raises(ConfigurationError):
        engine.submit(submission(tiny_fig5, params, name="Q"))


def test_concurrent_queries_all_complete(tiny_fig5, params):
    engine = MultiQueryEngine(params=params, seed=2)
    for i in range(3):
        engine.submit(submission(tiny_fig5, params, name=f"Q{i}",
                                 strategy="DSE"))
    result = engine.run()
    assert len(result.outcomes) == 3
    assert all(o.result_tuples == 1000 for o in result.outcomes)
    assert result.throughput > 0


def test_contention_slows_queries_down(tiny_fig5, params):
    solo = MultiQueryEngine(params=params, seed=3)
    solo.submit(submission(tiny_fig5, params, name="alone"))
    alone = solo.run().outcomes[0].response_time

    crowd = MultiQueryEngine(params=params, seed=3)
    for i in range(4):
        crowd.submit(submission(tiny_fig5, params, name=f"Q{i}"))
    slowest = crowd.run().max_response_time
    assert slowest > alone  # shared CPU: somebody waits


def test_staggered_start_times(tiny_fig5, params):
    engine = MultiQueryEngine(params=params, seed=4)
    engine.submit(submission(tiny_fig5, params, name="early", start=0.0))
    engine.submit(submission(tiny_fig5, params, name="late", start=0.5))
    result = engine.run()
    late = {o.name: o for o in result.outcomes}["late"]
    assert late.start_time == pytest.approx(0.5)
    assert late.completion_time > 0.5
    assert result.makespan >= late.completion_time - 1e-9


def test_negative_start_rejected(tiny_fig5, params):
    with pytest.raises(ConfigurationError):
        submission(tiny_fig5, params, start=-1.0)


@pytest.mark.parametrize("start", [float("nan"), float("inf")])
def test_non_finite_start_rejected(tiny_fig5, params, start):
    with pytest.raises(ConfigurationError, match="finite"):
        submission(tiny_fig5, params, start=start)


def test_per_query_memory_budgets(tiny_fig5, params):
    """One query gets a tight budget and must split; the other is roomy."""
    engine = MultiQueryEngine(params=params, seed=5)
    engine.submit(submission(tiny_fig5, params, name="roomy"))
    # At 2% scale the peak residency is ~176 KB (J2+J3 during pF) and the
    # floor ~144 KB; 150 KB forces at least one split but stays feasible.
    engine.submit(submission(tiny_fig5, params, name="tight",
                             memory=150 * 1024))
    result = engine.run()
    assert {o.name: o for o in result.outcomes}["tight"].memory_splits >= 1
    assert {o.name: o for o in result.outcomes}["roomy"].memory_splits == 0
    assert all(o.result_tuples == 1000 for o in result.outcomes)


def test_mixed_strategies(tiny_fig5, params):
    engine = MultiQueryEngine(params=params, seed=6)
    engine.submit(submission(tiny_fig5, params, name="seq", strategy="SEQ"))
    engine.submit(submission(tiny_fig5, params, name="dse", strategy="DSE"))
    result = engine.run()
    assert {o.name: o for o in result.outcomes}["seq"].strategy == "SEQ"
    assert {o.name: o for o in result.outcomes}["dse"].strategy == "DSE"
    assert all(o.result_tuples == 1000 for o in result.outcomes)


def test_deterministic(tiny_fig5, params):
    def run():
        engine = MultiQueryEngine(params=params, seed=7)
        for i in range(2):
            engine.submit(submission(tiny_fig5, params, name=f"Q{i}",
                                     strategy="DSE"))
        result = engine.run()
        return [(o.name, o.response_time) for o in result.outcomes]

    assert run() == run()
