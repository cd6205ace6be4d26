"""Integration tests: admission control and dynamic budget re-planning.

These exercise the PR's acceptance scenarios end to end on the Figure 5
workload:

* a query whose minimum working set does not fit the global pool is
  *queued* by the admission controller and admitted when a running
  query releases its lease;
* a running query that degraded a pipeline chain for lack of memory
  gets a grow offer when another query finishes, and its DQS re-plan
  stops the materialization (``reason: budget-grow``) — the degraded
  PC goes back to direct scheduling mid-flight.
"""

import pytest

from repro import (
    ConfigurationError,
    MultiQueryEngine,
    QuerySubmission,
    SimulationParameters,
    UniformDelay,
    make_policy,
)

KB = 1024


def sub(workload, name, strategy, wait, mem=None, mn=None, mx=None,
        priority=0.0, start=0.0):
    return QuerySubmission(
        name=name, catalog=workload.catalog, qep=workload.qep,
        policy=make_policy(strategy),
        delay_models={n: UniformDelay(wait)
                      for n in workload.relation_names},
        start_time=start, memory_bytes=mem, min_memory_bytes=mn,
        max_memory_bytes=mx, priority=priority)


@pytest.fixture
def params():
    return SimulationParameters().with_overrides(
        dynamic_budget_replanning=True)


def test_query_queued_until_lease_released(tiny_fig5, params):
    """Admission: a too-big second query waits for the first to finish."""
    engine = MultiQueryEngine(params=params, seed=11,
                              global_memory_bytes=240 * KB)
    engine.submit(sub(tiny_fig5, "running", "SEQ", params.w_min,
                      mem=180 * KB))
    # min 100K > the 60K spare left by "running": must queue.
    engine.submit(sub(tiny_fig5, "waiter", "SEQ", params.w_min,
                      mem=150 * KB, mn=100 * KB, mx=200 * KB,
                      start=0.001))
    result = engine.run()

    waiter = {o.name: o for o in result.outcomes}["waiter"]
    running = {o.name: o for o in result.outcomes}["running"]
    assert running.admission_wait == 0.0
    assert waiter.admission_wait > 0.0
    # Admitted right when the running query completed.
    assert waiter.admission_wait == pytest.approx(
        running.completion_time - 0.001)
    assert waiter.memory_granted_bytes >= 100 * KB
    assert result.queued_queries == 1
    assert result.mean_admission_wait > 0.0
    assert all(o.result_tuples == 1000 for o in result.outcomes)

    kinds = [(r.kind, r.subject) for r in result.decisions
             if r.kind in ("admit", "admission-queue")]
    assert ("admission-queue", "waiter") in kinds
    assert kinds.index(("admission-queue", "waiter")) \
        < kinds.index(("admit", "waiter"))


def test_budget_grow_reverses_memory_degradation(tiny_fig5, params):
    """Re-planning: a grow offer un-degrades a memory-blocked chain.

    The slow DSE query starts pinned at 60K — below chain pA's 80K build
    table — so the DQS degrades pA for memory.  When the fast query
    releases its lease the broker offers the freed bytes to the slow
    query, whose next planning phase stops MF(pA) with
    ``reason: budget-grow`` and schedules the chain directly again.
    """
    engine = MultiQueryEngine(params=params, seed=11,
                              global_memory_bytes=240 * KB)
    engine.submit(sub(tiny_fig5, "fast", "SEQ", params.w_min,
                      mem=180 * KB))
    engine.submit(sub(tiny_fig5, "slow", "DSE", 10 * params.w_min,
                      mem=60 * KB, mn=60 * KB, mx=240 * KB))
    result = engine.run()

    slow = {o.name: o for o in result.outcomes}["slow"]
    assert slow.result_tuples == 1000
    assert slow.budget_grows >= 1
    assert slow.memory_granted_bytes == 60 * KB

    def first(kind, **matches):
        for record in result.decisions:
            if record.kind != kind:
                continue
            if all(record.details.get(k) == v for k, v in matches.items()):
                return record
        return None

    blocked = first("degrade", memory_blocked=True)
    assert blocked is not None, "no memory-blocked degradation recorded"
    assert blocked.subject == "pA"
    assert blocked.details["needed_bytes"] > blocked.details[
        "available_bytes"]

    grow = first("lease-grow")
    assert grow is not None and grow.subject == "slow"
    assert grow.details["granted_bytes"] > 0

    undo = first("mf-stop", reason="budget-grow")
    assert undo is not None
    assert undo.details["chain"] == "pA"

    cf = first("cf-create", chain="pA")
    assert cf is not None

    # The causal chain holds in decision-time order: degraded while
    # pinned, grown when the fast query finished, un-degraded right
    # after, complement scheduled last.
    assert blocked.time < grow.time < undo.time <= cf.time


def test_min_working_set_exceeding_pool_rejected(tiny_fig5, params):
    engine = MultiQueryEngine(params=params, seed=1,
                              global_memory_bytes=100 * KB)
    engine.submit(sub(tiny_fig5, "huge", "SEQ", params.w_min,
                      mem=200 * KB, mn=200 * KB))
    with pytest.raises(ConfigurationError, match="exceeds the global"):
        engine.run()


def test_priority_admission_order(tiny_fig5, params):
    """Priority policy: the high-priority waiter is admitted first."""
    engine = MultiQueryEngine(params=params, seed=11,
                              global_memory_bytes=240 * KB,
                              admission="priority")
    engine.submit(sub(tiny_fig5, "running", "SEQ", params.w_min,
                      mem=180 * KB))
    engine.submit(sub(tiny_fig5, "meek", "SEQ", params.w_min,
                      mem=160 * KB, mn=160 * KB, priority=1.0,
                      start=0.001))
    engine.submit(sub(tiny_fig5, "vip", "SEQ", params.w_min,
                      mem=160 * KB, mn=160 * KB, priority=9.0,
                      start=0.002))
    result = engine.run()
    admits = [r.subject for r in result.decisions if r.kind == "admit"]
    assert admits.index("vip") < admits.index("meek")
    assert all(o.result_tuples == 1000 for o in result.outcomes)


def test_admission_none_keeps_private_budgets(tiny_fig5, params):
    """``admission='none'`` runs ungoverned even with a pool size set."""
    engine = MultiQueryEngine(params=params, seed=3,
                              global_memory_bytes=64 * KB,
                              admission="none")
    engine.submit(sub(tiny_fig5, "q", "SEQ", params.w_min))
    result = engine.run()
    assert {o.name: o for o in result.outcomes}["q"].admission_wait == 0.0
    assert not any(r.kind in ("admit", "admission-queue")
                   for r in result.decisions)


def test_unknown_admission_policy_rejected(params):
    with pytest.raises(ConfigurationError, match="unknown admission"):
        MultiQueryEngine(params=params, admission="lifo")


def test_submission_memory_validation(tiny_fig5):
    with pytest.raises(ConfigurationError, match="must be positive"):
        sub(tiny_fig5, "q", "SEQ", 1e-5, mem=0)
    with pytest.raises(ConfigurationError, match="must be positive"):
        sub(tiny_fig5, "q", "SEQ", 1e-5, mn=-1)
    with pytest.raises(ConfigurationError, match="exceeds max_memory_bytes"):
        sub(tiny_fig5, "q", "SEQ", 1e-5, mn=200, mx=100)
    with pytest.raises(ConfigurationError, match="below min_memory_bytes"):
        sub(tiny_fig5, "q", "SEQ", 1e-5, mem=100, mn=200, mx=300)
    with pytest.raises(ConfigurationError, match="exceeds max_memory_bytes"):
        sub(tiny_fig5, "q", "SEQ", 1e-5, mem=400, mn=200, mx=300)


def test_governed_payload_round_trip(tiny_fig5, params):
    """Decisions and admission outcomes survive the worker boundary."""
    from repro.parallel.results import (
        multiquery_result_from_payload,
        multiquery_result_to_payload,
    )

    engine = MultiQueryEngine(params=params, seed=11,
                              global_memory_bytes=240 * KB)
    engine.submit(sub(tiny_fig5, "fast", "SEQ", params.w_min,
                      mem=180 * KB))
    engine.submit(sub(tiny_fig5, "slow", "DSE", 10 * params.w_min,
                      mem=60 * KB, mn=60 * KB, mx=240 * KB))
    result = engine.run()
    rebuilt = multiquery_result_from_payload(
        multiquery_result_to_payload(result))
    assert {o.name: o for o in rebuilt.outcomes}["slow"].budget_grows \
        == {o.name: o for o in result.outcomes}["slow"].budget_grows
    assert {o.name: o for o in rebuilt.outcomes}["slow"].memory_peak_bytes \
        == {o.name: o for o in result.outcomes}["slow"].memory_peak_bytes
    assert [r.kind for r in rebuilt.decisions] \
        == [r.kind for r in result.decisions]
    assert rebuilt.queued_queries == result.queued_queries
