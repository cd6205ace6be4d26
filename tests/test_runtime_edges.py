"""Additional edge-path tests for the runtime and multi-query engine."""

import pytest

from repro import (
    MultiQueryEngine,
    QueryEngine,
    QuerySubmission,
    SimulationParameters,
    UniformDelay,
    make_policy,
)
from repro.catalog import Catalog, JoinStatistics, Relation
from repro.common.errors import SchedulingError
from repro.core.fragments import FragmentStatus
from repro.core.runtime import QueryRuntime, World
from repro.mediator.queues import Message
from repro.plan import build_qep
from repro.query import JoinTree


@pytest.fixture
def rt(small_qep):
    world = World(SimulationParameters(), seed=21)
    for name in small_qep.source_relations():
        world.cm.register_source(name)
    return QueryRuntime(world, small_qep)


def drive(rt, fragment, max_tuples=10_000):
    def once():
        outcome = yield from fragment.process_batch(max_tuples)
        return outcome

    proc = rt.world.sim.process(once())
    rt.world.sim.run()
    assert proc.failure is None, proc.failure
    return proc.value


# --------------------------------------------------------------------------
# Runtime edges
# --------------------------------------------------------------------------

def test_request_stop_on_non_degraded_chain_rejected(rt, small_qep):
    with pytest.raises(SchedulingError):
        rt.request_stop_materialization(small_qep.chain("pR"))


def test_request_stop_idempotent(rt, small_qep):
    rt.degrade_chain(small_qep.chain("pS"))
    rt.request_stop_materialization(small_qep.chain("pS"))
    rt.request_stop_materialization(small_qep.chain("pS"))  # no error
    assert "pS" in rt.stopped_materializations


def test_advance_skips_running_mfs(rt, small_qep):
    rt.degrade_chain(small_qep.chain("pS"))
    assert rt.advance_degraded_chains() == []  # MF not done yet
    assert rt.fragments["pS"].suspended


def test_advance_idempotent_after_cf_created(rt, small_qep):
    mf = rt.degrade_chain(small_qep.chain("pS"))
    rt.world.cm.queue("S").put(Message(100, eof=True))
    drive(rt, mf)
    first = rt.advance_degraded_chains()
    assert [f.name for f in first] == ["CF(pS)"]
    assert rt.advance_degraded_chains() == []


def test_live_fragments_excludes_done(rt):
    fragment = rt.fragments["pR"]
    rt.ensure_hash_table(fragment)
    rt.world.cm.queue("R").put(Message(1000, eof=True))
    drive(rt, fragment)
    assert fragment.status is FragmentStatus.DONE
    assert fragment not in rt.live_fragments()


def test_remaining_source_tuples_tracks_delivery(rt, small_qep):
    chain = small_qep.chain("pR")
    assert rt.remaining_source_tuples(chain) == 1000
    rt.world.cm.estimator("R").on_arrival(300, production_seconds=0.01)
    assert rt.remaining_source_tuples(chain) == 700


def test_memory_temp_destroyed_after_cf(rt, small_qep):
    """A consumed MF temp is destroyed (memory/cache freed)."""
    mf = rt.degrade_chain(small_qep.chain("pS"))
    rt.world.cm.queue("S").put(Message(500, eof=True))
    drive(rt, mf)
    rt.advance_degraded_chains()
    # Complete pR so CF(pS) can run.
    pr = rt.fragments["pR"]
    rt.ensure_hash_table(pr)
    rt.world.cm.queue("R").put(Message(1000, eof=True))
    drive(rt, pr)
    cf = rt.fragments["CF(pS)"]
    rt.ensure_hash_table(cf)
    while cf.status is not FragmentStatus.DONE:
        drive(rt, cf)
    assert cf.source.temp.destroyed


# --------------------------------------------------------------------------
# Multi-query with heterogeneous workloads
# --------------------------------------------------------------------------

def test_multiquery_mixed_workloads(tiny_fig5, small_catalog, small_tree):
    params = SimulationParameters()
    engine = MultiQueryEngine(params=params, seed=31)
    engine.submit(QuerySubmission(
        name="fig5", catalog=tiny_fig5.catalog, qep=tiny_fig5.qep,
        policy=make_policy("DSE"),
        delay_models={n: UniformDelay(params.w_min)
                      for n in tiny_fig5.relation_names}))
    small_qep = build_qep(small_catalog, small_tree)
    engine.submit(QuerySubmission(
        name="rst", catalog=small_catalog, qep=small_qep,
        policy=make_policy("SEQ"),
        delay_models={n: UniformDelay(params.w_min) for n in "RST"}))
    result = engine.run()
    assert {o.name: o for o in result.outcomes}["fig5"].result_tuples == 1000
    assert {o.name: o for o in result.outcomes}["rst"].result_tuples == 1500


def test_multiquery_shares_disk_extents(tiny_fig5):
    """Two MA queries spill concurrently without extent collisions."""
    params = SimulationParameters()
    engine = MultiQueryEngine(params=params, seed=32)
    for i in range(2):
        engine.submit(QuerySubmission(
            name=f"Q{i}", catalog=tiny_fig5.catalog, qep=tiny_fig5.qep,
            policy=make_policy("MA"),
            delay_models={n: UniformDelay(params.w_min)
                          for n in tiny_fig5.relation_names}))
    result = engine.run()
    assert all(o.result_tuples == 1000 for o in result.outcomes)


# --------------------------------------------------------------------------
# Engine misc
# --------------------------------------------------------------------------

def test_two_relation_plan_runs_every_strategy():
    stats = JoinStatistics({("X", "Y"): 1e-4})
    catalog = Catalog([Relation("X", 3000), Relation("Y", 4000)], stats)
    qep = build_qep(catalog, JoinTree.join(JoinTree.leaf("X"),
                                           JoinTree.leaf("Y")))
    params = SimulationParameters()
    counts = set()
    for strategy in ["SEQ", "MA", "DSE", "DSE-ND"]:
        delays = {n: UniformDelay(params.w_min) for n in ("X", "Y")}
        result = QueryEngine(catalog, qep, make_policy(strategy), delays,
                             params=params, seed=2).run()
        counts.add(result.result_tuples)
    # All strategies agree; the expected 1200 loses one tuple to the
    # floating-point floor at the accumulation boundary (0.3 * 4000).
    assert len(counts) == 1
    assert counts.pop() == pytest.approx(1200, abs=1)
