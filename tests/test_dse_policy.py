"""Unit tests for the DSE policy internals: banding, degradation gating,
stop decisions."""

import pytest

from repro.config import SimulationParameters
from repro.core.dqs import DynamicQueryScheduler
from repro.core.fragments import FragmentKind
from repro.core.runtime import QueryRuntime, World
from repro.core.strategies import DsePolicy
from repro.mediator.queues import Message


def make_runtime(qep, **overrides):
    params = SimulationParameters().with_overrides(**overrides)
    world = World(params, seed=11)
    for name in qep.source_relations():
        world.cm.register_source(name)
    return QueryRuntime(world, qep)


def set_wait(rt, source, wait, tuples=100):
    """Teach the estimator that ``source`` delivers at ``wait`` s/tuple.

    Keeps the delivered count small so the chains still have plenty of
    undelivered tuples (the degradation guard skips nearly-exhausted
    sources).
    """
    rt.world.cm.estimator(source).on_arrival(
        tuples, production_seconds=wait * tuples)


# --------------------------------------------------------------------------
# Candidate selection and ordering
# --------------------------------------------------------------------------

def test_only_c_schedulable_selected(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep, bmt=1e12)  # degradation off
    policy = DsePolicy()
    names = {f.name for f in policy.select(rt)}
    # Only the dependency-free chains are candidates initially.
    assert names == {"pA", "pE"}


def test_sparse_fragment_outranks_dense(tiny_fig5):
    """A slow (sparse) source's fragment sorts above w_min (dense) ones."""
    rt = make_runtime(tiny_fig5.qep, bmt=1e12)
    set_wait(rt, "A", 500e-6)   # very slow: c/w tiny -> sparse band
    set_wait(rt, "E", 20e-6)    # w_min: dense band
    order = [f.name for f in DsePolicy().select(rt)]
    assert order.index("pA") < order.index("pE")


def test_dense_band_prefers_iterator_order(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep, bmt=1e12)
    set_wait(rt, "A", 20e-6)
    set_wait(rt, "E", 20e-6)
    order = [f.name for f in DsePolicy().select(rt)]
    assert order == ["pA", "pE"]


def test_local_fragments_sort_last(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep)
    chain = tiny_fig5.qep.chain("pB")
    mf = rt.degrade_chain(chain)
    # Finish the MF so the CF exists.
    queue = rt.world.cm.queue("B")
    queue.put(Message(queue.capacity_messages * 0 + 100, eof=True))
    rt.ensure_hash_table(mf)  # no table needed, but harmless

    def run_mf():
        outcome = yield from mf.process_batch(10_000)
        return outcome

    rt.world.sim.process(run_mf())
    rt.world.sim.run()
    rt.advance_degraded_chains()
    # pA must be completed for CF(pB) to be schedulable.
    pa = rt.fragments["pA"]
    rt.ensure_hash_table(pa)
    rt.world.cm.queue("A").put(Message(2000, eof=True))

    def run_pa():
        outcome = yield from pa.process_batch(10_000)
        return outcome

    rt.world.sim.process(run_pa())
    rt.world.sim.run()

    order = [f.name for f in DsePolicy().select(rt)]
    assert order[-1] == "CF(pB)"  # local replay: data always there, last


# --------------------------------------------------------------------------
# Degradation gating
# --------------------------------------------------------------------------

def test_no_degradation_when_not_critical(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep)
    for name in tiny_fig5.relation_names:
        set_wait(rt, name, 2e-6)  # faster than the engine: not critical
    DsePolicy().select(rt)
    assert rt.degraded_chains == set()


def test_no_degradation_below_bmt(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep, bmt=1e12)
    for name in tiny_fig5.relation_names:
        set_wait(rt, name, 100e-6)
    DsePolicy().select(rt)
    assert rt.degraded_chains == set()


def test_degrades_blocked_critical_chains(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep, bmt=1.0)
    for name in tiny_fig5.relation_names:
        set_wait(rt, name, 100e-6)  # slow: critical and bmi >> 1
    policy = DsePolicy()
    policy.select(rt)
    # Non-C-schedulable chains degraded; schedulable ones (pA, pE) not.
    # (pC's relation is smaller than two messages at this scale, so the
    # nearly-exhausted guard correctly skips it.)
    assert "pA" not in rt.degraded_chains
    assert "pE" not in rt.degraded_chains
    assert {"pB", "pF", "pD"} <= rt.degraded_chains


def test_no_degradation_for_nearly_exhausted_source(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep, bmt=1.0)
    # Everything already delivered: nothing left to materialize.
    for name in tiny_fig5.relation_names:
        cardinality = tiny_fig5.catalog.relation(name).cardinality
        set_wait(rt, name, 100e-6, tuples=cardinality)
    DsePolicy().select(rt)
    assert rt.degraded_chains == set()


def complete(rt, fragment):
    """Run ``fragment`` through its end of stream, as the DQP would:
    the runtime's lifecycle hooks then record what that completes."""
    rt.ensure_hash_table(fragment)
    rt.world.cm.queue(fragment.source.source).put(Message(0, eof=True))

    def run():
        outcome = yield from fragment.process_batch(10_000)
        return outcome

    rt.world.sim.process(run())
    rt.world.sim.run()


def test_stop_requested_once_schedulable(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep)
    rt.degrade_chain(tiny_fig5.qep.chain("pB"))
    mf = rt.chain_fragments["pB"][0]
    assert mf.kind is FragmentKind.MATERIALIZATION
    policy = DsePolicy()
    policy.select(rt)
    assert not mf.stop_requested  # pA not complete yet
    complete(rt, rt.fragments["pA"])
    assert rt.chain_complete("pA")
    policy.select(rt)
    assert mf.stop_requested


def test_priorities_exposed_for_tracing(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep, bmt=1e12)
    policy = DsePolicy()
    selected = policy.select(rt)
    priorities = policy.priorities(rt)
    assert set(priorities) == {f.name for f in selected}


def test_plan_snapshot_feeds_statistics(tiny_fig5):
    rt = make_runtime(tiny_fig5.qep, bmt=1e12)
    scheduler = DynamicQueryScheduler(rt, DsePolicy())
    scheduler.plan()
    assert len(rt.statistics.rate_history) == 1
