"""Final coverage batch: composites, scheduling-plan helpers, reprs."""

import pytest

from repro import SimulationParameters
from repro.common.errors import SimulationError
from repro.core.dqp import SchedulingPlan
from repro.core.runtime import QueryRuntime, World
from repro.sim import Simulator


# --------------------------------------------------------------------------
# Kernel composites: failure propagation
# --------------------------------------------------------------------------

def test_any_of_failing_child_fails_composite():
    sim = Simulator()
    bad = sim.event()
    good = sim.timeout(10.0)
    caught = []

    def waiter():
        try:
            yield sim.any_of([bad, good])
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    bad.fail(ValueError("child died"))
    sim.run()
    assert caught == ["child died"]


def test_all_of_failing_child_fails_composite():
    sim = Simulator()
    bad = sim.event()
    good = sim.timeout(1.0)
    caught = []

    def waiter():
        try:
            yield sim.all_of([good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    bad.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_remove_callback_prevents_invocation():
    sim = Simulator()
    event = sim.event()
    calls = []

    def callback(ev):
        calls.append(ev)

    event.add_callback(callback)
    event.remove_callback(callback)
    event.remove_callback(callback)  # absent: no-op
    event.succeed()
    sim.run()
    assert calls == []


def test_reprs_are_stable():
    sim = Simulator()
    assert "Simulator" in repr(sim)
    event = sim.event("gate")
    assert "gate" in repr(event)
    event.succeed()
    sim.run()
    assert "processed" in repr(event)


# --------------------------------------------------------------------------
# SchedulingPlan helpers
# --------------------------------------------------------------------------

@pytest.fixture
def rt(small_qep):
    world = World(SimulationParameters(), seed=41)
    for name in small_qep.source_relations():
        world.cm.register_source(name)
    return QueryRuntime(world, small_qep)


def test_scheduling_plan_live(rt):
    fragments = [rt.fragments["pR"]]
    sp = SchedulingPlan(fragments, priorities={"pR": 1.25})
    assert sp.live() == fragments
    assert SchedulingPlan([]).live() == []


def test_runtime_reprs(rt):
    assert "pending" in repr(rt.fragments["pR"])
    assert "QueryRuntime" not in repr(rt.fragments["pR"])  # fragment repr


# --------------------------------------------------------------------------
# Queue misc
# --------------------------------------------------------------------------

def test_queue_repr_states(rt):
    from repro.mediator.queues import Message
    queue = rt.world.cm.queue("R")
    assert "0 tuples" in repr(queue)
    queue.put(Message(5, eof=True))
    assert "eof=True" in repr(queue)


def test_estimator_repr(rt):
    estimator = rt.world.cm.estimator("R")
    assert "w=?" in repr(estimator)
    estimator.on_arrival(10, production_seconds=1e-4)
    assert "tuples=10" in repr(estimator)
