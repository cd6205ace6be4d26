"""Tests for the communication manager and the wrapper processes."""

import pytest

from repro.catalog import Relation
from repro.common.errors import SimulationError
from repro.config import SimulationParameters
from repro.core.runtime import World
from repro.wrappers import ConstantDelay, UniformDelay
from repro.wrappers.source import Wrapper


def make_world(**overrides):
    params = SimulationParameters().with_overrides(**overrides)
    return World(params, seed=42)


def start_wrapper(world, relation, model):
    wrapper = Wrapper(world.sim, relation, model, world.cm,
                      world.rng(f"wrapper:{relation.name}"), world.params)
    wrapper.start()
    return wrapper


# --------------------------------------------------------------------------
# CommunicationManager
# --------------------------------------------------------------------------

def test_register_source_creates_queue_and_estimator():
    world = make_world()
    queue = world.cm.register_source("W")
    assert world.cm.queue("W") is queue
    assert world.cm.estimator("W").tuples_delivered == 0


def test_register_twice_rejected():
    world = make_world()
    world.cm.register_source("W")
    with pytest.raises(SimulationError):
        world.cm.register_source("W")


def test_unknown_source_rejected():
    world = make_world()
    with pytest.raises(SimulationError):
        world.cm.queue("Z")


def test_deliver_charges_receive_cpu():
    world = make_world()
    world.cm.register_source("W")

    def producer():
        yield from world.cm.deliver("W", 100, eof=True,
                                    production_seconds=0.0)

    world.sim.process(producer())
    world.sim.run()
    expected = world.params.instructions_seconds(
        world.params.message_instructions)
    assert world.cpu.busy_time == pytest.approx(expected)
    assert world.cm.queue("W").tuples_available == 100


def test_close_ends_the_stream_without_a_modelled_message():
    """``close`` costs the model nothing: no receive CPU, no received
    message, no rate sample — only the queue learns the stream ended."""
    world = make_world(telemetry_enabled=True)
    world.cm.register_source("W")
    seen = []

    def producer():
        yield from world.cm.deliver("W", 100, eof=False,
                                    production_seconds=0.002)
        seen.append((world.sim.now, world.cpu.busy_time))
        yield from world.cm.close("W")
        seen.append((world.sim.now, world.cpu.busy_time))

    world.sim.process(producer())
    world.sim.run()
    assert seen[0] == seen[1]
    queue, estimator = world.cm.queue("W"), world.cm.estimator("W")
    assert queue.eof_received and queue.tuples_available == 100
    assert estimator.messages_delivered == 1
    assert estimator.wait_estimate == pytest.approx(0.002 / 100)
    registry = world.telemetry.registry
    assert registry.get("cm.messages_received").value == 1
    assert queue.take_batch(100) == 100 and queue.exhausted


def test_close_respects_a_full_queue():
    """The end marker obeys the window protocol like any message."""
    world = make_world()
    queue = world.cm.register_source("W")

    def producer():
        for _ in range(world.params.queue_capacity_messages):
            yield from world.cm.deliver("W", 10, eof=False)
        yield from world.cm.close("W")

    world.sim.process(producer())
    world.sim.run()
    assert queue.is_full and not queue.eof_received
    queue.take_batch(10)  # frees one slot
    world.sim.run()
    assert queue.eof_received


def test_rate_change_listener_fires():
    world = make_world(rate_change_threshold=0.5)
    world.cm.register_source("W")
    changes = []
    world.cm.set_rate_listener(lambda s, old, new: changes.append((s, old, new)))

    def producer():
        # Establish a baseline of 10 us/tuple, then slow to 100 us/tuple.
        for _ in range(5):
            yield from world.cm.deliver("W", 100, eof=False,
                                        production_seconds=0.001)
            world.cm.queue("W").take_batch(100)
        world.cm.arm_rate_baseline()
        for _ in range(5):
            yield from world.cm.deliver("W", 100, eof=False,
                                        production_seconds=0.01)
            world.cm.queue("W").take_batch(100)

    world.sim.process(producer())
    world.sim.run()
    assert changes
    source, old, new = changes[0]
    assert source == "W" and new > old


def test_no_rate_change_without_baseline():
    world = make_world()
    world.cm.register_source("W")
    changes = []
    world.cm.set_rate_listener(lambda *a: changes.append(a))

    def producer():
        yield from world.cm.deliver("W", 100, eof=False,
                                    production_seconds=0.001)
        yield from world.cm.deliver("W", 100, eof=False,
                                    production_seconds=0.1)

    world.sim.process(producer())
    world.sim.run()
    assert changes == []  # baseline never armed


def test_wait_snapshot_defaults():
    world = make_world()
    world.cm.register_source("W")
    snapshot = world.cm.wait_snapshot(default=7.0)
    assert snapshot == {"W": 7.0}


# --------------------------------------------------------------------------
# Wrapper
# --------------------------------------------------------------------------

def test_wrapper_ships_whole_relation():
    world = make_world()
    relation = Relation("W", 1000)
    wrapper = start_wrapper(world, relation, ConstantDelay(0.0))

    def consumer():
        queue = world.cm.queue("W")
        consumed = 0
        while consumed < 1000:
            yield queue.data_event()
            consumed += queue.take_batch(10_000)
        return consumed

    proc = world.sim.process(consumer())
    world.sim.run()
    assert proc.value == 1000
    assert wrapper.tuples_sent == 1000
    assert world.cm.queue("W").exhausted


def test_wrapper_production_time_matches_delay_model():
    world = make_world()
    relation = Relation("W", 500)
    wrapper = start_wrapper(world, relation, ConstantDelay(1e-4))

    def consumer():
        queue = world.cm.queue("W")
        while not queue.exhausted:
            yield queue.data_event()
            queue.take_batch(10_000)

    world.sim.process(consumer())
    world.sim.run()
    assert wrapper.production_time == pytest.approx(500 * 1e-4)
    assert wrapper.finished_at >= 500 * 1e-4


def test_wrapper_empty_relation_sends_eof():
    world = make_world()
    start_wrapper(world, Relation("W", 0), ConstantDelay(0.0))
    world.sim.run()
    queue = world.cm.queue("W")
    assert queue.eof_received and queue.exhausted


def test_wrapper_blocks_on_full_queue():
    world = make_world(queue_capacity_messages=1)
    relation = Relation("W", 5000)
    wrapper = start_wrapper(world, relation, ConstantDelay(0.0))
    world.sim.run(until=1.0)
    # Nobody consumes: at most 1 queued message + 2 in the outbound
    # pipeline + 1 in production.
    per_message = world.params.tuples_per_message
    assert wrapper.tuples_sent <= per_message
    assert world.cm.queue("W").is_full


def test_wrapper_start_twice_rejected():
    world = make_world()
    wrapper = Wrapper(world.sim, Relation("W", 10), ConstantDelay(0.0),
                      world.cm, world.rng("w"), world.params)
    wrapper.start()
    with pytest.raises(SimulationError):
        wrapper.start()


def test_a_wrapper_needs_a_generator_exactly_when_its_model_draws():
    """``DelayModel.draws`` is the contract: a source that cannot draw
    ships its whole relation with no generator at all, and one that can
    is refused at construction, not at its first message."""
    from repro.common.errors import ConfigurationError
    from repro.wrappers import JitteredDelay

    world = make_world()
    for model in (UniformDelay(5e-5), JitteredDelay(5e-5, 0.5)):
        with pytest.raises(ConfigurationError, match="needs a generator"):
            Wrapper(world.sim, Relation("W", 10), model, world.cm, None,
                    world.params)
    assert "W" not in world.cm.queues  # refused before anything registered
    relation = Relation("W", 500)
    wrapper = Wrapper(world.sim, relation, JitteredDelay(0.0, 0.5),
                      world.cm, None, world.params)
    wrapper.start()

    def consumer():
        queue = world.cm.queue("W")
        while not queue.exhausted:
            if queue.has_data():
                queue.take_batch(10_000)
            else:
                yield queue.data_event()

    world.sim.process(consumer())
    world.sim.run()
    assert wrapper.error is None and wrapper.tuples_sent == 500
    assert wrapper.production_time == 0.0


def test_wrapper_rate_estimate_converges():
    world = make_world()
    relation = Relation("W", 20_000)
    start_wrapper(world, relation, UniformDelay(5e-5))

    def consumer():
        queue = world.cm.queue("W")
        while not queue.exhausted:
            yield queue.data_event()
            queue.take_batch(10_000)

    world.sim.process(consumer())
    world.sim.run()
    estimate = world.cm.estimator("W").wait_estimate
    assert estimate == pytest.approx(5e-5, rel=0.25)
