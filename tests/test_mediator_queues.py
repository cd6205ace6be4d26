"""Tests for the source queues (window protocol) and rate estimation."""

import pytest

from repro.common.errors import SimulationError
from repro.mediator import DeliveryRateEstimator, Message, SourceQueue


@pytest.fixture
def queue(sim):
    return SourceQueue(sim, "W", capacity_messages=2)


# --------------------------------------------------------------------------
# SourceQueue basics
# --------------------------------------------------------------------------

def test_put_take_roundtrip(queue):
    queue.put(Message(100))
    assert queue.tuples_available == 100
    assert queue.take_batch(60) == 60
    assert queue.take_batch(60) == 40
    assert queue.tuples_available == 0


def test_take_spans_messages(queue):
    queue.put(Message(30))
    queue.put(Message(30))
    assert queue.take_batch(50) == 50
    assert queue.tuples_available == 10


def test_full_and_window_protocol(queue, sim):
    queue.put(Message(10))
    queue.put(Message(10))
    assert queue.is_full
    space = queue.wait_not_full()
    sim.run()
    assert not space.triggered
    queue.take_batch(10)  # frees the first message slot
    sim.run()
    assert space.triggered


def test_wait_not_full_immediate_when_space(queue, sim):
    event = queue.wait_not_full()
    sim.run()
    assert event.triggered


def test_overflow_put_rejected(queue):
    queue.put(Message(1))
    queue.put(Message(1))
    with pytest.raises(SimulationError):
        queue.put(Message(1))


def test_eof_and_exhausted(queue):
    queue.put(Message(5, eof=True))
    assert queue.eof_received
    assert not queue.exhausted
    queue.take_batch(5)
    assert queue.exhausted


def test_data_after_eof_rejected(queue):
    queue.put(Message(5, eof=True))
    queue.take_batch(5)
    with pytest.raises(SimulationError):
        queue.put(Message(1))


def test_data_event_fires_on_arrival(queue, sim):
    event = queue.data_event()
    sim.run()
    assert not event.triggered
    queue.put(Message(3))
    sim.run()
    assert event.triggered and event.value == "W"


def test_data_event_immediate_when_data(queue, sim):
    queue.put(Message(3))
    event = queue.data_event()
    sim.run()
    assert event.triggered


def test_data_event_fires_for_eof_only_message(queue, sim):
    event = queue.data_event()
    queue.put(Message(0, eof=True))
    sim.run()
    assert event.triggered


def test_zero_batch_rejected(queue):
    with pytest.raises(SimulationError):
        queue.take_batch(0)


def test_message_negative_tuples_rejected():
    with pytest.raises(SimulationError):
        Message(-1)


def test_capacity_validation(sim):
    with pytest.raises(SimulationError):
        SourceQueue(sim, "W", capacity_messages=0)


# --------------------------------------------------------------------------
# DeliveryRateEstimator
# --------------------------------------------------------------------------

def test_estimator_uses_production_time(sim):
    est = DeliveryRateEstimator(sim, "W", alpha=1.0)
    est.on_arrival(100, production_seconds=0.002)
    assert est.wait_estimate == pytest.approx(2e-5)
    assert est.delivery_rate == pytest.approx(50_000)


def test_estimator_ewma_smoothing(sim):
    est = DeliveryRateEstimator(sim, "W", alpha=0.5)
    est.on_arrival(100, production_seconds=0.001)   # 10 us
    est.on_arrival(100, production_seconds=0.003)   # 30 us
    assert est.wait_estimate == pytest.approx(2e-5)


def test_estimator_no_data_yet(sim):
    est = DeliveryRateEstimator(sim, "W")
    assert est.wait_estimate is None
    assert est.delivery_rate is None
    assert est.wait_or(42.0) == 42.0


def test_estimator_counts_tuples(sim):
    est = DeliveryRateEstimator(sim, "W")
    est.on_arrival(10, production_seconds=0.1)
    est.on_arrival(5, production_seconds=0.1)
    assert est.tuples_delivered == 15
    assert est.messages_delivered == 2


def test_estimator_empty_message_ignored_for_rate(sim):
    est = DeliveryRateEstimator(sim, "W")
    est.on_arrival(0, production_seconds=0.0)
    assert est.wait_estimate is None
    assert est.messages_delivered == 1


def test_estimator_alpha_validation(sim):
    from repro.common.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        DeliveryRateEstimator(sim, "W", alpha=0.0)


def test_estimator_negative_production_rejected(sim):
    from repro.common.errors import ConfigurationError
    est = DeliveryRateEstimator(sim, "W")
    with pytest.raises(ConfigurationError):
        est.on_arrival(1, production_seconds=-0.1)
