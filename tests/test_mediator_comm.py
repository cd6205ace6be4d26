"""Tests for the communication manager and the wrapper processes."""

import pytest

from repro.catalog import Relation
from repro.common.errors import SimulationError
from repro.config import SimulationParameters
from repro.core.runtime import World
from repro.sim.resources import Store
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
    world = make_world()
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


# -- a source is one process on a computed production clock -----------------

class _TwoProcessWrapper(Wrapper):
    """Reference: a producer and a sender joined through a two-slot
    ``Store``, as sources used to be shipped (the producer and sender
    bodies of that version), recording when the producer began each
    message (``s_j``), when it was ready (``r_j``) and when the sender
    took it (``g_j``)."""

    def _spawn(self):
        self.started_at, self.ready_at, self.taken_at = [], [], []
        return self.sim.process(self._pipeline(),
                                name=f"wrapper:{self.name}")

    def _pipeline(self):
        sim = self.sim
        outbound = Store(sim, capacity=2, name=f"outbound:{self.name}")
        sender = sim.process(self._sender(outbound),
                             name=f"sender:{self.name}")
        remaining = self.relation.cardinality
        if remaining == 0:
            self.ready_at.append(sim.now)
            yield outbound.put((0, True, 0.0))
            yield sender
            return
        per_message = self.params.tuples_per_message
        productions = self.delay_model.message_seconds(
            remaining, per_message, self.rng)
        while remaining > 0 and sim.now < self._stopped_at:
            self.started_at.append(sim.now)
            count = min(per_message, remaining)
            production = self._next_production(productions)
            if production is None:
                break
            if production > 0:
                # timeout(production)'s deadline, through the factory the
                # harness marks as the wrapper's own.
                yield sim.timeout_at(sim.now + production)
            self.production_time += production
            self.ready_at.append(sim.now)
            message = (count, remaining == count, production)
            blocked = 0.0
            if not outbound.try_put(message):
                before_put = sim.now
                yield outbound.put(message)
                blocked = sim.now - before_put
            self.blocked_time += blocked
            remaining -= count
        if remaining > 0:
            yield outbound.put(None)
        yield sender

    def _sender(self, outbound):
        while True:
            message = yield outbound.get()
            self.taken_at.append(self.sim.now)
            if message is None:
                yield from self.cm.close(self.name)
                break
            count, eof, production = message
            yield from self.cm.deliver(self.name, count, eof=eof,
                                       production_seconds=production)
            self.tuples_sent += count
            if eof:
                break
        self.finished_at = self.sim.now


class _Unreadable(ConstantDelay):
    """A source that fails before its first tuple."""

    def waiting_times(self, n, rng):
        raise RuntimeError("source cannot be read")


class _FailsMidStream(UniformDelay):
    """A source that fails at message ``at`` (drawn a message at a time:
    it redefines ``waiting_times`` only)."""

    def __init__(self, w, at):
        super().__init__(w)
        self.at = at

    def waiting_times(self, n, rng):
        if self.at == 0:
            raise RuntimeError("source went away")
        self.at -= 1
        return super().waiting_times(n, rng)


#: the wrapper's own bookkeeping hops, which the two shapes may differ in:
#: what the rest of the machine sees must not.
_WRAPPER_HOPS = ("start:wrapper:", "start:sender:", "get:outbound:",
                 "put:outbound:", "wrapper:", "sender:")
#: a consumer that takes this long a message (7.5 messages' receive
#: CPU) keeps a one-message queue full, so the source's pipeline blocks.
_SLOW_CONSUMER_INSTRUCTIONS = 1_500_000


def _ship(wrapper_class, model, cardinality, rivals_at, stop_first=False,
          stop_at=None, slow_consumer=False):
    """Ship relation W under ``model`` while rivals ask for the mediator
    CPU at each instant of ``rivals_at``, 0-3 event hops after it, half
    of them started before the wrapper and half after, so every hop the
    wrapper takes races one of them.  ``stop_at`` stops the source then;
    ``slow_consumer`` drains a one-message queue slowly, on the same
    CPU.  Returns the CM's delivery trace, the wrapper's stats, every
    popped event that is not one of the wrapper's own hops and when each
    rival got done — and, apart, the wrapper and the kernel."""
    world = make_world(**({"queue_capacity_messages": 1}
                          if slow_consumer else {}))
    sim = world.sim
    popped, rivals, deliveries = [], [], []
    schedule, timeout_at = sim._schedule_at, sim.timeout_at
    marking = [False]

    def logged(event, when, priority):
        schedule(event, when, priority)
        own = (event.name.startswith(_WRAPPER_HOPS)
               or (event.name == "timeout"
                   and (marking[0] or when == sim.now)))
        if not own:
            event._callbacks.insert(0, lambda e: popped.append(
                (sim.now, priority, e.name)))

    def own_timeout_at(when, value=None):
        # Only the wrappers arm deadlines: their production clocks.
        marking[0] = True
        try:
            return timeout_at(when, value)
        finally:
            marking[0] = False

    sim._schedule_at, sim.timeout_at = logged, own_timeout_at

    def rival(at, hops):
        if at:
            yield sim.timeout(at)
        for hop in range(hops):
            yield sim.event(f"rival-hop:{hop}").succeed()
        yield from world.cpu.work(world.params.message_instructions)
        rivals.append((sim.now, at, hops))

    def start_rivals(side):
        for at in rivals_at:
            for hops in range(4):
                sim.process(rival(at, hops), name=f"rival:{side}:{at}:{hops}")

    start_rivals("before")
    wrapper = wrapper_class(sim, Relation("W", cardinality), model, world.cm,
                            world.rng("wrapper:W") if model.draws else None,
                            world.params)
    if stop_first:
        wrapper.stop()
    wrapper.start()
    start_rivals("after")
    queue = world.cm.queue("W")
    put = queue.put

    def recorded(message):
        deliveries.append((sim.now, "W", message.tuples, message.eof))
        put(message)

    queue.put = recorded

    def stopper():
        yield sim.timeout(stop_at)
        wrapper.stop()

    def consumer():
        while not queue.exhausted:
            if not queue.has_data():
                yield queue.data_event()
                continue
            queue.take_batch(world.params.tuples_per_message)
            yield from world.cpu.work(_SLOW_CONSUMER_INSTRUCTIONS)

    if stop_at is not None:
        sim.process(stopper(), name="stopper")
    if slow_consumer:
        sim.process(consumer(), name="consumer")
    sim.run()
    stats = (wrapper.tuples_sent, wrapper.production_time,
             wrapper.blocked_time, wrapper.finished_at, repr(wrapper.error))
    return (deliveries, stats, popped, rivals), wrapper, sim


@pytest.mark.parametrize("case", [
    "zero-wait", "drawing", "jittered", "cardinality 0", "stopped first",
    "model raises"])
def test_a_one_message_source_is_one_process_and_changes_nothing(case):
    """The one-process shape keeps every hop that orders a contender for
    the mediator CPU at the same heap key, so against the two-process
    reference the CM receives the same messages at the same instants, the
    wrapper reports the same numbers, and every other event — rivals for
    the CPU asking at the same instant included — pops in the same
    order.  Only the wrapper's bookkeeping hops go: the sender's finish,
    and its start where it only registered a getter."""
    from repro.wrappers import JitteredDelay

    model, cardinality = {
        "zero-wait": (ConstantDelay(0.0), 100),
        "drawing": (UniformDelay(5e-5), 100),
        "jittered": (JitteredDelay(5e-5, 1.0), 204),
        "cardinality 0": (ConstantDelay(0.0), 0),
        "stopped first": (UniformDelay(5e-5), 100),
        "model raises": (_Unreadable(0.0), 100),
    }[case]
    assert cardinality <= make_world().params.tuples_per_message
    stop_first = case == "stopped first"
    (_, stats, _, _), _, _ = _ship(
        _TwoProcessWrapper, model, cardinality, [0.0], stop_first)
    production = stats[1]
    rivals_at = [0.0] + ([production] if production else [])
    reference, _, reference_sim = _ship(
        _TwoProcessWrapper, model, cardinality, rivals_at, stop_first)
    fused, _, fused_sim = _ship(
        Wrapper, model, cardinality, rivals_at, stop_first)
    assert fused == reference
    assert fused_sim.processed_events == \
        reference_sim.processed_events - (2 if production else 1)
    deliveries, _stats, _popped, rivals = fused
    assert deliveries[-1][3] and len(rivals) == 8 * len(rivals_at)
    # The rivals really raced the wrapper: some got the CPU before the
    # message did and some after.
    if case not in ("cardinality 0", "stopped first", "model raises"):
        assert min(r[0] for r in rivals) < deliveries[0][0] \
            < max(r[0] for r in rivals)


@pytest.mark.parametrize("messages", range(2, 8))
@pytest.mark.parametrize("case", [
    "zero-wait", "drawing", "jittered", "stopped mid-stream",
    "model raises mid-stream"])
def test_a_source_ships_on_its_computed_production_clock(case, messages):
    """A relation of several messages, its queue kept full by a slow
    consumer so that the source's pipeline blocks: the one process that
    computes when each message is ready (``r_j = s_j + d_j``, ``s_j =
    max(r_{j-1}, g_{j-3})``) delivers what the producer-and-sender
    reference delivers, at the same instants, reports the same numbers,
    and leaves every other event in the same pop order — with rivals for
    the CPU at every instant a message became ready or was taken, placed
    again from each run until they stop moving."""
    from repro.wrappers import JitteredDelay

    cardinality = (messages - 1) * make_world().params.tuples_per_message + 100
    model = {
        "zero-wait": lambda: ConstantDelay(0.0),
        "drawing": lambda: UniformDelay(5e-5),
        "jittered": lambda: JitteredDelay(5e-5, 1.0),
        "stopped mid-stream": lambda: UniformDelay(5e-5),
        "model raises mid-stream": lambda: _FailsMidStream(
            5e-5, at=messages // 2),
    }[case]
    stop_at = None
    if case == "stopped mid-stream":
        # Between the starts of two messages, half-way through.
        _, unstopped, _ = _ship(_TwoProcessWrapper, model(), cardinality,
                                [], slow_consumer=True)
        middle = (messages - 1) // 2
        stop_at = sum(unstopped.started_at[middle:middle + 2]) / 2
    rivals_at = []
    for _ in range(4 * messages + 4):
        reference, wrapper, reference_sim = _ship(
            _TwoProcessWrapper, model(), cardinality, rivals_at,
            stop_at=stop_at, slow_consumer=True)
        instants = sorted(set(wrapper.ready_at + wrapper.taken_at))
        if instants == rivals_at:
            break
        rivals_at = instants
    else:
        pytest.fail(f"the rivals never settled: {rivals_at}")
    fused, _, fused_sim = _ship(Wrapper, model(), cardinality, rivals_at,
                                stop_at=stop_at, slow_consumer=True)
    assert fused == reference
    assert fused_sim.processed_events < reference_sim.processed_events
    deliveries, (sent, _, blocked, _, error), _, rivals = fused
    assert deliveries[-1][3] and len(rivals) == 8 * len(rivals_at)
    if case.endswith("mid-stream"):
        assert 0 < sent < cardinality and deliveries[-1][2] == 0
        assert ("went away" in error) == (case == "model raises mid-stream")
    else:
        assert sent == cardinality and error == "None"
        # The pipeline blocked: the sender was still busy with message
        # j-2 when message j was ready.
        assert blocked > 0 or messages < 5


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
