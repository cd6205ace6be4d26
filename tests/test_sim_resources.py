"""Tests for the resource models: Resource, Store, CPU, Disk, NetworkLink."""

import asyncio

import pytest

from repro.common.errors import SimulationError
from repro.config import SimulationParameters
from repro.exec.aio import AsyncioKernel
from repro.mediator import Message, SourceQueue
from repro.sim import CPU, Disk, NetworkLink, Resource, Simulator, Store


# --------------------------------------------------------------------------
# Resource
# --------------------------------------------------------------------------

def test_resource_grants_up_to_capacity(sim):
    resource = Resource(sim, capacity=2)
    first = resource.request()
    second = resource.request()
    third = resource.request()
    sim.run()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert len(resource._waiters) == 1


def test_resource_release_wakes_waiter(sim):
    resource = Resource(sim, capacity=1)
    resource.request()
    waiting = resource.request()
    sim.run()
    assert not waiting.triggered
    resource.release()
    sim.run()
    assert waiting.triggered


def test_resource_release_idle_rejected(sim):
    resource = Resource(sim)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_fifo_order(sim):
    resource = Resource(sim, capacity=1)
    resource.request()
    waiters = [resource.request() for _ in range(3)]
    resource.release()
    sim.run()
    assert waiters[0].triggered
    assert not waiters[1].triggered


def test_resource_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_try_acquire_and_request_share_one_account(sim):
    """The event-free acquire is the uncontended half of ``request``:
    mixed freely they never over-commit and hand slots over FIFO."""
    resource = Resource(sim, capacity=2)
    assert resource.try_acquire()
    assert resource.request().processed       # second free slot, in place
    assert not resource.try_acquire()         # full: the caller must queue
    assert resource._in_use == 2
    first, second = resource.request(), resource.request()
    assert len(resource._waiters) == 2

    resource.release()                        # slot goes to the oldest waiter
    assert not resource.try_acquire()         # ... not to a late arrival
    sim.run()
    assert first.processed and not second.triggered
    assert resource._in_use == 2

    resource.release()
    sim.run()
    assert second.processed and len(resource._waiters) == 0
    resource.release()
    resource.release()
    assert resource._in_use == 0
    with pytest.raises(SimulationError):
        resource.release()
    assert resource.try_acquire() and resource._in_use == 1


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------

def test_store_put_get_fifo(sim):
    store = Store(sim)
    store.put("a")
    store.put("b")
    got = store.get()
    sim.run()
    assert got.value == "a"


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    got = store.get()
    sim.run()
    assert not got.triggered
    store.put("x")
    sim.run()
    assert got.value == "x"


def test_store_put_blocks_at_capacity(sim):
    store = Store(sim, capacity=1)
    first = store.put("a")
    second = store.put("b")
    sim.run()
    assert first.triggered
    assert not second.triggered
    store.get()
    sim.run()
    assert second.triggered
    assert list(store.items) == ["b"]


def test_store_handoff_to_waiting_getter(sim):
    store = Store(sim, capacity=1)
    got = store.get()
    store.put("direct")
    sim.run()
    assert got.value == "direct"
    assert len(store) == 0


def test_store_try_get(sim):
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put("v")
    ok, item = store.try_get()
    assert ok and item == "v"


# --------------------------------------------------------------------------
# Already-satisfied waits
# --------------------------------------------------------------------------

def _run(kernel):
    if isinstance(kernel, AsyncioKernel):
        asyncio.run(kernel.run())
    else:
        kernel.run()


@pytest.mark.parametrize("make_kernel", [Simulator, AsyncioKernel])
def test_satisfied_request_and_put_skip_the_kernel(make_kernel):
    """A free slot and an accepted put are granted in place: the waiter
    carries on in the same dispatch and the kernel sees no event."""
    kernel = make_kernel()
    resource = Resource(kernel, capacity=1)
    store = Store(kernel, capacity=1)
    getter = store.get()  # waits: nothing stored yet
    assert resource.request().processed
    assert store.put("handed over").processed
    assert store.put("stored").processed
    assert not resource.request().triggered  # busy: a real wait
    assert not store.put("blocked").triggered  # full: a real wait
    _run(kernel)
    assert getter.value == "handed over"
    assert kernel.processed_events == 1  # the getter's wake-up only


def test_waits_that_order_the_model_still_take_one_kernel_event(sim):
    """``Store.get``, ``SourceQueue.wait_not_full`` and ``data_event``
    keep their hop through the heap even when already satisfied: it is
    what lets the DQP and a sender reach the CPU in the modelled order
    (granting the first two in place changes both seeded bench digests;
    the third was left alone).  Their callers skip the hop only when it
    is the kernel's next event (``Kernel.elapse``,
    ``tests/test_in_place_waits.py``)."""
    store = Store(sim)
    store.put("item")
    queue = SourceQueue(sim, "W", capacity_messages=2)
    queue.put(Message(10))
    waits = [store.get(), queue.wait_not_full(), queue.data_event()]
    assert all(wait.triggered and not wait.processed for wait in waits)
    sim.run()
    assert all(wait.processed for wait in waits)
    assert sim.processed_events == 3


# --------------------------------------------------------------------------
# CPU
# --------------------------------------------------------------------------

def test_cpu_work_duration(sim):
    cpu = CPU(sim, mips=100.0)

    def worker():
        yield from cpu.work(1_000_000)  # 1M instructions at 100 MIPS = 10 ms

    sim.process(worker())
    sim.run()
    assert sim.now == pytest.approx(0.01)
    assert cpu.busy_time == pytest.approx(0.01)


def test_cpu_serializes_concurrent_work(sim):
    cpu = CPU(sim, mips=100.0)

    def worker():
        yield from cpu.work(1_000_000)

    sim.process(worker())
    sim.process(worker())
    sim.run()
    assert sim.now == pytest.approx(0.02)


def test_cpu_work_costs_no_event_idle_and_one_when_a_timer_is_due_first(sim):
    """An idle CPU is taken without an event, and a slice nothing else
    can happen during is taken in place (``Kernel.elapse``): no kernel
    event.  A timer due first, or at the very instant the slice ends,
    puts the slice's timeout through the heap: one event.  Behind a
    holder the queued request is one more, and the holder's slice goes
    through the heap (the second worker's start is due)."""
    cpu = CPU(sim, mips=100.0)
    charged = []

    def worker():
        charged.append((yield from cpu.work(1_000_000)))  # 10 ms

    def cost(workers, timer=None):
        before = sim.processed_events, sim.waits_in_place
        processes = [sim.process(worker()) for _ in range(workers)]
        if timer is not None:
            sim.timeout(timer)
        sim.run()
        assert all(process.ok for process in processes)
        # Starting a process is one kernel event, and a timer one; ending
        # a process nobody waits on is none.
        return (sim.processed_events - before[0] - workers
                - (timer is not None), sim.waits_in_place - before[1])

    assert cost(1) == (0, 1)
    assert cost(1, timer=0.02) == (0, 1)
    assert cost(1, timer=0.005) == (1, 0)
    assert cost(1, timer=0.01) == (1, 0)
    assert cost(2) == (1 + 1, 1)
    assert cpu.busy_time == pytest.approx(0.06)
    # Six slices of 1M instructions, each charged once, in the order
    # they ended.
    assert charged == [cpu.seconds_for(1_000_000)] * 6
    assert cpu.busy_time == sum(charged)


def test_cpu_work_returns_the_seconds_it_charged(sim):
    """A slice returns what it added to ``busy_time``, and that is bit
    for bit ``SimulationParameters.instructions_seconds`` of its
    instructions (what a fragment's ``cpu_seconds`` adds up), whether
    the slice is taken in place or through a timeout."""
    params = SimulationParameters()
    cpu = CPU(sim, params.cpu_mips)
    slices = []

    def worker(instructions):
        before = cpu.busy_time
        in_place = sim.waits_in_place
        seconds = yield from cpu.work(instructions)
        slices.append((instructions, seconds, before,
                       sim.waits_in_place > in_place))

    for instructions, timer in ((params.message_instructions, None),
                                (123_457.0, None),
                                (987_653.0, 1e-4)):
        sim.process(worker(instructions))
        if timer is not None:
            sim.timeout(timer)  # due first: the slice goes to the heap
        sim.run()
    assert [in_place for *_, in_place in slices] == [True, True, False]
    for instructions, seconds, before, _ in slices:
        assert seconds == params.instructions_seconds(instructions)
    # Each slice found busy_time at the sum of what the earlier ones
    # returned: it added exactly what it returned.
    total = 0.0
    for _, seconds, before, _ in slices:
        assert before == total
        total += seconds
    assert cpu.busy_time == total


def test_cpu_utilization(sim):
    cpu = CPU(sim, mips=100.0)

    def worker():
        yield from cpu.work(1_000_000)
        yield sim.timeout(0.01)  # idle period

    sim.process(worker())
    sim.run()
    assert cpu.busy_time / sim.now == pytest.approx(0.5)


def test_cpu_invalid_mips(sim):
    with pytest.raises(SimulationError):
        CPU(sim, mips=0)


def test_cpu_negative_instructions(sim):
    cpu = CPU(sim, mips=100.0)
    with pytest.raises(SimulationError):
        cpu.seconds_for(-5)


# --------------------------------------------------------------------------
# Disk
# --------------------------------------------------------------------------

def _disk(sim, **overrides):
    settings = dict(latency=17e-3, seek_time=5e-3, transfer_rate=6_000_000,
                    page_size=8192)
    settings.update(overrides)
    return Disk(sim, **settings)


def test_disk_random_access_pays_positioning(sim):
    disk = _disk(sim)

    def worker():
        yield from disk.transfer(extent=1, start_page=0, num_pages=1)

    sim.process(worker())
    sim.run()
    expected = 17e-3 + 5e-3 + 8192 / 6_000_000
    assert sim.now == pytest.approx(expected)
    assert disk.seeks.value == 1


def test_disk_sequential_access_transfer_only(sim):
    disk = _disk(sim)

    def worker():
        yield from disk.transfer(1, 0, 4)
        yield from disk.transfer(1, 4, 4)  # continues where the head is

    sim.process(worker())
    sim.run()
    expected = (17e-3 + 5e-3) + 8 * 8192 / 6_000_000
    assert sim.now == pytest.approx(expected)
    assert disk.seeks.value == 1


def test_disk_interleaved_extents_seek(sim):
    disk = _disk(sim)

    def worker():
        yield from disk.transfer(1, 0, 1)
        yield from disk.transfer(2, 0, 1)
        yield from disk.transfer(1, 1, 1)

    sim.process(worker())
    sim.run()
    assert disk.seeks.value == 3


def test_disk_serializes_requests(sim):
    disk = _disk(sim, latency=0.0, seek_time=0.0)

    def worker():
        yield from disk.transfer(1, 0, 6)

    sim.process(worker())

    def worker2():
        yield from disk.transfer(2, 0, 6)

    sim.process(worker2())
    sim.run()
    assert sim.now == pytest.approx(12 * 8192 / 6_000_000)


def test_disk_zero_pages_rejected(sim):
    disk = _disk(sim)
    with pytest.raises(SimulationError):
        list(disk.transfer(1, 0, 0))


# --------------------------------------------------------------------------
# NetworkLink
# --------------------------------------------------------------------------

def test_link_transmission_time(sim):
    link = NetworkLink(sim, bandwidth=12_500_000)  # 100 Mb/s in bytes

    def worker():
        yield from link.transmit(12_500)

    sim.process(worker())
    sim.run()
    assert sim.now == pytest.approx(0.001)
    assert link.messages.value == 1


def test_link_serializes_messages(sim):
    link = NetworkLink(sim, bandwidth=1000)

    def worker():
        yield from link.transmit(500)

    sim.process(worker())
    sim.process(worker())
    sim.run()
    assert sim.now == pytest.approx(1.0)


def test_link_negative_size_rejected(sim):
    link = NetworkLink(sim, bandwidth=1000)
    with pytest.raises(SimulationError):
        link.transmission_time(-1)
