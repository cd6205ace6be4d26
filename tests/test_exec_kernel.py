"""The execution-kernel layer: protocol, cancellation, asyncio backend.

The asyncio tests run real (small) sleeps through ``asyncio.run`` inside
plain sync test functions — the container has no pytest-asyncio and the
kernel does not need it.
"""

from __future__ import annotations

import asyncio
import functools
import math
import selectors
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.core as kernel_core
from repro.common.errors import SimulationError
from repro.exec import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Kernel,
    SimEvent,
    Timeout,
)
from repro.exec.aio import AsyncioKernel
from repro.exec.core import _COMPACT_FLOOR
from repro.sim.engine import Simulator
from repro.wrappers import UniformDelay


# -- protocol ---------------------------------------------------------------

def test_both_backends_satisfy_the_kernel_protocol():
    assert isinstance(Simulator(), Kernel)
    assert isinstance(AsyncioKernel(), Kernel)


def test_policy_visible_surface_is_factory_complete(sim):
    event = sim.event("e")
    assert isinstance(event, SimEvent) and not event.triggered
    assert isinstance(sim.timeout(1.0), Timeout)
    composite = sim.any_of([event, sim.timeout(2.0)])
    assert composite in list(composite.events) or composite.events


# -- timeout cancellation ---------------------------------------------------

def test_cancelled_timeout_never_fires_and_releases_the_run(sim):
    guard = sim.timeout(60.0)
    guard.cancel()
    sim.run()
    assert sim.now == 0.0
    assert not guard.processed


def test_cancel_after_processing_is_an_error(sim):
    guard = sim.timeout(1.0)
    sim.run()
    assert guard.processed
    with pytest.raises(SimulationError):
        guard.cancel()


def test_peek_and_step_skip_cancelled_events(sim):
    early = sim.timeout(1.0)
    late = sim.timeout(2.0)
    early.cancel()
    assert sim.peek() == 2.0
    sim.step()
    assert sim.now == 2.0 and late.processed and not early.processed


def test_guard_timeout_pattern_does_not_stretch_the_run(sim):
    """The DQP stall idiom: any_of(data, guard) then cancel the guard."""
    woke_at = {}

    def waiter(data):
        guard = sim.timeout(60.0)
        yield sim.any_of([data, guard])
        if not guard.processed:
            guard.cancel()
        woke_at["t"] = sim.now

    def feeder(data):
        yield sim.timeout(1.5)
        data.succeed("payload")

    data = sim.event("data")
    sim.process(waiter(data))
    sim.process(feeder(data))
    sim.run()
    assert woke_at["t"] == 1.5
    # Without the cancel the heap would hold the guard until t=60.
    assert sim.now == 1.5


def test_run_with_until_still_honours_cancellation(sim):
    cancelled = sim.timeout(5.0)
    kept = sim.timeout(3.0)
    cancelled.cancel()
    sim.run(until=10.0)
    assert kept.processed and not cancelled.processed
    assert sim.now == 10.0


# -- heap compaction ----------------------------------------------------------
# A cancelled guard's entry used to wait in the heap for its deadline: on a
# long-lived kernel whose clock never reaches it, one per finished stall.

class _NeverCompacts:
    """Mixin: the reference kernel keeps every cancelled entry until it
    reaches the heap top, as the kernels did before compaction."""

    def _compact(self) -> None:
        pass


class _ReferenceSimulator(_NeverCompacts, Simulator):
    pass


class _ReferenceAsyncioKernel(_NeverCompacts, AsyncioKernel):
    pass


class _Timers:
    """Arms, cancels and drives timeouts on one kernel, logging the order
    they fire in; the same script gives the same calls on any kernel."""

    def __init__(self, kernel, loop=None):
        self.kernel = kernel
        self.loop = loop
        self.timers: list = []
        self.log: list = []
        if loop is not None:
            # A wall clock that is always ahead: the wall-clock kernel
            # never sleeps, so run(until=) is pure dispatch order.
            kernel._wall = lambda: math.inf

    def arm(self, delay, priority, count, action=None):
        for index in range(count):
            timer = Timeout(self.kernel, delay, priority=priority)
            timer.add_callback(functools.partial(
                self._fired, len(self.timers), action if index == 0 else None))
            self.timers.append(timer)

    def _fired(self, tag, action, _event):
        self.log.append(tag)
        if action is not None:  # runs inside the drain loop
            first, count, delay = action
            self.cancel(first, count)
            if delay is not None:
                self.arm(delay, PRIORITY_NORMAL, 1)

    def cancel(self, first, count):
        for position in range(first, first + count) if self.timers else ():
            timer = self.timers[position % len(self.timers)]
            if not timer.processed:
                timer.cancel()  # a second cancel is a no-op

    def run(self, until=None):
        if self.loop is None:
            self.kernel.run(until=until)
        else:
            self.loop.run_until_complete(self.kernel.run(until=until))

    def step(self):
        if self.loop is None and self.kernel.peek() != math.inf:
            self.kernel.step()

    def apply(self, op):
        name, *args = op
        if name == "run_until":
            self.run(self.kernel.now + args[0])
        else:
            getattr(self, name)(*args)


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 60.0])
#: a run of timers to cancel: (first, count), positions taken modulo
#: the timers armed so far, so a run may wrap onto cancelled ones.
_RUN = (st.integers(0, 500), st.integers(0, 120))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("arm"), _DELAYS,
              st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL]),
              st.integers(1, 40),
              st.none() | st.tuples(*_RUN, st.none() | _DELAYS)),
    st.tuples(st.just("cancel"), *_RUN),
    st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("step")),
    st.tuples(st.just("run")),
), max_size=25)


def _assert_compact(kernel, floor):
    heap = kernel._heap
    dead = sum(entry[3].cancelled for entry in heap)
    assert kernel._cancelled == dead
    assert len(heap) <= 2 * (len(heap) - dead) + floor


@pytest.mark.parametrize("floor", [2, _COMPACT_FLOOR])
@pytest.mark.parametrize("backend", ["simulator", "asyncio"])
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_compaction_changes_nothing_that_fires(backend, floor, ops):
    """Random arm / cancel / cancel-twice / run(until=) / step sequences,
    some cancelling from inside a callback while ``run`` drains: the
    compacting kernel fires exactly what a never-compacting one fires, in
    the same order, counts the same events, and after every operation
    holds at most ``2 * live + floor`` entries.  (A floor of 2 makes
    short scripts compact often.)"""
    loop = asyncio.new_event_loop() if backend == "asyncio" else None
    kernels = ((Simulator(), _ReferenceSimulator()) if loop is None
               else (AsyncioKernel(), _ReferenceAsyncioKernel()))
    compacting, reference = (_Timers(kernel, loop) for kernel in kernels)
    try:
        with mock.patch.object(kernel_core, "_COMPACT_FLOOR", floor):
            for op in ops + [("run",)]:
                compacting.apply(op)
                reference.apply(op)
                _assert_compact(compacting.kernel, floor)
                assert compacting.log == reference.log
                assert (compacting.kernel.processed_events
                        == reference.kernel.processed_events)
                assert compacting.kernel.now == reference.kernel.now
    finally:
        if loop is not None:
            loop.close()
    assert compacting.kernel._heap == [] and compacting.kernel._cancelled == 0


def test_compaction_inside_a_drain_loses_and_duplicates_nothing(sim):
    """The first timeout to fire cancels 200 guards: the heap the drain
    loop has pinned is rebuilt in place under it."""
    timers = _Timers(sim)
    timers.arm(1.0, PRIORITY_NORMAL, 1, action=(1, 200, None))
    timers.arm(60.0, PRIORITY_NORMAL, 200)
    timers.arm(2.0, PRIORITY_NORMAL, 50)
    heap_lengths = []
    sim.timeout(1.5).add_callback(
        lambda _event: heap_lengths.append(len(sim._heap)))
    sim.run()
    # 50 live entries left; without compaction 250 until t=60.
    assert heap_lengths[0] <= 50 + _COMPACT_FLOOR
    assert timers.log == [0] + list(range(201, 251))
    assert sim.processed_events == 52


@pytest.mark.parametrize("backend", ["simulator", "asyncio"])
def test_draining_live_entries_compacts_too(backend):
    """50 guards cancelled while 55 live timers keep them company; once
    ``run(until=)`` has fired 50 of those (fewer than the wall-clock
    kernel's drain quantum), the dead may not stay behind the 5 still
    due before them."""
    loop = asyncio.new_event_loop() if backend == "asyncio" else None
    timers = _Timers(Simulator() if loop is None else AsyncioKernel(), loop)
    kernel = timers.kernel
    try:
        with mock.patch.object(kernel_core, "_COMPACT_FLOOR", 2):
            timers.arm(1.0, PRIORITY_NORMAL, 50)
            timers.arm(2.0, PRIORITY_NORMAL, 5)
            timers.arm(60.0, PRIORITY_NORMAL, 50)
            timers.cancel(55, 50)
            assert len(kernel._heap) == 105  # dead do not outnumber live
            timers.run(until=1.5)
            assert len(kernel._heap) <= 2 * 5 + 2
            assert timers.log == list(range(50))
            timers.run()
    finally:
        if loop is not None:
            loop.close()
    assert timers.log == list(range(55))
    assert kernel._heap == [] and kernel._cancelled == 0


@pytest.mark.parametrize("due_now", [50, 100])
def test_asyncio_kernel_compacts_before_it_yields_to_the_loop(due_now):
    """A long-lived wall-clock kernel never returns from ``run``: whoever
    looks at its heap does so while it sleeps (50 due now, then a 20 ms
    pause) or at a drain-quantum yield (100 due now)."""
    kernel = AsyncioKernel()
    timers = _Timers(kernel)
    seen = []

    async def scenario():
        running = asyncio.ensure_future(kernel.run())
        while not running.done():
            heap = kernel._heap
            dead = sum(entry[3].cancelled for entry in heap)
            seen.append((len(heap), len(heap) - dead))
            await asyncio.sleep(0)
        await running

    with mock.patch.object(kernel_core, "_COMPACT_FLOOR", 2):
        timers.arm(0.0, PRIORITY_NORMAL, due_now)
        timers.arm(0.02, PRIORITY_NORMAL, 5)
        timers.arm(60.0, PRIORITY_NORMAL, due_now)
        timers.cancel(due_now + 5, due_now)
        asyncio.run(scenario())
    assert timers.log == list(range(due_now + 5))
    assert len(seen) > 2
    assert all(length <= 2 * live + 2 for length, live in seen[1:])


def test_a_second_cancel_is_not_counted_twice(sim):
    guard = sim.timeout(60.0)
    sim.timeout(1.0)
    guard.cancel()
    guard.cancel()
    assert sim._cancelled == 1
    sim.run()
    assert sim._cancelled == 0 and sim._heap == []


# -- how a process ends -------------------------------------------------------
# A process nobody waits on ends in place: the heap hop that used to carry
# its completion popped with no callback to run.

_BACKENDS = [Simulator, AsyncioKernel]


def _run(kernel, **kwargs):
    if isinstance(kernel, AsyncioKernel):
        asyncio.run(kernel.run(**kwargs))
    else:
        kernel.run(**kwargs)


def _ends_after_one_step(kernel, value="done"):
    def body():
        yield kernel.timeout(0.0)
        return value
    return kernel.process(body(), name="ends")


@pytest.mark.parametrize("make_kernel", _BACKENDS)
def test_an_unjoined_finish_takes_no_heap_entry_and_no_event(make_kernel):
    kernel = make_kernel()
    process = _ends_after_one_step(kernel)
    seen = []

    def observer():
        yield kernel.timeout(0.0)  # pops right after the process ended
        seen.append((process.processed, len(kernel._heap)))

    kernel.process(observer())
    _run(kernel)
    # Two starts and two timeouts; neither completion is an event.
    assert kernel.processed_events == 4
    assert seen == [(True, 0)]
    assert process.ok and process.value == "done"


@pytest.mark.parametrize("make_kernel", _BACKENDS)
def test_a_waiter_registered_before_the_end_resumes_through_the_heap(
        make_kernel):
    kernel = make_kernel()
    process = _ends_after_one_step(kernel)
    order = []

    def waiter():
        value = yield process
        order.append(("waiter", value))

    def bystander():
        yield kernel.timeout(0.0)  # queued after the process's timeout
        order.append(("bystander", None))

    kernel.process(waiter())
    kernel.process(bystander())
    _run(kernel)
    # The completion is an event: the bystander's hop, queued ahead of
    # it, runs first.
    assert order == [("bystander", None), ("waiter", "done")]
    assert kernel.processed_events == 3 + 2 + 1  # starts, timeouts, the end


@pytest.mark.parametrize("make_kernel", _BACKENDS)
def test_a_later_joiner_continues_in_the_same_dispatch(make_kernel):
    kernel = make_kernel()
    process = _ends_after_one_step(kernel)
    joined = []

    def joiner():
        yield kernel.timeout(1e-3)
        before = kernel.processed_events
        value = yield process
        joined.append((value, kernel.processed_events - before))

    kernel.process(joiner())
    _run(kernel)
    assert joined == [("done", 0)]


@pytest.mark.parametrize("make_kernel", _BACKENDS)
def test_a_failing_process_still_goes_through_the_heap_and_is_raised(
        make_kernel):
    kernel = make_kernel()

    def boom():
        yield kernel.timeout(0.0)
        raise ValueError("kaputt")

    process = kernel.process(boom())
    with pytest.raises(SimulationError, match="kaputt"):
        _run(kernel)
    assert kernel.processed_events == 3  # start, timeout, the failure
    assert isinstance(process.failure, ValueError)


def test_asyncio_until_event_returns_when_it_ends_unjoined():
    kernel = AsyncioKernel()
    process = _ends_after_one_step(kernel)
    kernel.timeout(60.0)  # would hold the run for a minute
    start = time.perf_counter()
    asyncio.run(kernel.run(until_event=process))
    assert process.value == "done"
    assert time.perf_counter() - start < 5.0


def test_asyncio_until_event_ends_the_drain_it_is_processed_in():
    """A due chain keeps going after the event: ``run`` returns after the
    event's own dispatch, not at the end of the drain quantum."""
    kernel = AsyncioKernel()
    steps = []

    def chain():
        for step in range(200):
            yield kernel.timeout(0.0)
            steps.append(step)

    kernel.process(chain())
    process = _ends_after_one_step(kernel)
    asyncio.run(kernel.run(until_event=process))
    assert process.processed
    assert len(steps) <= 3


# -- the yield protocol -------------------------------------------------------

@pytest.mark.parametrize("make_kernel", _BACKENDS)
@pytest.mark.parametrize("target, message", [
    ("junk", r"yielded 42, expected a SimEvent"),
    ("other kernel", r"an event of a different kernel"),
    ("cancelled", r"a cancelled timeout, which never occurs"),
])
def test_breaking_the_yield_protocol_is_an_unhandled_failure(
        make_kernel, target, message):
    kernel = make_kernel()

    def body():
        yield kernel.timeout(0.0)
        if target == "junk":
            yield 42
        elif target == "other kernel":
            yield make_kernel().event("elsewhere")
        else:
            guard = kernel.timeout(1.0)
            guard.cancel()
            yield guard

    process = kernel.process(body(), name="rude")
    with pytest.raises(SimulationError, match=message) as raised:
        _run(kernel)
    assert "'rude'" in str(raised.value)
    assert not process.defused and process.generator is None


# -- asyncio backend --------------------------------------------------------

def test_asyncio_kernel_runs_processes_in_real_time():
    kernel = AsyncioKernel()

    def worker():
        yield kernel.timeout(0.05)
        return kernel.now

    proc = kernel.process(worker())
    start = time.perf_counter()
    asyncio.run(kernel.run())
    elapsed = time.perf_counter() - start
    assert proc.value == pytest.approx(kernel.now)
    assert kernel.now >= 0.05
    assert elapsed >= 0.04  # really slept


def test_asyncio_same_deadline_order_matches_the_simulator():
    """Zero-delay chains interleave identically on both backends."""

    def script(kernel, log):
        def proc(tag):
            for step in range(3):
                yield kernel.timeout(0.0)
                log.append((tag, step))
        for tag in ("a", "b", "c"):
            kernel.process(proc(tag), name=tag)

    sim_log: list = []
    sim = Simulator()
    script(sim, sim_log)
    sim.run()

    aio_log: list = []
    kernel = AsyncioKernel()
    script(kernel, aio_log)
    asyncio.run(kernel.run())

    assert aio_log == sim_log


def test_asyncio_priority_breaks_same_deadline_ties():
    kernel = AsyncioKernel()
    order = []
    low = kernel.event("low")
    low.add_callback(lambda e: order.append("normal"))
    urgent = kernel.event("urgent")
    urgent.add_callback(lambda e: order.append("urgent"))
    low.succeed(priority=PRIORITY_NORMAL)
    urgent.succeed(priority=PRIORITY_URGENT)
    asyncio.run(kernel.run())
    assert order == ["urgent", "normal"]


def test_asyncio_until_event_waits_for_external_tasks():
    """An idle kernel must keep waiting for a live task's trigger."""
    kernel = AsyncioKernel()
    data = kernel.event("data")

    def consumer():
        value = yield data
        return value

    proc = kernel.process(consumer())

    async def scenario():
        async def feeder():
            await asyncio.sleep(0.03)
            data.succeed("hello")
        task = asyncio.ensure_future(feeder())
        await kernel.run(until_event=proc)
        await task

    asyncio.run(scenario())
    assert proc.value == "hello"


def test_asyncio_cancelled_guard_does_not_delay_completion():
    kernel = AsyncioKernel()

    def worker():
        guard = kernel.timeout(30.0)
        data = kernel.timeout(0.02, value="x")
        yield kernel.any_of([data, guard])
        guard.cancel()
        return "done"

    proc = kernel.process(worker())
    start = time.perf_counter()
    asyncio.run(kernel.run(until_event=proc))
    assert proc.value == "done"
    assert time.perf_counter() - start < 5.0  # not the 30s guard


def test_asyncio_run_is_not_reentrant():
    kernel = AsyncioKernel()

    async def scenario():
        kernel.timeout(0.5)
        inner = asyncio.ensure_future(kernel.run())
        await asyncio.sleep(0.01)
        with pytest.raises(SimulationError):
            await kernel.run()
        inner.cancel()
        try:
            await inner
        except asyncio.CancelledError:
            pass

    asyncio.run(scenario())


# -- asyncio backend: the pacing contract -----------------------------------
# Each bound is several times the measured effect (see docs/performance.md,
# "The wall-clock kernel paces against deadlines").

def test_asyncio_chained_pauses_do_not_accumulate_timer_lateness():
    """200 x 0.3 ms is 60 ms of modelled time: a late wake shortens the
    next pause instead of pushing every later deadline out (246 ms when
    each pause kept its ~1 ms epoll overshoot)."""
    kernel = AsyncioKernel()
    pauses, step = 200, 0.0003

    def chain():
        for _ in range(pauses):
            yield kernel.timeout(step)

    kernel.process(chain())
    start = time.perf_counter()
    asyncio.run(kernel.run())
    elapsed = time.perf_counter() - start
    assert 0.060 - 0.001 <= elapsed < 0.060 + 0.015
    # The dispatch clock ends on the modelled schedule, not on the wall.
    assert kernel.now == pytest.approx(pauses * step, abs=1e-9)


def test_asyncio_foreign_arrival_mid_sleep_is_stamped_at_the_wall():
    """The guard against pacing *only* on deadlines: an event triggered
    from outside 50 ms into a long sleep happens then, and modelled work
    it arms takes its full modelled time from then on."""
    kernel = AsyncioKernel()
    seen: dict = {}

    def sleeper():
        yield kernel.timeout(1.0)

    data = kernel.event("data")
    armed = kernel.event("armed")

    def on_data(_event):
        seen["lag"] = kernel.wall_now - kernel.now
        seen["armed_at"] = time.perf_counter()
        kernel.timeout(0.05).add_callback(lambda _e: armed.succeed())

    data.add_callback(on_data)
    kernel.process(sleeper())

    async def scenario():
        async def feeder():
            await asyncio.sleep(0.05)
            data.succeed()
        task = asyncio.ensure_future(feeder())
        await kernel.run(until_event=armed)
        seen["armed_for"] = time.perf_counter() - seen["armed_at"]
        await task

    asyncio.run(scenario())
    assert 0.0 <= seen["lag"] < 0.005
    assert 0.05 <= kernel.now < 0.5
    assert seen["armed_for"] >= 0.05


def test_asyncio_pauses_build_no_task_and_hold_one_timer():
    kernel = AsyncioKernel()
    tasks: list = []
    timers: list = []
    live_counts: list = []

    def chain():
        for _ in range(100):
            yield kernel.timeout(0.001)

    kernel.process(chain())

    async def scenario():
        loop = asyncio.get_running_loop()

        def factory(loop, coro, **kwargs):
            tasks.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        real_call_at = loop.call_at

        def call_at(when, callback, *args, **kwargs):
            handle = real_call_at(when, callback, *args, **kwargs)
            timers.append(handle)
            live_counts.append(sum(
                1 for timer in timers
                if not timer.cancelled() and timer.when() > loop.time()))
            return handle

        loop.set_task_factory(factory)
        loop.call_at = call_at
        try:
            await kernel.run()
        finally:
            del loop.call_at
            loop.set_task_factory(None)

    asyncio.run(scenario())
    assert tasks == []
    assert 10 <= len(timers) <= 100  # it did sleep, at most once per pause
    assert max(live_counts) == 1


def test_asyncio_run_until_leaves_now_at_the_bound_when_the_heap_outlives_it():
    kernel = AsyncioKernel()
    far = kernel.timeout(5.0)
    start = time.perf_counter()
    asyncio.run(kernel.run(until=0.05))
    elapsed = time.perf_counter() - start
    assert 0.05 - 0.001 <= elapsed < 0.05 + 0.020
    assert kernel.now == 0.05
    assert not far.processed
    far.cancel()  # still pending, still cancellable
    asyncio.run(kernel.run())
    assert kernel.now == 0.05 and not far.processed


def _spy_wall(kernel, monkeypatch):
    """Count the kernel's wall-clock reads."""
    reads = []
    wall = kernel._wall

    def spied():
        reads.append(kernel.now)
        return wall()

    monkeypatch.setattr(kernel, "_wall", spied)
    return reads


def test_asyncio_due_chain_does_not_read_the_wall_per_event(monkeypatch):
    """A head that is due by the dispatch clock is due: `now` is never
    ahead of the wall, so a chain of zero-delay events costs O(1) wall
    reads, not one each."""
    kernel = AsyncioKernel()
    reads = _spy_wall(kernel, monkeypatch)
    steps = []

    def chain():
        for step in range(1000):
            yield kernel.timeout(0.0)
            steps.append(step)

    kernel.process(chain())
    asyncio.run(kernel.run())
    assert steps == list(range(1000))
    assert kernel.processed_events >= 1000
    assert len(reads) <= 5
    assert kernel.now == 0.0


def test_asyncio_timed_pauses_still_read_the_wall(monkeypatch):
    """Only the already-due head skips the read: a head in the future
    of the dispatch clock is still checked against the wall."""
    kernel = AsyncioKernel()
    reads = _spy_wall(kernel, monkeypatch)

    def pauses():
        for _ in range(5):
            yield kernel.timeout(0.002)

    kernel.process(pauses())
    start = time.perf_counter()
    asyncio.run(kernel.run())
    assert time.perf_counter() - start >= 0.009
    assert kernel.now == pytest.approx(0.010)
    assert len(reads) >= 5
    # The invariant the shortcut rests on: never ahead of the wall.
    assert kernel.now <= time.perf_counter() - start + 1e-6


class _SteppedSelector(selectors.SelectSelector):
    """A selector whose every timed wait moves an injected clock by the
    timeout plus a fixed lateness instead of sleeping."""

    def __init__(self, late: float):
        super().__init__()
        self.clock = 0.0
        self.late = late

    def time(self) -> float:
        return self.clock

    def select(self, timeout=None):
        assert timeout is not None, "the loop would sleep forever"
        if timeout > 0:
            self.clock += timeout + self.late
        return super().select(0)


def test_asyncio_timed_pauses_read_an_injected_wall_clock(monkeypatch):
    """The count twin of the test above, on a loop whose clock is
    injected and whose every timer wakes 0.7 ms late: each pause reads
    the wall, `now` is never ahead of it, and the lateness is not
    summed along the chain (rule 1)."""
    selector = _SteppedSelector(late=0.0007)
    loop = asyncio.SelectorEventLoop(selector)
    loop.time = selector.time
    kernel = AsyncioKernel()
    reads = _spy_wall(kernel, monkeypatch)
    seen = []

    def pauses():
        for _ in range(5):
            yield kernel.timeout(0.002)
            seen.append((kernel.now, loop.time() - kernel._origin))

    kernel.process(pauses())
    try:
        loop.run_until_complete(kernel.run())
    finally:
        loop.close()
    assert len(reads) >= 5
    assert all(now <= wall for now, wall in seen)
    assert [now for now, _wall in seen] == pytest.approx(
        [0.002, 0.004, 0.006, 0.008, 0.010])
    assert kernel.now == pytest.approx(0.010)
    # One overshoot behind the wall at the end, not five.
    assert selector.clock == pytest.approx(0.0107)


def test_asyncio_run_until_in_a_due_chain_leaves_now_at_the_bound(
        monkeypatch):
    kernel = AsyncioKernel()
    _spy_wall(kernel, monkeypatch)
    fired = []

    def ticker():
        while True:
            yield kernel.timeout(0.01)
            fired.append(kernel.now)

    kernel.process(ticker())
    asyncio.run(kernel.run(until=0.035))
    assert kernel.now == 0.035
    assert fired == pytest.approx([0.01, 0.02, 0.03])
    asyncio.run(kernel.run(until=0.035))  # already there: returns at once
    assert kernel.now == 0.035 and len(fired) == 3


def test_asyncio_cancelled_head_is_dropped_not_dispatched():
    kernel = AsyncioKernel()
    order = []
    head = kernel.timeout(0.0)
    head.add_callback(lambda event: order.append("cancelled head"))
    later = kernel.timeout(0.001)
    later.add_callback(lambda event: order.append("later"))
    head.cancel()
    asyncio.run(kernel.run())
    assert order == ["later"]
    assert not head.processed and later.processed
    assert kernel.processed_events == 1


def test_asyncio_drain_quantum_still_yields_to_the_loop():
    """A long due chain may not starve other tasks of the loop."""
    kernel = AsyncioKernel()
    turns = []

    def chain():
        for _ in range(500):
            yield kernel.timeout(0.0)

    proc = kernel.process(chain())

    async def scenario():
        async def bystander():
            while not proc.processed:
                turns.append(kernel.processed_events)
                await asyncio.sleep(0)
        task = asyncio.ensure_future(bystander())
        await kernel.run(until_event=proc)
        await task

    asyncio.run(scenario())
    assert len(turns) >= 500 // 64


def test_asyncio_schedule_in_the_past_is_rejected():
    kernel = AsyncioKernel()
    with pytest.raises(SimulationError):
        kernel.timeout(-1.0)


def test_process_failure_surfaces_from_asyncio_run():
    kernel = AsyncioKernel()

    def boom():
        yield kernel.timeout(0.0)
        raise ValueError("kaputt")

    kernel.process(boom())
    with pytest.raises(SimulationError, match="kaputt"):
        asyncio.run(kernel.run())


# -- the live engine --------------------------------------------------------

class _CannotOpen(UniformDelay):
    """A source whose wrapper cannot even be built."""

    def reset(self) -> None:
        raise RuntimeError("source cannot be opened")


def test_live_engine_matches_simulated_result_tuples():
    """The live asyncio engine runs the virtual-time engine's query over
    the same modelled sources — the same join result, and, its dispatch
    clock reading each event's deadline, the same response time."""
    from repro.config import SimulationParameters
    from repro.core.engine import QueryEngine
    from repro.core.strategies import make_policy
    from repro.exec.live import LiveQueryEngine
    from repro.experiments import figure5_workload

    workload = figure5_workload(scale=0.01)
    params = SimulationParameters()
    delays = {rel: UniformDelay(2e-5) for rel in workload.relation_names}

    simulated = QueryEngine(
        workload.catalog, workload.qep, make_policy("DSE"), delays,
        params=params, seed=5).run()
    live = asyncio.run(LiveQueryEngine(
        workload.catalog, workload.qep, make_policy("DSE"), delays,
        params=params, seed=5).run())

    assert live.result_tuples == simulated.result_tuples
    assert live.strategy == "DSE"
    assert live.response_time == pytest.approx(simulated.response_time,
                                               rel=1e-9)
    assert set(live.wrapper_stats) == set(workload.relation_names)
    # Attribution invariant holds on the wall-clock backend too (only
    # when telemetry is on; default params keep it off -> empty dict).
    assert sum(live.stall_breakdown.values()) == pytest.approx(
        live.stall_time if live.stall_breakdown else 0.0)


@pytest.mark.parametrize("breaks", ["mid-stream", "at-open"])
def test_live_engine_source_failure_leaks_nothing(breaks, breaking_delays):
    """One lifecycle, live front-end: however a source dies, the run
    fails and no task is left running on the loop.

    A stream that raises mid-way is closed so the engine drains, and
    the run then fails naming the relation and the cause rather than
    answering from truncated input (retrying is the fault-injection
    item's business); a source that cannot even be built fails the run
    after its siblings were already started, so they must be stopped.
    """
    from repro.config import SimulationParameters
    from repro.core.strategies import make_policy
    from repro.exec.live import LiveQueryEngine
    from repro.experiments import figure5_workload

    workload = figure5_workload(scale=0.01)
    params = SimulationParameters()
    delays = breaking_delays(workload, params)  # A dies after two messages
    if breaks == "at-open":
        delays["A"] = UniformDelay(params.w_min)
        victim = workload.qep.source_relations()[-1]  # siblings start first
        delays[victim] = _CannotOpen(params.w_min)
    engine = LiveQueryEngine(workload.catalog, workload.qep,
                             make_policy("DSE"), delays, params=params,
                             seed=5)

    async def scenario():
        try:
            await engine.run()
            error = None
        except (RuntimeError, SimulationError) as exc:
            error = exc
        await asyncio.sleep(0)  # let anything cancelled unwind
        current = asyncio.current_task()
        return error, [task for task in asyncio.all_tasks()
                       if task is not current]

    error, tasks = asyncio.run(scenario())
    if breaks == "mid-stream":
        assert isinstance(error, SimulationError)
        assert "'A'" in str(error) and "broke mid-stream" in str(error)
        assert isinstance(error.__cause__, RuntimeError)
    else:
        assert "cannot be opened" in str(error)
    assert tasks == []
