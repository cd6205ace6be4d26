"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.exec import PRIORITY_URGENT
from repro.sim import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_returns_value(sim):
    def worker():
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(worker())
    sim.run()
    assert proc.value == 42
    assert sim.now == 1.0


def test_process_receives_timeout_value(sim):
    seen = []

    def worker():
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.process(worker())
    sim.run()
    assert seen == ["payload"]


def test_processes_interleave_in_time_order(sim):
    log = []

    def worker(name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.process(worker("b", 2.0))
    sim.process(worker("a", 1.0))
    sim.process(worker("c", 3.0))
    sim.run()
    assert log == ["a", "b", "c"]


def test_same_time_events_fifo(sim):
    log = []

    def worker(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in ["x", "y", "z"]:
        sim.process(worker(name))
    sim.run()
    assert log == ["x", "y", "z"]


def test_run_until_stops_clock_exactly(sim):
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_beyond_last_event(sim):
    sim.timeout(1.0)
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_event_succeed_wakes_waiter(sim):
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append(value)

    def opener():
        yield sim.timeout(5.0)
        gate.succeed("opened")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == ["opened"]
    assert sim.now == 5.0


def test_event_cannot_trigger_twice(sim):
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_event_failure_thrown_into_process(sim):
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_joining_another(sim):
    def inner():
        yield sim.timeout(2.0)
        return "inner-result"

    def outer():
        value = yield sim.process(inner())
        return f"got {value}"

    proc = sim.process(outer())
    sim.run()
    assert proc.value == "got inner-result"


def test_uncaught_process_exception_surfaces_in_run(sim):
    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("died")

    sim.process(bad())
    with pytest.raises(SimulationError, match="died"):
        sim.run()


def test_joined_process_failure_is_defused(sim):
    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("inner failure")

    caught = []

    def outer():
        try:
            yield sim.process(bad())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(outer())
    sim.run()
    assert caught == ["inner failure"]


def test_yielding_non_event_fails_process(sim):
    def bad():
        yield 42

    proc = sim.process(bad())
    proc.defused = True
    sim.run()
    assert isinstance(proc.failure, SimulationError)


def test_any_of_first_event_wins(sim):
    results = []

    def waiter():
        fired = yield sim.any_of([sim.timeout(5.0, value="slow"),
                                  sim.timeout(1.0, value="fast")])
        results.append(list(fired.values()))

    sim.process(waiter())
    sim.run(until=2.0)
    assert results == [["fast"]]


def test_all_of_waits_for_every_event(sim):
    results = []

    def waiter():
        fired = yield sim.all_of([sim.timeout(1.0, value="a"),
                                  sim.timeout(3.0, value="b")])
        results.append(sorted(v for v in fired.values()))

    sim.process(waiter())
    sim.run()
    assert results == [["a", "b"]]
    assert sim.now == 3.0


def test_any_of_empty_rejected(sim):
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_step_on_empty_queue_rejected(sim):
    with pytest.raises(SimulationError):
        sim.step()


def test_max_events_guard(sim):
    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_peek_returns_next_event_time(sim):
    sim.timeout(7.0)
    sim.timeout(3.0)
    assert sim.peek() == 3.0


def test_peek_empty_is_infinite(sim):
    assert sim.peek() == float("inf")


def test_urgent_priority_runs_first(sim):
    order = []
    normal = sim.event(name="normal")
    urgent = sim.event(name="urgent")
    normal.add_callback(lambda e: order.append("normal"))
    urgent.add_callback(lambda e: order.append("urgent"))
    normal.succeed()
    urgent.succeed(priority=PRIORITY_URGENT)
    sim.run()
    assert order == ["urgent", "normal"]


def test_callback_after_processed_runs_immediately(sim):
    event = sim.timeout(1.0)
    sim.run()
    log = []
    event.add_callback(lambda e: log.append("late"))
    assert log == ["late"]


def test_yielding_processed_events_loops_instead_of_recursing(sim):
    """A process may wait on what already happened any number of times;
    resuming through ``add_callback``'s immediate call would nest two
    frames per wait and die of RecursionError."""
    done = sim.timeout(0.0)

    def worker():
        for _ in range(5000):
            yield done
        return "finished"

    proc = sim.process(worker())
    sim.run()
    assert proc.value == "finished"
    # start event + the timeout: the 4999 repeat waits cost no kernel
    # event, and neither does a completion nobody waits on.
    assert sim.processed_events == 2


def test_grant_processes_an_event_in_place(sim):
    event = sim.event("slot")
    log = []
    event.add_callback(lambda e: log.append(e.value))
    assert event.grant("yours") is event
    assert event.processed and event.ok and log == ["yours"]
    with pytest.raises(SimulationError):
        event.grant()
    with pytest.raises(SimulationError):
        event.succeed()
    sim.run()
    assert sim.processed_events == 0


def test_kernel_event_records_are_slotted(sim):
    def idle():
        yield sim.timeout(1.0)

    process = sim.process(idle())
    records = [sim.event("e"), sim.timeout(1.0), process,
               sim.any_of([sim.event()]), sim.all_of([sim.event()])]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.scribble = 1
    # Only a timeout carries its own cancellation flag; the rest read
    # the class constant the kernels' hot loops test.
    assert [record.cancelled for record in records] == [False] * 5
    sim.run()


def test_cancelled_timeout_is_skipped_by_every_way_of_running(sim):
    fired = []
    for run in (lambda: sim.run(), lambda: sim.run(until=sim.now + 10.0),
                lambda: sim.step()):
        doomed = sim.timeout(1.0)
        doomed.add_callback(lambda e: fired.append("doomed"))
        kept = sim.timeout(2.0)
        kept.add_callback(lambda e: fired.append("kept"))
        doomed.cancel()
        before = sim.processed_events
        run()
        assert fired == ["kept"] and not doomed.processed and kept.processed
        assert sim.processed_events == before + 1
        fired.clear()
    with pytest.raises(SimulationError):
        kept.cancel()  # already elapsed


def test_cancelled_timeout_pins_nothing(sim):
    """Its callbacks can never run, so it lets go of them — and of the
    kernel whose heap still holds it until the lazy discard."""
    guard = sim.timeout(5.0)
    waiter = sim.any_of([sim.event("data"), guard])
    assert guard._callbacks == [waiter._on_child]
    guard.cancel()
    assert guard._callbacks == [] and guard.sim is None
    sim.run()
    assert not guard.processed and not waiter.triggered


@pytest.mark.parametrize("ending", ["returns", "raises", "yields junk"])
def test_finished_process_releases_its_generator_and_its_step(sim, ending):
    """``_step`` is a bound method of the process itself: kept past the
    end, every finished process would be a reference cycle."""
    def body():
        yield sim.timeout(1.0)
        if ending == "raises":
            raise ValueError("boom")
        if ending == "yields junk":
            yield "not an event"

    process = sim.process(body())
    process.defused = True
    assert process.generator is not None and process._step is not None
    sim.run()
    assert process.triggered
    assert process.ok == (ending == "returns")
    assert process.generator is None and process._step is None


def test_failed_process_is_not_reachable_from_its_own_failure(sim):
    """The traceback starts at the generator, not at the kernel frame
    that caught the failure (which holds the process)."""
    def body():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    process = sim.process(body())
    process.defused = True
    sim.run()
    frames = []
    traceback = process.failure.__traceback__
    while traceback is not None:
        frames.append(traceback.tb_frame.f_code.co_name)
        traceback = traceback.tb_next
    assert frames == ["body"]


def test_determinism_same_seedless_structure():
    def build_and_run():
        sim = Simulator()
        trace = []

        def worker(name, delay):
            for i in range(3):
                yield sim.timeout(delay)
                trace.append((sim.now, name, i))

        sim.process(worker("p1", 1.5))
        sim.process(worker("p2", 1.5))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


def test_timeout_at_falls_due_at_the_deadline_itself(sim):
    """``timeout_at`` keys the heap on the deadline it is given, where
    ``timeout(when - now)`` lands on ``now + (when - now)``: here one
    ulp later.  A deadline before ``now`` is refused."""
    now, when = 0.19886753156080092, 0.4651569241356785
    assert now + (when - now) != when

    def waiter():
        yield sim.timeout(now)
        yield sim.timeout_at(when)
        return sim.now

    proc = sim.process(waiter())
    sim.run()
    assert proc.value == when
    with pytest.raises(SimulationError):
        sim.timeout_at(when - 1.0)
