"""Waits taken in place (``Kernel.elapse``) change no order.

A timed slice on the CPU, a disk or the link, and a zero-delay hop
whose timeout would be the kernel's next event, let the process go on
in place instead of through the heap.  The claim is that this is
invisible: every process sees the same ``(now, value)`` sequence, the
processes interleave the same way, and the kernel does the same work
(``processed_events + waits_in_place`` equals the events a kernel that
never waits in place dispatches).  The differential test diffs random
process programs against :mod:`tests.round_trip_kernel`; the edge tests
pin each condition of :meth:`repro.exec.core.KernelBase.elapse`.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.exec.aio import AsyncioKernel
from repro.sim.engine import Simulator
from repro.sim.resources import CPU, Disk, NetworkLink, Store
from tests.round_trip_kernel import RoundTripAsyncioKernel, RoundTripSimulator

#: one gate: every await, signal, grant and stall meets the others.
GATES = 1
#: seconds a program's timed operations take: halves, so deadlines tie.
_SECONDS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_GATE = st.integers(0, GATES - 1)
_OP = st.one_of(
    st.tuples(st.sampled_from(["wait", "cpu", "link", "cancelled"]),
              _SECONDS),
    st.tuples(st.just("disk"), st.integers(1, 2)),
    st.tuples(st.sampled_from(["hop", "put", "get"]), st.none()),
    st.tuples(st.just("await"), _GATE),
    st.tuples(st.just("signal"), _GATE),
    st.tuples(st.just("grant"), _GATE),
    st.tuples(st.just("stall"), st.tuples(_GATE, _SECONDS)),
    st.tuples(st.just("join"), st.integers(0, 3)),
)
_PROGRAMS = st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=4)
_RUNS = st.lists(st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.5, 1.25, 2.0])),
    st.tuples(st.just("step"), st.none()),
), max_size=4)


class _World:
    """Processes running ``programs`` over one CPU, disk, link and store
    of ``kernel``, logging every step; the same programs make the same
    calls on any kernel."""

    def __init__(self, kernel, programs, loop=None):
        self.kernel = kernel
        self.loop = loop
        if loop is not None:
            # A wall that is always ahead: the wall-clock kernel never
            # sleeps, so its runs are pure dispatch order.
            kernel._wall = lambda: math.inf
        self.cpu = CPU(kernel, mips=1.0)
        self.disk = Disk(kernel, latency=0.5, seek_time=0.0,
                         transfer_rate=1.0, page_size=1)
        self.link = NetworkLink(kernel, bandwidth=2.0)
        self.store = Store(kernel, capacity=2)
        self.gates = [kernel.event() for _ in range(GATES)]
        self.log: list = []
        self.snapshots: list = []
        self.processes = [kernel.process(self._program(pid, ops))
                          for pid, ops in enumerate(programs)]

    def _trigger(self, gate, value, in_place):
        event, self.gates[gate] = self.gates[gate], self.kernel.event()
        if in_place:
            event.grant(value)  # its waiters run right here
        else:
            event.succeed(value)

    def _program(self, pid, ops):
        sim = self.kernel
        for step, (name, arg) in enumerate(ops):
            value = None
            if name == "wait":
                value = yield sim.timeout(arg, step)
            elif name == "cpu":
                yield from self.cpu.work(arg * 1e6)
            elif name == "disk":
                yield from self.disk.transfer(pid, 0, arg)
            elif name == "link":
                yield from self.link.transmit(arg * 2.0)
            elif name == "cancelled":
                sim.timeout(arg).cancel()
            elif name == "hop":
                value = step
                if not sim.elapse(0.0):
                    value = yield sim.timeout(0.0, step)
            elif name == "put":
                if not self.store.try_put((pid, step)):
                    yield self.store.put((pid, step))
            elif name == "get":
                # A waiting item taken after Store.get's zero-delay hop,
                # or in place when that hop is the next event.
                waiting, value = self.store.try_get()
                if not waiting:
                    value = yield self.store.get()
                elif not sim.elapse(0.0):
                    value = yield sim.timeout(0.0, value)
            elif name == "await":
                value = yield self.gates[arg]
            elif name in ("signal", "grant"):
                self._trigger(arg, (pid, step), name == "grant")
            elif name == "stall":
                # The DQP's stall shape: a gate or a guard, the guard
                # cancelled when the gate wins.
                gate, seconds = arg
                guard = sim.timeout(seconds, "guard")
                won = yield sim.any_of([self.gates[gate], guard])
                value = sorted(map(repr, won.values()))
                if not guard.processed:
                    guard.cancel()
            elif name == "join" and arg < len(self.processes):
                value = yield self.processes[arg]
            self.log.append((pid, step, sim.now, value))
        return pid

    def drive(self, runs):
        for name, arg in runs + [("run", None)]:
            if name == "step":
                if self.loop is not None or self.kernel.peek() == math.inf:
                    continue
                self.kernel.step()
            else:
                until = None if name == "run" else self.kernel.now + arg
                running = self.kernel.run(until=until)
                if self.loop is not None:
                    self.loop.run_until_complete(running)
            self.snapshots.append((self.kernel.now, len(self.log)))

    def outcome(self):
        """Everything a run shows: each process's steps and result, how
        they interleaved, where every ``run`` stopped, the resources'
        end state."""
        return {
            "log": self.log,
            "snapshots": self.snapshots,
            "results": [(p.value, not p.triggered) for p in self.processes],
            "busy": (self.cpu.busy_time, self.disk.busy_time,
                     self.link.busy_time, self.disk.seeks.value),
            "store": list(self.store.items),
            "gates": [gate.triggered for gate in self.gates],
        }


def _play(make_kernel, programs, runs, asynchronous):
    loop = asyncio.new_event_loop() if asynchronous else None
    try:
        world = _World(make_kernel(), programs, loop)
        world.drive(runs)
    finally:
        if loop is not None:
            loop.close()
    return world


@pytest.mark.parametrize("backend", ["simulator", "asyncio"])
@settings(max_examples=400, deadline=None)
@given(programs=_PROGRAMS, runs=_RUNS)
# One program per condition of `elapse`, each of which a kernel that
# dropped that condition runs differently: a second waiter on the event
# whose first one goes on in place; a process `grant` resumes; a
# deadline tied with the slice's end; a slice past `run(until=)`.  Each
# starts after a wait: the wall-clock kernel's first drain is bounded
# by the wall read as `run` starts.
@example(programs=[[("await", 0), ("cpu", 1.0)], [("await", 0)],
                   [("wait", 0.5), ("signal", 0)]], runs=[])
@example(programs=[[("await", 0), ("cpu", 1.0)],
                   [("wait", 0.5), ("grant", 0)]], runs=[])
@example(programs=[[("wait", 0.5), ("cpu", 0.5)], [("wait", 1.0)]],
         runs=[])
@example(programs=[[("wait", 0.5), ("cpu", 1.0)]],
         runs=[("until", 1.25)])
def test_in_place_waits_change_nothing_a_process_sees(backend, programs,
                                                      runs):
    """Random programs of timed waits, CPU / disk / link slices, store
    puts and gets, zero-delay hops, gates succeeded through the heap or
    granted in place (resuming another process inside this one's
    dispatch), stall guards that get cancelled, joins, under
    ``run(until=)`` and ``step()``: the in-place kernel and the
    round-trip one agree on everything, and the waits taken in place
    are exactly the events the in-place kernel did not dispatch."""
    kernels = ((Simulator, RoundTripSimulator) if backend == "simulator"
               else (AsyncioKernel, RoundTripAsyncioKernel))
    in_place, round_trip = (
        _play(kernel, programs, runs, backend == "asyncio")
        for kernel in kernels)
    assert in_place.outcome() == round_trip.outcome()
    assert round_trip.kernel.waits_in_place == 0
    # The cancelled heads `elapse` drops are accounted for.
    kernel = in_place.kernel
    assert kernel._cancelled == sum(entry[3].cancelled
                                    for entry in kernel._heap)
    assert (in_place.kernel.processed_events
            + in_place.kernel.waits_in_place
            == round_trip.kernel.processed_events)


def test_a_lone_slice_is_taken_in_place_on_both_backends():
    """The differential test above is vacuous if nothing is ever taken
    in place: a lone process's three slices are on the simulator, and
    the last two on the wall-clock kernel, whose first drain is bounded
    by the wall read as ``run`` starts (0 here: the first slice is not
    due by it, so it goes through the heap)."""
    for asynchronous, make_kernel, in_place in ((False, Simulator, 3),
                                                (True, AsyncioKernel, 2)):
        world = _play(make_kernel, [[("cpu", 1.0), ("link", 0.5),
                                     ("disk", 2)]], [], asynchronous)
        assert world.kernel.waits_in_place == in_place
        # The start, and each slice not taken in place.
        assert world.kernel.processed_events == 1 + 3 - in_place
        assert world.kernel.now == 1.0 + 0.5 + 2.5


# -- the conditions, one at a time ---------------------------------------

def _inside(sim, body):
    """Run ``body(sim)`` as a process's first step; returns its result."""
    results = []

    def process():
        results.append(body(sim))
        yield sim.timeout(0.0)

    sim.process(process())
    return results


def test_only_inside_a_dispatch(sim):
    assert sim.elapse(1.0) is False
    assert sim.now == 0.0 and sim.waits_in_place == 0


def test_not_when_anything_is_due_by_then(sim):
    sim.timeout(2.0)

    def body(sim):
        return [sim.elapse(2.0), sim.elapse(1.0), sim.now,
                sim.elapse(1.0), sim.elapse(0.5), sim.now]

    results = _inside(sim, body)
    sim.run()
    # At the very instant of a due event is not strictly before it.
    assert results == [[False, True, 1.0, False, True, 1.5]]
    assert sim.waits_in_place == 2


def test_cancelled_entries_on_top_do_not_count(sim):
    sim.timeout(1.0).cancel()
    sim.timeout(3.0)
    results = _inside(sim, lambda sim: sim.elapse(2.0))
    sim.run()
    assert results == [True]


def test_not_past_the_bound_of_run_until(sim):
    results = _inside(sim, lambda sim: [sim.elapse(2.0), sim.elapse(5.0)])
    sim.run(until=4.0)
    assert results == [[True, False]]
    assert sim.now == 4.0


def test_not_past_the_limit_of_step_or_max_events(sim):
    """``step()`` dispatches one event and takes no wait in place; a
    drain of ``max_events`` takes at most one fewer in place, so a
    process that never has to yield still trips the guard."""
    results = _inside(sim, lambda sim: sim.elapse(1.0))
    sim.step()
    assert results == [False]

    other = Simulator()
    cpu = CPU(other, mips=1.0)

    def spin():
        while True:
            yield from cpu.work(1.0)

    other.process(spin())
    with pytest.raises(SimulationError, match="max_events"):
        other.run(max_events=100)
    assert (other.processed_events, other.waits_in_place) == (100, 99)


def test_not_for_a_callback_that_shares_its_event(sim):
    gate = sim.event()
    seen = []

    def waiter():
        yield gate
        seen.append(sim.elapse(1.0))

    sim.process(waiter())
    sim.process(waiter())
    sim.run()
    gate.succeed()
    sim.run()
    assert seen == [False, False]


def test_not_for_a_process_grant_resumes_but_again_for_its_granter(sim):
    """A granted process runs inside another's dispatch; the granter gets
    its room back when the grant returns."""
    gate = sim.event()
    seen = []

    def waiter():
        yield gate
        seen.append(("granted", sim.elapse(1.0)))

    def granter():
        yield sim.timeout(1.0)
        gate.grant()
        seen.append(("granter", sim.elapse(1.0)))

    sim.process(waiter())
    sim.process(granter())
    sim.run()
    assert seen == [("granted", False), ("granter", True)]


def test_not_once_a_stop_is_requested(sim):
    def body(sim):
        sim._stop_requested = True
        return sim.elapse(1.0)

    results = _inside(sim, body)
    sim.run()
    assert results == [False]


def test_a_bad_delay_is_an_error(sim):
    for delay in (-1.0, math.nan):
        with pytest.raises(SimulationError, match="cannot elapse"):
            sim.elapse(delay)


def test_the_wall_clock_kernel_never_passes_the_wall():
    kernel = AsyncioKernel()
    wall = [0.0]
    kernel._wall = lambda: wall[0]
    results = []

    def process():
        results.append(kernel.elapse(0.0))
        results.append(kernel.elapse(1.0))  # the wall still reads 0
        yield kernel.timeout(0.0)

    kernel.process(process())
    asyncio.run(kernel.run())
    assert results == [True, False]


# -- exception safety and nesting ------------------------------------------

def test_a_raising_callback_leaves_no_dispatch_behind(sim):
    def explode(event):
        raise RuntimeError("boom")

    sim.timeout(1.0).add_callback(explode)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.elapse(1.0) is False
    assert sim.now == 1.0


def test_a_nested_drain_restores_the_outer_bound_and_dispatch(sim):
    sim.timeout(0.5).cancel()
    sim.timeout(10.0)

    def body(sim):
        sim.peek()  # a drain of its own, bounded before every deadline
        return [sim.elapse(1.0), sim.elapse(5.0), sim.now]

    results = _inside(sim, body)
    sim.run(until=4.0)
    assert results == [[True, False, 1.0]]
