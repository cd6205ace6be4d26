"""A live source costs the modelled machine what a simulated one does.

By count (exact): one modelled message per data batch, the end of the
stream is not one.  By clock (bounded): a live run's response time
against the virtual-time run of the same plan, and the pacing of
``jittered_batches`` itself.

The clock bounds are several timer overshoots wide (one ``epoll`` wake
measures 0.1-1 ms late on the reference sandbox; see
docs/performance.md, "Live sources cost what the modelled wrapper
costs"), and host noise only ever adds time, so each clock test takes
the best of a few attempts.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.core.engine import QueryEngine, QueryRun
from repro.core.runtime import World
from repro.core.strategies import make_policy
from repro.exec.aio import AsyncioKernel
from repro.exec.live import LiveWrapper, jittered_batches, live_wrappers
from repro.experiments import figure5_workload
from repro.wrappers import ConstantDelay

ATTEMPTS = 3


def constant_sources(workload, params, wait):
    """Every relation ships at exactly ``wait`` seconds per tuple."""
    def factory(relation):
        cardinality = workload.catalog.relation(relation).cardinality
        return lambda: jittered_batches(
            cardinality, params.tuples_per_message, wait,
            np.random.default_rng(0), jitter=0.0)
    return {relation: factory(relation)
            for relation in workload.relation_names}


def run_live(workload, strategy, sources, params):
    """One live run driven directly, so the test keeps the world."""
    async def scenario():
        world = World(params, seed=5, kernel=AsyncioKernel())
        query = QueryRun(world, workload.qep, make_policy(strategy),
                         live_wrappers(world, sources))
        try:
            await world.sim.run(until_event=query.start())
            return query.result(), world, query
        finally:
            query.detach()
    return asyncio.run(scenario())


def run_virtual(workload, strategy, params, wait):
    return QueryEngine(
        workload.catalog, workload.qep, make_policy(strategy),
        {relation: ConstantDelay(wait)
         for relation in workload.relation_names},
        params=params, seed=5).run()


def live_over_virtual(scale, strategy, wait):
    """Best live ÷ virtual response-time ratio over a few attempts."""
    workload = figure5_workload(scale=scale)
    params = SimulationParameters()
    virtual = run_virtual(workload, strategy, params, wait)
    best = math.inf
    for _ in range(ATTEMPTS):
        live, _, _ = run_live(workload, strategy,
                              constant_sources(workload, params, wait),
                              params)
        assert live.result_tuples == virtual.result_tuples
        best = min(best, live.response_time / virtual.response_time)
    return best


# -- by count ---------------------------------------------------------------

@pytest.mark.parametrize("scale, messages", [(0.0005, 6), (0.02, 58)])
def test_a_live_run_registers_one_modelled_message_per_data_batch(
        scale, messages):
    workload = figure5_workload(scale=scale)
    params = SimulationParameters(telemetry_enabled=True)
    per_message = params.tuples_per_message
    assert messages == sum(
        math.ceil(workload.catalog.relation(relation).cardinality
                  / per_message)
        for relation in workload.relation_names)

    result, world, query = run_live(
        workload, "DSE", constant_sources(workload, params, 0.0), params)

    assert sum(estimator.messages_delivered
               for estimator in world.cm.estimators.values()) == messages
    assert result.metrics.get("cm.messages_received").value == messages
    assert world.cm.all_exhausted()
    for wrapper in query.wrappers:
        assert wrapper.tuples_sent \
            == workload.catalog.relation(wrapper.name).cardinality
        assert (result.metrics.get(f"wrapper.{wrapper.name}.tuples_sent")
                .value == wrapper.tuples_sent)
        assert wrapper.finished_at is not None and wrapper.error is None


# -- by clock ---------------------------------------------------------------

def test_a_source_that_never_sleeps_costs_no_more_than_the_model():
    """Six single-batch relations, ``wait=0``: nothing sleeps but the
    modelled machine, so what the run takes beyond virtual time is what
    the live adapter adds (1.93x when end-of-stream was a 2 ms message,
    serialised six times on the one mediator CPU)."""
    assert live_over_virtual(0.0005, "DSE", 0.0) <= 1.25


@pytest.mark.parametrize("strategy", ["SEQ", "DSE"])
def test_multi_batch_response_time_tracks_virtual_time(strategy):
    """58 batches at a constant 20 us/tuple: production overlaps
    delivery as in the simulated wrapper (SEQ read 1.95x virtual when
    each batch waited for the previous one to clear ``deliver``)."""
    assert live_over_virtual(0.02, strategy, 20e-6) <= 1.3


# -- pacing -----------------------------------------------------------------

def test_jittered_batches_do_not_accumulate_timer_lateness():
    """100 x 0.3 ms is 30 ms of modelled production (118 ms when every
    pause kept its own overshoot)."""
    batches, delay = 100, 0.0003

    async def scenario():
        clock = asyncio.get_running_loop().time
        start = clock()
        shipped = [count async for count in jittered_batches(
            batches * 10, 10, delay / 10, np.random.default_rng(0),
            jitter=0.0)]
        return shipped, clock() - start

    best = math.inf
    for _ in range(ATTEMPTS):
        shipped, elapsed = asyncio.run(scenario())
        assert shipped == [10] * batches
        assert elapsed >= batches * delay - 1e-4
        best = min(best, elapsed)
    assert best < 0.030 + 0.015


def test_time_the_consumer_holds_a_batch_shifts_the_schedule():
    """Deadline pacing must not turn consumer-held time into a burst:
    batch ``i`` is never handed over before its modelled production
    time plus everything the consumer held the source for."""
    batches, delay, hold = 10, 0.002, 0.005

    async def scenario():
        clock = asyncio.get_running_loop().time
        source = jittered_batches(batches * 10, 10, delay / 10,
                                  np.random.default_rng(0), jitter=0.0)
        start = clock()
        held, slack = 0.0, []
        async for _ in source:
            got = clock()
            held_before = held
            await asyncio.sleep(hold)
            held += clock() - got
            slack.append(got - start - held_before)
        return slack, clock() - start, held

    slack, elapsed, held = asyncio.run(scenario())
    for index, since_start in enumerate(slack):
        assert since_start >= (index + 1) * delay - 1e-4
    assert elapsed < batches * delay + held + 0.015


def test_the_feeder_runs_at_most_two_batches_ahead_of_the_pump():
    """A source that never sleeps against a consumer that does: the
    inbox is bounded like the simulated wrapper's outbound store, so
    the window protocol throttles the source."""
    total, pulls, depths = 40, [], []
    params = SimulationParameters()
    kernel = AsyncioKernel()
    world = World(params, seed=1, kernel=kernel)

    async def eager():
        for _ in range(total):
            pulls.append(kernel.now)
            depths.append(wrapper._inbox.qsize())
            yield 10

    wrapper = LiveWrapper(kernel, "W", world.cm, eager())
    ahead = []

    def consumer():
        queue = world.cm.queue("W")
        consumed = 0
        while not queue.exhausted:
            yield queue.data_event()
            yield kernel.timeout(0.001)
            consumed += queue.take_batch(10)
            ahead.append(len(pulls) * 10 - consumed)
        return consumed

    async def scenario():
        wrapper.start()
        done = kernel.process(consumer())
        await kernel.run(until_event=done)
        return done.value

    assert asyncio.run(scenario()) == total * 10
    assert max(depths) <= 2
    # In flight at most: the queue's window, one batch inside deliver,
    # two in the inbox and the one the source was just asked for.
    window = params.queue_capacity_messages + 1 + 2 + 1
    assert max(ahead) <= window * 10
    # 40 takes 1 ms apart, and the source is held through most of them.
    assert wrapper.blocked_time > 0.020


# -- the rate sample --------------------------------------------------------

def test_a_back_pressured_source_does_not_read_as_a_slow_one():
    """Under SEQ most relations sit behind a full queue for most of the
    run.  The rate sample (and ``production_time``) is time inside the
    source, never time the feeder waited for room."""
    workload = figure5_workload(scale=0.02)
    params = SimulationParameters()
    wait = 10e-6  # 2.04 ms per 204-tuple batch

    _, world, query = run_live(
        workload, "SEQ", constant_sources(workload, params, wait), params)

    # A, B, D and F ship 10-18 batches each and are held for longer
    # than they produce; C and E are one or two batches, too few for a
    # 25 % bound (one late wake is 20 % of a batch).
    blocked = [wrapper for wrapper in query.wrappers
               if wrapper.blocked_time > wrapper.production_time]
    assert {wrapper.name for wrapper in blocked} == set("ABDF")
    for wrapper in blocked:
        estimate = world.cm.estimators[wrapper.name].wait_estimate
        assert estimate == pytest.approx(wait, rel=0.25)
        assert wrapper.production_time == pytest.approx(
            wrapper.tuples_sent * wait, rel=0.25)
