"""The wall-clock engine is the virtual-time engine; a real source costs
the modelled machine what a modelled one does.

``LiveQueryEngine`` runs ``QueryEngine``'s query over the same modelled
wrappers on the asyncio kernel, so its results are the virtual-time
run's (exact).  ``LiveWrapper`` bridges a *real* async source, here a
small paced generator: by count (exact), one modelled message per data
batch and the end of the stream is not one; by clock (bounded), a live
run's response time against the virtual-time run of the same plan.

The clock bounds are several timer overshoots wide (one ``epoll`` wake
measures 0.1-1 ms late on a 2-vCPU Linux VM), and host noise only ever
adds time, so each clock test takes the best of a few attempts.
"""

import asyncio
import math

import pytest

from repro.common.errors import SimulationError
from repro.config import SimulationParameters
from repro.core.engine import QueryEngine, QueryRun
from repro.core.runtime import World
from repro.core.strategies import make_policy
from repro.exec.aio import AsyncioKernel
from repro.exec.live import LiveQueryEngine, LiveWrapper, live_wrappers
from repro.experiments import figure5_workload
from repro.wrappers import ConstantDelay, JitteredDelay

ATTEMPTS = 3


async def paced(cardinality, per_batch, wait):
    """A real source: ``cardinality`` tuples in ``per_batch``-tuple
    batches, each ``count * wait`` seconds after the last.

    Paced against an absolute due time, so a late wake shortens the next
    pause instead of adding up; time the consumer holds a batch moves
    the due time back, so a held source resumes at its rate instead of
    bursting to catch up."""
    clock = asyncio.get_running_loop().time
    due = clock()
    while cardinality > 0:
        count = min(per_batch, cardinality)
        due += count * wait
        pause = due - clock()
        if pause > 0:
            await asyncio.sleep(pause)
        handed_over = clock()
        yield count
        due += clock() - handed_over
        cardinality -= count


def constant_sources(workload, params, wait):
    """Every relation ships at exactly ``wait`` seconds per tuple."""
    def factory(relation):
        cardinality = workload.catalog.relation(relation).cardinality
        return lambda: paced(cardinality, params.tuples_per_message, wait)
    return {relation: factory(relation)
            for relation in workload.relation_names}


async def live_run(workload, strategy, sources, params):
    """One live run driven directly, so the test keeps the world."""
    world = World(params, seed=5, kernel=AsyncioKernel())
    query = QueryRun(world, workload.qep, make_policy(strategy),
                     live_wrappers(world, sources))
    try:
        await world.sim.run(until_event=query.start())
        return query.result(), world, query
    finally:
        query.detach()


def run_live(workload, strategy, sources, params):
    return asyncio.run(live_run(workload, strategy, sources, params))


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


# -- the engine -------------------------------------------------------------

@pytest.mark.parametrize("delay", ["constant", "jittered"])
@pytest.mark.parametrize("strategy", ["SEQ", "MA", "DSE"])
def test_the_live_engine_reports_the_virtual_time_run(strategy, delay):
    """Same query, delay models and seed: the counts are equal and the
    times equal up to float rounding, stall attribution included."""
    workload = figure5_workload(scale=0.005)
    params = SimulationParameters(telemetry_enabled=True)
    delays = {relation: (ConstantDelay(20e-6) if delay == "constant" else
                         JitteredDelay(20e-6 * (10 if relation == "A"
                                                else 1)))
              for relation in workload.relation_names}
    args = (workload.catalog, workload.qep, make_policy(strategy), delays)
    virtual = QueryEngine(*args, params=params, seed=3).run()
    live = asyncio.run(LiveQueryEngine(*args, params=params, seed=3).run())

    for key in ("result_tuples", "batches_processed", "degradations",
                "planning_phases", "memory_peak_bytes"):
        assert getattr(live, key) == getattr(virtual, key), key
    for key in ("response_time", "time_to_first_tuple", "stall_time"):
        assert getattr(live, key) == pytest.approx(getattr(virtual, key),
                                                   rel=1e-9), key
    assert live.stall_breakdown.keys() == virtual.stall_breakdown.keys()
    for cause, seconds in virtual.stall_breakdown.items():
        assert live.stall_breakdown[cause] == pytest.approx(seconds,
                                                            rel=1e-9), cause
    assert live.wrapper_stats.keys() == virtual.wrapper_stats.keys()
    for name, (sent, production, blocked) in virtual.wrapper_stats.items():
        assert live.wrapper_stats[name][0] == sent
        assert live.wrapper_stats[name][1:] == pytest.approx(
            (production, blocked), rel=1e-9, abs=1e-12), name


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


# -- the feeder -----------------------------------------------------------

def test_the_feeder_runs_at_most_two_batches_ahead_of_the_pump():
    """A source that never sleeps against a consumer that does: the
    feeder fills the modelled wrapper's capacity-2 outbound store, so
    the window protocol throttles the source."""
    total, pulls, depths = 40, [], []
    params = SimulationParameters()
    kernel = AsyncioKernel()
    world = World(params, seed=1, kernel=kernel)

    async def eager():
        for _ in range(total):
            pulls.append(kernel.now)
            depths.append(len(wrapper.outbound))
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
    # two in the outbound store and the one the source was just asked for.
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


# -- failure ----------------------------------------------------------------

@pytest.mark.parametrize("breaks", ["mid-stream", "at-open"])
def test_a_failing_live_source_leaves_no_feeder(breaks, breaking_source,
                                                pending_feeders):
    """A real stream that raises mid-way is closed so the engine drains,
    and the run fails naming the relation; a source that cannot even be
    opened fails the run after its siblings started, and detaching
    cancels their feeders."""
    workload = figure5_workload(scale=0.01)
    params = SimulationParameters()
    sources = constant_sources(workload, params, 2e-5)

    def cannot_open():
        raise RuntimeError("source cannot be opened")

    if breaks == "mid-stream":
        sources["F"] = breaking_source(sources["F"])  # 1,800 tuples
    else:
        sources[workload.qep.source_relations()[-1]] = cannot_open

    async def scenario():
        try:
            await live_run(workload, "DSE", sources, params)
            error = None
        except (RuntimeError, SimulationError) as exc:
            error = exc
        await asyncio.sleep(0)  # let cancelled feeders unwind
        return error, pending_feeders()

    error, feeders = asyncio.run(scenario())
    if breaks == "mid-stream":
        assert isinstance(error, SimulationError)
        assert "'F'" in str(error) and "broke mid-stream" in str(error)
        assert isinstance(error.__cause__, RuntimeError)
    else:
        assert "cannot be opened" in str(error)
    assert feeders == []
