"""Nothing a query builds needs the cyclic collector.

Ownership points down (``QueryRun`` -> runtime -> fragments; kernel ->
process -> generator) and every back-reference is weak or severed by its
owner when the thing ends — see ``docs/architecture.md`` §1.  Each case
runs with the collector off and must leave it nothing to find, on
success and failure paths alike and whatever the number of queries.
"""

import asyncio

import pytest

from repro.config import SimulationParameters
from repro.core.engine import QueryRun, seeded_wrappers
from repro.core.runtime import World
from repro.core.strategies import make_policy
from repro.parallel.spec import MultiQuerySpec, RunSpec, uniform_delay_specs
from repro.service import QueryService, SubmissionRequest
from repro.sim import Simulator
from repro.wrappers import JitteredDelay, UniformDelay

FAST = dict(cpu_mips=10_000.0, disk_latency=17e-5, disk_seek_time=5e-5,
            disk_transfer_rate=600_000_000.0)


def serve(requests, leases=4, history=8):
    """Run ``requests`` through an in-process service that remembers
    its ``history`` newest records; returns each submission's end state."""
    params = SimulationParameters(telemetry_enabled=True, **FAST)

    async def scenario():
        service = QueryService(
            params=params, seed=1, history=history,
            global_memory_bytes=leases * params.query_memory_bytes,
            admission="priority")
        await service.start()
        try:
            records = [service.submit(request) for request in requests]
            for record in records:
                await asyncio.wait_for(record.done.wait(), timeout=60.0)
            return [record.state for record in records]
        finally:
            await service.stop()
    return asyncio.run(scenario())


@pytest.mark.parametrize("submissions", [20, 200])
def test_service_submissions(assert_no_cyclic_garbage, submissions):
    """Over 4 leases, cycling the strategies, records dropped past
    ``history``: 0 objects, whatever the number of submissions."""
    strategies = ("DSE", "DSE", "MA", "SEQ")
    requests = [SubmissionRequest(strategy=strategies[i % 4], scale=0.0005,
                                  seed=i, wait_us=0.0)
                for i in range(submissions)]

    def run():
        assert set(serve(requests)) == {"done"}
    assert_no_cyclic_garbage(run)


def test_service_submission_whose_source_dies(assert_no_cyclic_garbage,
                                              break_service_source):
    break_service_source("mid-stream", every=2)
    requests = [SubmissionRequest(seed=i, scale=0.002, wait_us=20.0,
                                  memory_bytes=1 << 20) for i in range(8)]

    def run():
        # Sequence numbers start at 1: the even ones lose a source.
        assert serve(requests) == ["done", "failed"] * 4
    assert_no_cyclic_garbage(run)


@pytest.mark.parametrize("strategy", ["SEQ", "MA", "DSE"])
def test_one_shot_run(assert_no_cyclic_garbage, strategy):
    params = SimulationParameters()
    delays = uniform_delay_specs(
        {name: 4 * params.w_min for name in "ABCDEF"})

    def run():
        result = RunSpec(strategy, 1, 0.02, delays, params).execute()
        assert result.result_tuples == 1000
    assert_no_cyclic_garbage(run)


def test_one_shot_run_through_timeouts(assert_no_cyclic_garbage):
    """A source silent for ten timeouts: every stall of that stretch is
    ended by its guard ``Timeout``, none by data."""
    params = SimulationParameters(timeout=0.5)
    delays = uniform_delay_specs({name: params.w_min for name in "ABCDEF"})
    delays["A"] = {"kind": "initial", "initial": 5.0, "base": delays["A"]}

    def run():
        result = RunSpec("SEQ", 1, 0.02, delays, params).execute()
        assert result.timeouts >= 5 and result.result_tuples == 1000
    assert_no_cyclic_garbage(run)


@pytest.mark.parametrize("strategy", ["DSE", "MA"])
def test_multiquery_with_spans_and_dynamic_budgets(assert_no_cyclic_garbage,
                                                   strategy):
    """The tight-pool batch of ``bench/``: admission waits, lease grows,
    degradations and DQO splits, with the span hooks compiled in."""
    mb = 1024 * 1024
    shrink = 0.04
    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_spans=True,
                                  dynamic_budget_replanning=True)
    spec = MultiQuerySpec(
        strategy, 4 * params.w_min, 8, 3, 0.5 * shrink, inter_arrival=0.05,
        params=params, memory_bytes=int(4.0 * mb * shrink),
        min_memory_bytes=int(3.7 * mb * shrink),
        max_memory_bytes=int(8 * mb * shrink),
        global_memory_bytes=int(10 * mb * shrink), admission="priority")

    def run():
        outcomes = spec.execute().outcomes
        assert sum(outcome.memory_splits for outcome in outcomes) >= 1
        assert sum(outcome.budget_grows for outcome in outcomes) >= 1
        assert any(outcome.admission_wait > 0 for outcome in outcomes)
    assert_no_cyclic_garbage(run)


def test_live_run(assert_no_cyclic_garbage, tiny_fig5):
    """``repro live``: the modelled sources on a kernel of its own."""
    from repro.exec.live import LiveQueryEngine

    params = SimulationParameters(telemetry_enabled=True,
                                  telemetry_spans=True, **FAST)
    delays = {name: JitteredDelay(5e-6) for name in tiny_fig5.relation_names}

    def run():
        engine = LiveQueryEngine(
            tiny_fig5.catalog, tiny_fig5.qep, make_policy("DSE"), delays,
            params=params, seed=9)
        assert asyncio.run(engine.run()).result_tuples == 1000
    assert_no_cyclic_garbage(run)


def test_run_stopped_by_detach(assert_no_cyclic_garbage, tiny_fig5):
    """Sources stopped mid-stream: each closes its stream at its next
    message and the engine drains what arrived."""
    params = SimulationParameters()
    delays = {name: UniformDelay(4 * params.w_min)
              for name in tiny_fig5.relation_names}

    def run():
        world = World(params, seed=1)
        query = QueryRun(world, tiny_fig5.qep, make_policy("DSE"),
                         seeded_wrappers(world, tiny_fig5.catalog, delays))
        query.start()
        world.sim.run(until=0.05)
        assert 0 < query.batches_processed
        query.detach()
        world.sim.run()
        query.result()
        assert any(wrapper.tuples_sent < wrapper.relation.cardinality
                   for wrapper in query.wrappers)
    assert_no_cyclic_garbage(run)


@pytest.mark.parametrize("stop_at", [2.5, 3.0])
def test_tick_raced_against_stop(assert_no_cyclic_garbage, stop_at):
    """The telemetry sampler's idiom: race each periodic tick against one
    stop event, with no guard to withdraw.  Stopped between two ticks
    (the pending tick still fires, unheeded) or on a tick."""
    def ticker(sim, stop, ticks):
        while True:
            tick = sim.timeout(1.0)
            yield sim.any_of([tick, stop])
            if stop.triggered:
                return sim.now
            ticks.append(sim.now)

    def stopper(sim, stop):
        yield sim.timeout(stop_at)
        stop.succeed("stop")

    def run():
        sim = Simulator()
        stop = sim.event("stop")
        ticks: list = []
        waiter = sim.process(ticker(sim, stop, ticks))
        sim.process(stopper(sim, stop))
        sim.run()
        assert waiter.value == stop_at
        assert ticks == [1.0, 2.0]
    assert_no_cyclic_garbage(run)


@pytest.mark.parametrize("submissions", [20, 200])
def test_what_the_plan_compiled_pins_no_run(monkeypatch, submissions):
    """The plane's cached workload carries what every run of its plan
    shares (``QEP.closure`` ..., the compiled chains and their MF / CF
    segments, one entry each per parameter set): it outlives every
    submission, grows with none of them, and — sitting below every run —
    keeps no finished ``QueryRuntime`` or query-view ``World`` alive."""
    import gc
    import weakref

    import repro.core.engine as engine_module
    from repro.core.engine import main_value, spawn_main
    from repro.service.backend import ExecutionPlane

    finished = []
    make_runtime = engine_module.QueryRuntime

    def recording_runtime(world, qep):
        runtime = make_runtime(world, qep)
        finished.extend((weakref.ref(runtime), weakref.ref(world)))
        return runtime

    monkeypatch.setattr(engine_module, "QueryRuntime", recording_runtime)
    params = SimulationParameters(telemetry_enabled=True, **FAST)
    plane = ExecutionPlane(params, 1, 4 * params.query_memory_bytes,
                           "priority", name="virtual", kernel=Simulator())
    strategies = ("DSE", "DSE", "MA", "SEQ")

    def run(count, first):
        mains = []
        for sequence in range(first, first + count):
            request = SubmissionRequest(
                strategy=strategies[sequence % 4], scale=0.0005,
                seed=sequence, wait_us=0.0)
            mains.append(spawn_main(plane.kernel, plane.execute(
                f"s-{sequence}", request, sequence,
                request.resolved_budgets(params), 0.0,
                lambda run, waited: None), f"query:{sequence}"))
        plane.kernel.run()
        assert [main_value(main)["result_tuples"] for main in mains] \
            == [25] * count

    def cache_size():
        qep = plane.workload(0.0005).qep
        return (len(plane._workloads), len(qep.compiled),
                sorted(len(chains) for chains in qep.compiled.values()),
                len(plane.machine.telemetry.registry))

    run(4, 1)  # imports, lazily built classes, the first compile
    warm = cache_size()
    assert warm == (1, 3, [6, 6, 6], 0)  # telemetry on, yet no metric written
    finished.clear()
    gc.collect()
    gc.disable()
    try:
        run(submissions, 1000)
        assert len(finished) == 2 * submissions
        alive = [ref() for ref in finished if ref() is not None]
        assert alive == [], f"{len(alive)} finished runtimes/worlds pinned"
    finally:
        gc.enable()
    assert cache_size() == warm
    qep = plane.workload(0.0005).qep
    assert qep.closure["pC"] and qep.chain_index["pA"] == 0


def test_a_finished_submission_pins_nothing(monkeypatch):
    """300 MA/DSE submissions on one plane: every temp relation and temp
    writer they made is freed, and the kernel heap never holds more than
    ``2 * live + floor`` entries (it kept each finished stall's cancelled
    guard, ≈ 2.5 a submission, until its deadline came up)."""
    import gc
    import weakref

    from repro.core.engine import main_value, spawn_main
    from repro.exec.core import _COMPACT_FLOOR
    from repro.mediator.buffer import BufferManager
    from repro.service.backend import ExecutionPlane

    made = []
    create_temp = BufferManager.create_temp

    def recording_create_temp(self, *args, **kwargs):
        writer = create_temp(self, *args, **kwargs)
        made.extend((weakref.ref(writer), weakref.ref(writer.temp)))
        return writer

    monkeypatch.setattr(BufferManager, "create_temp", recording_create_temp)
    params = SimulationParameters(telemetry_enabled=True, **FAST)
    plane = ExecutionPlane(params, 1, 4 * params.query_memory_bytes,
                           "priority", name="virtual", kernel=Simulator())
    kernel = plane.kernel
    mains = []
    for sequence in range(1, 301):
        request = SubmissionRequest(
            strategy=("MA", "DSE")[sequence % 2], scale=0.0005,
            seed=sequence, wait_us=0.0)
        mains.append(spawn_main(kernel, plane.execute(
            f"s-{sequence}", request, sequence,
            request.resolved_budgets(params), 0.0,
            lambda run, waited: None), f"query:{sequence}"))
    excess = []
    gc.collect()
    gc.disable()
    try:
        while kernel.peek() != float("inf"):
            kernel.run(until=kernel.now + 1e-3)
            live = sum(not entry[3].cancelled for entry in kernel._heap)
            excess.append(len(kernel._heap) - 2 * live)
        assert [main_value(main)["result_tuples"] for main in mains] \
            == [25] * 300
        del mains
        assert len(made) >= 2 * 3 * 150  # three temps per MA submission
        assert [ref for ref in made if ref() is not None] == []
    finally:
        gc.enable()
    assert len(excess) > 10 and max(excess) <= _COMPACT_FLOOR
