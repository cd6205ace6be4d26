"""Tests for in-memory temp relations (Section 2.2's 'in memory or on
disk depending on the available resources')."""

import pytest

from repro import QueryEngine, SimulationParameters, UniformDelay, make_policy
from repro.common.errors import SimulationError
from repro.core.runtime import World
from repro.experiments import slowdown_waits


def make_world(**overrides):
    params = SimulationParameters().with_overrides(**overrides)
    return World(params, seed=0)


def make_memory_temp(world, name="t", estimated=1000):
    return world.buffer.create_temp(name, memory=world.memory,
                                    estimated_tuples=estimated,
                                    prefer_memory=True)


# --------------------------------------------------------------------------
# Writer / reader mechanics
# --------------------------------------------------------------------------

def test_memory_temp_charges_no_disk():
    world = make_world()
    writer = make_memory_temp(world)
    assert writer.temp.in_memory

    def producer():
        writer.write(5000)
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    assert world.disks[0].ios.value == 0
    assert world.sim.now == 0.0  # nothing ever waited


def test_memory_temp_reserves_pages():
    world = make_world()
    writer = make_memory_temp(world)
    writer.write(5000)
    params = world.params
    expected_pages = -(-5000 // params.tuples_per_page)
    assert world.memory._allocations.get(writer.temp.memory_owner, 0) == \
        expected_pages * params.page_size


def test_memory_temp_reader_is_instant():
    world = make_world()
    writer = make_memory_temp(world)

    def producer():
        writer.write(3000)
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    reader = world.buffer.reader(writer.temp)
    assert reader.has_data()
    assert reader.read_now(10_000) == 3000
    assert reader.exhausted
    assert world.disks[0].ios.value == 0


def test_destroy_releases_memory():
    world = make_world()
    writer = make_memory_temp(world)

    def producer():
        writer.write(3000)
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    assert world.memory.used_bytes > 0
    world.buffer.destroy_temp(writer.temp)
    assert world.memory.used_bytes == 0
    assert world.buffer.destroy_temp(writer.temp) is None  # idempotent


def test_reading_destroyed_temp_rejected():
    world = make_world()
    writer = make_memory_temp(world)

    def producer():
        writer.write(100)
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    reader = world.buffer.reader(writer.temp)
    world.buffer.destroy_temp(writer.temp)
    with pytest.raises(SimulationError):
        reader.read_now(10)


def test_prefers_disk_when_estimate_does_not_fit():
    world = make_world(query_memory_bytes=100 * 1024)
    writer = world.buffer.create_temp("big", memory=world.memory,
                                      estimated_tuples=1_000_000,
                                      prefer_memory=True)
    assert not writer.temp.in_memory


def test_fallback_to_disk_when_budget_runs_out():
    world = make_world(query_memory_bytes=128 * 1024)  # 16 pages
    writer = world.buffer.create_temp("t", memory=world.memory,
                                      estimated_tuples=100,
                                      prefer_memory=True)
    assert writer.temp.in_memory
    per_page = world.params.tuples_per_page

    def producer():
        writer.write(40 * per_page)  # 40 pages: cannot fit in 16
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    assert not writer.temp.in_memory
    assert world.memory.used_bytes == 0            # reservation released
    assert world.disks[0].pages_transferred.value >= 40  # deferred I/O paid
    assert writer.temp.tuples == 40 * per_page

    # The converted temp reads back from disk like any other.
    reader = world.buffer.reader(writer.temp)
    read = []

    def consumer():
        while not reader.exhausted:
            got = reader.read_now(100_000)
            if got:
                read.append(got)
            else:
                yield reader.wait_event()

    world.sim.process(consumer())
    world.sim.run()
    assert sum(read) == 40 * per_page


# --------------------------------------------------------------------------
# Engine-level behaviour
# --------------------------------------------------------------------------

def _run(workload, strategy, memory_temps, waits, seed=1):
    params = SimulationParameters().with_overrides(
        allow_memory_temps=memory_temps)
    delays = {n: UniformDelay(w) for n, w in waits.items()}
    return QueryEngine(workload.catalog, workload.qep, make_policy(strategy),
                       delays, params=params, seed=seed).run()


def test_dse_memory_temps_avoid_disk(mini_fig5):
    params = SimulationParameters()
    waits = slowdown_waits(mini_fig5, "F", 1.0, params)
    on = _run(mini_fig5, "DSE", True, waits)
    off = _run(mini_fig5, "DSE", False, waits)
    assert on.result_tuples == off.result_tuples
    assert on.disk_busy_time < off.disk_busy_time
    assert on.response_time <= off.response_time * 1.02


def test_ma_stays_on_disk(mini_fig5):
    """MA materializes on disk regardless of the configuration ([1])."""
    params = SimulationParameters()
    waits = {n: params.w_min for n in mini_fig5.relation_names}
    result = _run(mini_fig5, "MA", True, waits)
    assert result.disk_busy_time > 0
    total = sum(r.cardinality for r in mini_fig5.catalog)
    assert result.tuples_spilled == total
