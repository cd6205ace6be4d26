"""Tests for World construction/sharing and assorted edge paths."""

import pytest

from repro import (
    QueryEngine,
    SimulationParameters,
    UniformDelay,
    make_policy,
)
from repro.common.errors import SimulationError
from repro.core.runtime import World


# --------------------------------------------------------------------------
# World construction and machine sharing
# --------------------------------------------------------------------------

def test_world_builds_all_components():
    params = SimulationParameters()
    world = World(params, seed=3)
    assert world.cpu.mips == params.cpu_mips
    assert len(world.disks) == params.num_local_disks
    assert world.cache.capacity_pages == params.io_cache_pages
    assert world.memory.total_bytes == params.query_memory_bytes


def test_world_multiple_disks():
    world = World(SimulationParameters(num_local_disks=3))
    assert len(world.disks) == 3
    assert world.buffer.disks is world.disks or \
        list(world.buffer.disks) == list(world.disks)


def test_world_sharing_reuses_machine():
    params = SimulationParameters()
    machine = World(params, seed=1)
    view = World(params, share_machine=machine)
    assert view.sim is machine.sim
    assert view.cpu is machine.cpu
    assert view.disks is machine.disks
    assert view.buffer is machine.buffer
    # Per-query state is fresh.
    assert view.cm is not machine.cm
    assert view.memory is not machine.memory


def test_world_sharing_custom_memory_budget():
    params = SimulationParameters()
    machine = World(params, seed=1)
    view = World(params, share_machine=machine, memory_bytes=12345678)
    assert view.memory.total_bytes == 12345678


def test_world_rng_streams_are_named():
    world = World(SimulationParameters(), seed=5)
    a = world.rng("x").random()
    other = World(SimulationParameters(), seed=5)
    assert other.rng("x").random() == a
    assert other.rng("y").random() != a


# --------------------------------------------------------------------------
# Link-contention modelling (off by default, on explicitly)
# --------------------------------------------------------------------------

def _run(workload, **overrides):
    params = SimulationParameters().with_overrides(**overrides)
    delays = {name: UniformDelay(params.w_min)
              for name in workload.relation_names}
    engine = QueryEngine(workload.catalog, workload.qep, make_policy("SEQ"),
                         delays, params=params, seed=1)
    return engine.run()


def test_link_contention_disabled_by_default(tiny_fig5):
    params = SimulationParameters()
    world = World(params)
    assert world.cm.link is None


def test_link_contention_serializes_messages(tiny_fig5):
    fast = _run(tiny_fig5)
    contended = _run(tiny_fig5, model_link_contention=True)
    # Same answer; the shared link can only slow things down.
    assert contended.result_tuples == fast.result_tuples
    assert contended.response_time >= fast.response_time


def test_link_counts_messages_when_enabled(tiny_fig5):
    params = SimulationParameters(model_link_contention=True)
    world = World(params)
    assert world.cm.link is world.link

    world.cm.register_source("W")

    def producer():
        yield from world.cm.deliver("W", 100, eof=True,
                                    production_seconds=0.0)

    world.sim.process(producer())
    world.sim.run()
    assert world.link.messages.value == 1
    assert world.link.bytes_carried.value == 100 * params.tuple_size


# --------------------------------------------------------------------------
# Assorted edges
# --------------------------------------------------------------------------

def test_engine_rejects_invalid_qep(small_catalog, small_qep):
    small_qep.chain("pS").operators[1].estimated_input_cardinality = -5
    params = SimulationParameters()
    delays = {n: UniformDelay(params.w_min) for n in "RST"}
    from repro.common.errors import PlanError
    with pytest.raises(PlanError):
        QueryEngine(small_catalog, small_qep, make_policy("SEQ"), delays,
                    params=params)


def test_batch_size_one_tuple(tiny_fig5):
    """Pathological batch size still terminates and agrees."""
    result = _run(tiny_fig5, batch_tuples=1)
    normal = _run(tiny_fig5)
    assert result.result_tuples == normal.result_tuples
    assert result.batches_processed > normal.batches_processed


def test_tiny_queue_capacity(tiny_fig5):
    """A 1-message window still flows (heavy backpressure)."""
    result = _run(tiny_fig5, queue_capacity_messages=1)
    assert result.result_tuples == _run(tiny_fig5).result_tuples


def test_huge_message_size(tiny_fig5):
    """Messages of 16 pages (whole relation chunks) still work."""
    result = _run(tiny_fig5, message_pages=16)
    assert result.result_tuples == _run(tiny_fig5).result_tuples


def test_zero_context_switch_cost(tiny_fig5):
    result = _run(tiny_fig5, context_switch_instructions=0.0)
    assert result.context_switches == 0
    assert result.result_tuples == _run(tiny_fig5).result_tuples


def test_slow_cpu_makes_query_cpu_bound(tiny_fig5):
    slow_cpu = _run(tiny_fig5, cpu_mips=5.0)
    fast_cpu = _run(tiny_fig5)
    assert slow_cpu.response_time > fast_cpu.response_time
    assert slow_cpu.cpu_utilization > 0.9


def test_round_robin_discipline_same_answer(tiny_fig5):
    priority = _run(tiny_fig5)
    round_robin = _run(tiny_fig5, dqp_discipline="round-robin")
    assert round_robin.result_tuples == priority.result_tuples


def test_unknown_discipline_rejected():
    from repro.common.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        SimulationParameters(dqp_discipline="lottery")
