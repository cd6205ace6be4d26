"""Tests for memory accounting, hash tables and temp relations."""

import pytest

from repro.common.errors import SimulationError
from repro.config import SimulationParameters
from repro.core.runtime import World
from repro.mediator.buffer import HashTable
from repro.resources import MemoryLease


def make_world(**overrides):
    params = SimulationParameters().with_overrides(**overrides)
    return World(params, seed=0)


# --------------------------------------------------------------------------
# MemoryLease
# --------------------------------------------------------------------------

def test_reserve_release_cycle():
    memory = MemoryLease(1000)
    memory.reserve("a", 600)
    assert memory.available_bytes == 400
    assert memory._allocations.get("a", 0) == 600
    assert memory.release("a") == 600
    assert memory.available_bytes == 1000


def test_would_fit():
    memory = MemoryLease(1000)
    memory.reserve("a", 600)
    assert memory.would_fit(400)
    assert not memory.would_fit(401)


def test_over_reservation_rejected():
    memory = MemoryLease(100)
    with pytest.raises(SimulationError):
        memory.reserve("a", 200)


def test_duplicate_owner_rejected():
    memory = MemoryLease(1000)
    memory.reserve("a", 10)
    with pytest.raises(SimulationError):
        memory.reserve("a", 10)


def test_grow_success_and_failure():
    memory = MemoryLease(100)
    memory.reserve("a", 50)
    assert memory.try_grow("a", 50)
    assert not memory.try_grow("a", 1)
    assert memory._allocations.get("a", 0) == 100


def test_release_unknown_owner():
    with pytest.raises(SimulationError):
        MemoryLease(100).release("ghost")


def test_peak_tracking():
    memory = MemoryLease(1000)
    memory.reserve("a", 700)
    memory.release("a")
    memory.reserve("b", 300)
    assert memory.peak_bytes == 700


# --------------------------------------------------------------------------
# HashTable
# --------------------------------------------------------------------------

def test_hash_table_reserves_estimate():
    memory = MemoryLease(10_000)
    table = HashTable("J1", memory, tuple_size=40, page_size=100,
                      estimated_tuples=100)
    assert memory._allocations.get("hash:J1", 0) == 4000
    assert table.insert(100)
    table.seal()
    table.drop()
    assert memory.available_bytes == 10_000


def test_hash_table_grows_beyond_estimate():
    memory = MemoryLease(10_000)
    table = HashTable("J1", memory, tuple_size=40, page_size=100,
                      estimated_tuples=10)
    assert table.insert(50)  # 2000 bytes > 400 reserved; grows in pages
    assert memory._allocations.get("hash:J1", 0) >= 2000


def test_hash_table_overflow_returns_false():
    memory = MemoryLease(1000)
    table = HashTable("J1", memory, tuple_size=40, page_size=100,
                      estimated_tuples=10)
    assert not table.insert(100)  # needs 4000 bytes, only 1000 exist
    assert table.tuples == 0      # failed insert rolled back


def test_hash_table_insert_after_seal_rejected():
    memory = MemoryLease(1000)
    table = HashTable("J1", memory, tuple_size=40, page_size=100,
                      estimated_tuples=5)
    table.seal()
    with pytest.raises(SimulationError):
        table.insert(1)


# --------------------------------------------------------------------------
# Temp relations: writer
# --------------------------------------------------------------------------

def test_temp_write_and_finish():
    world = make_world()
    writer = world.buffer.create_temp("t1")

    def producer():
        writer.write(1000)
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    temp = writer.temp
    assert temp.sealed
    assert temp.tuples == 1000
    expected_pages = -(-1000 // world.params.tuples_per_page)
    assert temp.pages == expected_pages
    assert world.disks[0].pages_transferred.value == expected_pages


def test_temp_write_behind_is_asynchronous():
    """write() must not advance the clock; the disk work is background."""
    world = make_world()
    writer = world.buffer.create_temp("t1")
    chunk = world.params.io_chunk_pages * world.params.tuples_per_page

    def producer():
        before = world.sim.now
        writer.write(3 * chunk)
        assert world.sim.now == before  # no time passed synchronously
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    assert world.disks[0].ios.value == 3


def test_temp_write_after_finish_rejected():
    world = make_world()
    writer = world.buffer.create_temp("t1")

    def producer():
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    with pytest.raises(SimulationError):
        writer.write(1)


def test_temp_double_finish_rejected():
    world = make_world()
    writer = world.buffer.create_temp("t1")

    def producer():
        yield from writer.finish()
        yield from writer.finish()

    proc = world.sim.process(producer())
    proc.defused = True
    world.sim.run()
    assert isinstance(proc.failure, SimulationError)


# --------------------------------------------------------------------------
# Temp relations: reader
# --------------------------------------------------------------------------

def _write_temp(world, tuples):
    writer = world.buffer.create_temp("t1")

    def producer():
        writer.write(tuples)
        yield from writer.finish()

    world.sim.process(producer())
    world.sim.run()
    return writer.temp


def test_reader_roundtrip():
    world = make_world()
    temp = _write_temp(world, 5000)
    reader = world.buffer.reader(temp)

    def consumer():
        total = 0
        while not reader.exhausted:
            got = reader.read_now(700)
            if got == 0:
                yield reader.wait_event()
                continue
            total += got
        return total

    proc = world.sim.process(consumer())
    world.sim.run()
    assert proc.value == 5000


def test_reader_never_blocks_synchronously():
    world = make_world()
    temp = _write_temp(world, 5000)
    reader = world.buffer.reader(temp)
    # Nothing prefetched yet: read_now returns 0 instead of waiting.
    assert reader.read_now(100) == 0


def test_reader_unsealed_temp_rejected():
    world = make_world()
    writer = world.buffer.create_temp("t1")
    writer.write(10)
    reader = world.buffer.reader(writer.temp)
    assert not reader.exhausted  # unsealed: more data may come
    with pytest.raises(SimulationError):
        reader.read_now(5)


def test_reader_charges_disk_reads():
    world = make_world()
    temp = _write_temp(world, 5000)
    write_pages = world.disks[0].pages_transferred.value
    reader = world.buffer.reader(temp)

    def consumer():
        while not reader.exhausted:
            if reader.read_now(10_000) == 0:
                yield reader.wait_event()

    world.sim.process(consumer())
    world.sim.run()
    assert world.disks[0].pages_transferred.value > write_pages


def test_reader_empty_temp():
    world = make_world()
    temp = _write_temp(world, 0)
    reader = world.buffer.reader(temp)
    assert reader.exhausted


def test_chunk_io_uses_cache():
    world = make_world()
    temp = _write_temp(world, 100)  # 1 chunk, stays in cache after write
    reads_before = world.disks[0].ios.value
    reader = world.buffer.reader(temp)

    def consumer():
        while not reader.exhausted:
            if reader.read_now(10_000) == 0:
                yield reader.wait_event()

    world.sim.process(consumer())
    world.sim.run()
    # The single page was cached by the write; no disk read needed.
    assert world.disks[0].ios.value == reads_before
