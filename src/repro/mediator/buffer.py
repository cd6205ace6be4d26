"""Buffer and memory management.

* The query's memory budget (hash tables live here; M-schedulability
  checks ask it what fits) is a :class:`~repro.resources.broker.MemoryLease`,
  the per-query layer of the hierarchical broker in
  :mod:`repro.resources.broker`: standalone construction
  (``MemoryLease(bytes)``) is a static budget, while a lease drawn from a
  governed :class:`~repro.resources.broker.MemoryBroker` can pull and be
  offered extra bytes at runtime.
* :class:`BufferManager` owns temp relations on the local disk.  Writers
  use **write-behind**: tuples accumulate into I/O chunks (Table 1's
  8-page I/O cache) flushed by asynchronous background writes.  Readers
  use **prefetch** (double buffering), the paper's "asynchronous I/O"
  assumption for complement fragments: the next chunk is fetched while
  the CPU processes the current one.

Every I/O charges the Table 1 per-I/O CPU cost on the mediator CPU, so
materialization overhead genuinely competes with query processing.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.common.errors import SimulationError
from repro.config import SimulationParameters
from repro.resources.broker import MemoryLease
from repro.sim.cache import LRUPageCache
from repro.exec import Kernel, Process, SimEvent
from repro.sim.resources import CPU, Disk
from repro.sim.stats import Counter


class HashTable:
    """A hash table filling one join's build side (memory accounting only).

    The estimated size is reserved up front when the build chain is
    scheduled; inserts beyond the estimate grow the reservation page by
    page.  :meth:`insert` returns False when growth fails — the memory
    overflow the DQO must handle.
    """

    def __init__(self, join_name: str, memory: MemoryLease,
                 tuple_size: int, page_size: int, estimated_tuples: float):
        self.join_name = join_name
        self.memory = memory
        self.tuple_size = tuple_size
        self.page_size = page_size
        self.owner = f"hash:{join_name}"
        self.tuples = 0
        self.reserved_bytes = int(estimated_tuples) * tuple_size
        self.complete = False
        memory.reserve(self.owner, self.reserved_bytes)

    @property
    def bytes_used(self) -> int:
        return self.tuples * self.tuple_size

    def insert(self, tuples: int) -> bool:
        """Account ``tuples`` insertions; False on memory overflow."""
        if self.complete:
            raise SimulationError(f"insert into completed table {self.join_name!r}")
        self.tuples += tuples
        while self.bytes_used > self.reserved_bytes:
            if not self.memory.try_grow(self.owner, self.page_size):
                self.tuples -= tuples
                return False
            self.reserved_bytes += self.page_size
        return True

    def seal(self) -> None:
        """Mark the build finished (probing may begin)."""
        self.complete = True

    def drop(self) -> None:
        """Release the table's memory (after its probe chain finished)."""
        self.memory.release(self.owner)

    def __repr__(self) -> str:
        return (f"HashTable({self.join_name!r}, {self.tuples} tuples, "
                f"complete={self.complete})")


class TempRelation:
    """A temp relation on one local disk — or in memory.

    "Such a materialization can occur in memory or on disk depending on
    the available resources" (Section 2.2): an in-memory temp skips all
    disk I/O; its pages are charged against the query's memory budget
    instead and released when the temp is destroyed.
    """

    def __init__(self, name: str, extent: int, tuple_size: int,
                 disk_index: int = 0, in_memory: bool = False):
        self.name = name
        self.extent = extent
        self.tuple_size = tuple_size
        self.disk_index = disk_index
        self.in_memory = in_memory
        self.tuples = 0
        self.pages = 0
        self.sealed = False
        self.destroyed = False
        #: the budget an in-memory temp's pages are charged against.
        self.memory_manager: Optional[MemoryLease] = None

    @property
    def memory_owner(self) -> str:
        return f"temp:{self.name}:{self.extent}"

    def __repr__(self) -> str:
        location = "memory" if self.in_memory else f"disk{self.disk_index}"
        return (f"TempRelation({self.name!r}, {self.tuples} tuples, "
                f"{self.pages} pages, {location}, sealed={self.sealed})")


class BufferManager:
    """Creates temp relations and hands out writers/readers.

    With several local disks (Table 1's "Number of Local Disks"), temps
    are assigned round-robin so concurrent materializations spread their
    I/O — the classic reason a mediator with one CPU still benefits from
    multiple spindles.
    """

    def __init__(self, sim: Kernel, cpu: CPU, disks: "Disk | list[Disk]",
                 cache: LRUPageCache, params: SimulationParameters):
        self.sim = sim
        self.cpu = cpu
        self.disks = [disks] if isinstance(disks, Disk) else list(disks)
        if not self.disks:
            raise SimulationError("buffer manager needs at least one disk")
        self.cache = cache
        self.params = params
        #: tuples in one full I/O chunk, read on every temp write and read.
        self.chunk_tuples = params.io_chunk_pages * params.tuples_per_page
        self._next_extent = 0
        self.tuples_spilled = Counter()
        self.tuples_reloaded = Counter()

    def create_temp(self, name: str, *,
                    memory: Optional[MemoryLease] = None,
                    estimated_tuples: float = 0.0,
                    prefer_memory: bool = False) -> "TempWriter":
        """Create a temp relation and return its writer.

        With ``prefer_memory`` (and a ``memory`` budget that fits the
        estimate), the temp lives in query memory: writes and reads cost
        no disk time, pages are reserved incrementally, and a mid-write
        budget shortage transparently falls back to disk.
        """
        self._next_extent += 1
        disk_index = (self._next_extent - 1) % len(self.disks)
        estimated_bytes = int(estimated_tuples * self.params.tuple_size)
        in_memory = (prefer_memory and memory is not None
                     and memory.would_fit(estimated_bytes))
        temp = TempRelation(name, self._next_extent, self.params.tuple_size,
                            disk_index=disk_index, in_memory=in_memory)
        return TempWriter(self, temp, memory=memory if in_memory else None)

    def destroy_temp(self, temp: TempRelation) -> None:
        """Release a consumed temp's resources (memory pages / cache)."""
        if temp.destroyed:
            return
        temp.destroyed = True
        if temp.in_memory and temp.memory_manager is not None:
            temp.memory_manager.release(temp.memory_owner)
        self.cache.invalidate_extent(temp.extent)

    def reader(self, temp: TempRelation) -> "TempReader":
        """A reader for ``temp``.

        May be constructed before the temp is sealed (a complement
        fragment is created at degradation time, while its MF is still
        running); actually *reading* an unsealed temp is an error.
        """
        return TempReader(self, temp)

    # -- shared I/O helper ---------------------------------------------------
    def chunk_io(self, temp: TempRelation, start_page: int,
                 num_pages: int) -> Generator[SimEvent, Any, None]:
        """One chunk transfer: per-I/O CPU cost, then the disk, then cache."""
        yield from self.cpu.work(self.params.io_cpu_instructions)
        if not all(self.cache.lookup(temp.extent, page)
                   for page in range(start_page, start_page + num_pages)):
            disk = self.disks[temp.disk_index]
            yield from disk.transfer(temp.extent, start_page, num_pages)
        for page in range(start_page, start_page + num_pages):
            self.cache.insert(temp.extent, page)


class TempWriter:
    """Write-behind writer for one temp relation (disk or memory)."""

    def __init__(self, manager: BufferManager, temp: TempRelation,
                 memory: Optional[MemoryLease] = None):
        self.manager = manager
        self.temp = temp
        self._pending_tuples = 0
        self._flushed_pages = 0
        self._outstanding: list[Process] = []
        self._finished = False
        if memory is not None:
            temp.memory_manager = memory
            memory.reserve(temp.memory_owner, 0)

    @property
    def params(self) -> SimulationParameters:
        return self.manager.params

    def write(self, tuples: int) -> None:
        """Accept ``tuples``; full chunks flush in the background.

        Synchronous and instantaneous for the caller: the disk work
        happens in spawned write-behind processes.  In-memory temps only
        grow their page reservation — falling back to disk if the budget
        runs out.
        """
        if self._finished:
            raise SimulationError(f"write to finished temp {self.temp.name!r}")
        if tuples < 0:
            raise SimulationError(f"negative tuple count: {tuples}")
        self.temp.tuples += tuples
        self.manager.tuples_spilled.add(tuples)
        if self.temp.in_memory:
            if self._grow_memory_pages():
                return
            self._fall_back_to_disk()
            return
        self._pending_tuples += tuples
        chunk_tuples = self.manager.chunk_tuples
        while self._pending_tuples >= chunk_tuples:
            self._pending_tuples -= chunk_tuples
            self._flush(self.params.io_chunk_pages)

    def _grow_memory_pages(self) -> bool:
        """Extend the in-memory temp's reservation; False if it no
        longer fits."""
        temp = self.temp
        pages_needed = -(-temp.tuples // self.params.tuples_per_page)
        delta = pages_needed - temp.pages
        if delta <= 0:
            return True
        assert temp.memory_manager is not None
        if not temp.memory_manager.try_grow(temp.memory_owner,
                                            delta * self.params.page_size):
            return False
        temp.pages = pages_needed
        return True

    def _fall_back_to_disk(self) -> None:
        """Convert a memory temp to disk mid-write (budget exhausted).

        Everything buffered so far becomes pending write-behind work —
        the deferred I/O is paid now, exactly as if the temp had been on
        disk from the start.
        """
        temp = self.temp
        assert temp.memory_manager is not None
        temp.memory_manager.release(temp.memory_owner)
        temp.memory_manager = None
        temp.in_memory = False
        temp.pages = 0
        self._pending_tuples = temp.tuples
        chunk_tuples = self.manager.chunk_tuples
        while self._pending_tuples >= chunk_tuples:
            self._pending_tuples -= chunk_tuples
            self._flush(self.params.io_chunk_pages)

    def _flush(self, num_pages: int) -> None:
        start = self._flushed_pages
        self._flushed_pages += num_pages
        self.temp.pages = self._flushed_pages
        proc = self.manager.sim.process(
            self.manager.chunk_io(self.temp, start, num_pages),
            name=f"write:{self.temp.name}:{start}")
        self._outstanding.append(proc)

    def finish(self) -> Generator[SimEvent, Any, TempRelation]:
        """Flush the tail and wait for all write-behind I/O. ``yield from`` me."""
        if self._finished:
            raise SimulationError(f"temp {self.temp.name!r} finished twice")
        self._finished = True
        if not self.temp.in_memory and self._pending_tuples > 0:
            pages = -(-self._pending_tuples // self.params.tuples_per_page)
            self._pending_tuples = 0
            self._flush(pages)
        if self._outstanding:
            yield self.manager.sim.all_of(self._outstanding)
        self.temp.sealed = True
        return self.temp


class TempReader:
    """Prefetching, *non-blocking* reader for a sealed temp relation.

    The reader keeps an asynchronous fetch in flight (the paper's
    "asynchronous I/O" assumption for complement fragments): consumers
    take only tuples that are already loaded — they never block the DQP
    on the disk — and subscribe to :meth:`wait_event` when the prefetcher
    has not caught up yet.
    """

    def __init__(self, manager: BufferManager, temp: TempRelation):
        self.manager = manager
        self.temp = temp
        self.tuples_read = 0
        self._loaded_tuples = 0
        self._next_chunk_page = 0
        self._inflight: Optional[Process] = None

    @property
    def params(self) -> SimulationParameters:
        return self.manager.params

    @property
    def exhausted(self) -> bool:
        """All tuples consumed.  An unsealed temp is never exhausted —
        its writer may still add tuples."""
        return self.temp.sealed and self.tuples_read >= self.temp.tuples

    @property
    def available_tuples(self) -> int:
        """Tuples loaded in memory and not yet consumed."""
        if self.temp.in_memory:
            return self.temp.tuples - self.tuples_read
        return self._loaded_tuples - self.tuples_read

    def has_data(self) -> bool:
        """True when :meth:`read_now` would return tuples."""
        return self.temp.sealed and self.available_tuples > 0

    def read_now(self, max_tuples: int) -> int:
        """Consume up to ``max_tuples`` *already loaded* tuples (never waits).

        Returns 0 when the prefetcher is behind; arms the next prefetch
        either way.
        """
        if max_tuples <= 0:
            raise SimulationError(f"batch size must be positive, got {max_tuples}")
        if not self.temp.sealed:
            raise SimulationError(
                f"reading temp {self.temp.name!r} before it is sealed")
        if self.temp.destroyed:
            raise SimulationError(
                f"reading destroyed temp {self.temp.name!r}")
        taken = min(max_tuples, self.available_tuples)
        if taken > 0:
            self.tuples_read += taken
            self.manager.tuples_reloaded.add(taken)
        if not self.temp.in_memory:
            self._ensure_prefetch()
        return taken

    def wait_event(self) -> SimEvent:
        """Event that fires once more tuples are loaded (or immediately)."""
        if self.has_data() or self.exhausted:
            event = self.manager.sim.event(name=f"loaded:{self.temp.name}")
            event.succeed()
            return event
        self._ensure_prefetch()
        if self._inflight is None:
            raise SimulationError(
                f"temp {self.temp.name!r}: nothing loaded, nothing in flight")
        return self._inflight

    def _ensure_prefetch(self) -> None:
        """Keep a chunk in flight while pages remain and the buffer is low."""
        if self._inflight is not None or not self.temp.sealed:
            return
        if self._next_chunk_page >= self.temp.pages:
            return
        if self.available_tuples >= self.manager.chunk_tuples:
            return  # a full chunk is buffered; fetch lazily
        self._start_fetch()

    def _start_fetch(self) -> None:
        start = self._next_chunk_page
        num_pages = min(self.params.io_chunk_pages, self.temp.pages - start)
        if num_pages <= 0:
            raise SimulationError(
                f"fetch past the end of temp {self.temp.name!r}")
        self._next_chunk_page = start + num_pages

        def fetch() -> Generator[SimEvent, Any, None]:
            yield from self.manager.chunk_io(self.temp, start, num_pages)
            loaded = min((start + num_pages) * self.params.tuples_per_page,
                         self.temp.tuples)
            self._loaded_tuples = max(self._loaded_tuples, loaded)
            self._inflight = None
            self._ensure_prefetch()

        self._inflight = self.manager.sim.process(
            fetch(), name=f"read:{self.temp.name}:{start}")
