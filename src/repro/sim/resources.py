"""Hardware resource models: generic resources, CPU, disk, network link.

All models are driven by Table 1 of the paper (CPU speed in MIPS, disk
latency / seek time / transfer rate, network bandwidth, per-I/O and
per-message CPU costs).  Each model exposes generator helpers meant to be
``yield from``-ed inside simulation processes.  A timed slice on a
held unit waits in place (:meth:`repro.exec.Kernel.elapse`) when its
timeout would be the kernel's next event, and through the heap otherwise.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.common.errors import SimulationError
from repro.exec import Kernel, SimEvent
from repro.sim.stats import Counter


class Resource:
    """A FIFO resource with fixed capacity (SimPy-style).

    ``request()`` returns an event that succeeds when a slot is granted;
    ``release()`` frees one slot and wakes the next waiter.  A holder
    that can use a free slot straight away asks ``try_acquire()`` first
    and yields ``request()`` only when it has to queue.
    """

    def __init__(self, sim: Kernel, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        # Request events are minted on the hot path (one per CPU slice);
        # the debug name is precomputed once instead of per event.
        self._request_name = f"request:{self.name}"
        self._in_use = 0
        self._waiters: deque[SimEvent] = deque()

    def try_acquire(self) -> bool:
        """Take a free slot here and now; False if the caller must queue.

        The uncontended half of :meth:`request` without the event: a
        granted request never went through the kernel's heap, so taking
        the slot directly is order-identical.  Waiters exist only while
        every slot is held (``release`` hands a slot straight over), so
        this cannot jump the queue.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def request(self) -> SimEvent:
        """An event that succeeds once a slot is granted to the caller."""
        event = self.sim.event(name=self._request_name)
        if self.try_acquire():
            event.grant()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot; hands it directly to the oldest waiter, if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            # Slot transfers to the waiter; in_use count is unchanged.
            waiter.succeed()
        else:
            self._in_use -= 1

    def __repr__(self) -> str:
        return (f"Resource({self.name!r}, {self._in_use}/{self.capacity} used, "
                f"{len(self._waiters)} waiting)")


class Store:
    """A bounded FIFO buffer of items with blocking put/get events."""

    def __init__(self, sim: Kernel, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        # Same hot-path consideration as Resource._request_name.
        self._put_name = f"put:{self.name}"
        self._get_name = f"get:{self.name}"
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[SimEvent, Any]] = deque()
        self._getters: deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Deposit ``item`` here and now; False if the caller must queue.

        The mirror of :meth:`Resource.try_acquire`: :meth:`put` grants in
        place whenever it need not queue, so depositing without the event
        is order-identical.
        """
        if self._getters:
            # Hand the item straight to the oldest waiting consumer.
            self._getters.popleft().succeed(item)
        elif not self.is_full:
            self.items.append(item)
        else:
            return False
        return True

    def put(self, item: Any) -> SimEvent:
        """Event that succeeds when ``item`` has been deposited.  A
        producer that can deposit straight away asks :meth:`try_put`
        first."""
        event = self.sim.event(name=self._put_name)
        if self.try_put(item):
            event.grant()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> SimEvent:
        """Event that succeeds with the oldest item once one is available."""
        event = self.sim.event(name=self._get_name)
        if self.items:
            item = self.items.popleft()
            self._admit_blocked_putter()
            # succeed(), not grant(): the zero-delay trip through the
            # heap orders same-instant contenders for the mediator CPU;
            # replacing it changes both bench/expected.json digests
            # (measured for ISSUE 22).
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        self._admit_blocked_putter()
        return True, item

    def _admit_blocked_putter(self) -> None:
        if self._putters and not self.is_full:
            put_event, item = self._putters.popleft()
            self.items.append(item)
            put_event.succeed()

    def __repr__(self) -> str:
        cap = "∞" if self.capacity is None else self.capacity
        return f"Store({self.name!r}, {len(self.items)}/{cap})"


class CPU:
    """A single processor rated in MIPS.

    ``work(instructions)`` is a generator that acquires the CPU, burns the
    corresponding virtual time, releases it, and returns the seconds it
    charged.  Total busy time is tracked for utilization reporting.
    """

    def __init__(self, sim: Kernel, mips: float, name: str = "cpu"):
        if mips <= 0:
            raise SimulationError(f"mips must be positive, got {mips}")
        self.sim = sim
        self.mips = mips
        self.name = name
        self._resource = Resource(sim, capacity=1, name=name)
        self.busy_time = 0.0
        # The divisor of every slice, the product
        # ``SimulationParameters.instructions_seconds`` divides by.
        self._instructions_per_second = mips * 1e6

    def seconds_for(self, instructions: float) -> float:
        """Virtual seconds needed to execute ``instructions``."""
        if instructions < 0:
            raise SimulationError(f"negative instruction count: {instructions}")
        return instructions / self._instructions_per_second

    def work(self, instructions: float) -> Generator[SimEvent, Any, float]:
        """Acquire the CPU, execute ``instructions``, release; returns the
        seconds charged to :attr:`busy_time`. ``yield from`` me."""
        duration = self.seconds_for(instructions)
        if not self._resource.try_acquire():
            yield self._resource.request()
        try:
            if not self.sim.elapse(duration):
                yield self.sim.timeout(duration)
            self.busy_time += duration
        finally:
            self._resource.release()
        return duration

    def __repr__(self) -> str:
        return f"CPU({self.mips:g} MIPS, busy={self.busy_time:.3f}s)"


class Disk:
    """A single disk with seek/latency/transfer-rate timing and a moving head.

    Transfers address ``(extent, page)`` locations.  An access that starts
    exactly where the previous one ended (same extent, next page) is
    *sequential* and pays transfer time only; any other access pays seek +
    rotational latency first.  This captures the paper's distinction
    between cheap sequential temp-relation streaming and the seeks incurred
    when several materializations interleave on one disk.
    """

    def __init__(self, sim: Kernel, *, latency: float, seek_time: float,
                 transfer_rate: float, page_size: int, name: str = "disk"):
        if min(latency, seek_time) < 0 or transfer_rate <= 0 or page_size <= 0:
            raise SimulationError("invalid disk parameters")
        self.sim = sim
        self.latency = latency
        self.seek_time = seek_time
        self.transfer_rate = transfer_rate
        self.page_size = page_size
        self.name = name
        self._resource = Resource(sim, capacity=1, name=name)
        self._head: Optional[tuple[int, int]] = None  # (extent, next page)
        self.busy_time = 0.0
        self.ios = Counter()
        self.pages_transferred = Counter()
        self.seeks = Counter()

    @property
    def page_transfer_time(self) -> float:
        """Seconds to move one page across the disk interface."""
        return self.page_size / self.transfer_rate

    def transfer(self, extent: int, start_page: int,
                 num_pages: int) -> Generator[SimEvent, Any, None]:
        """Read or write ``num_pages`` contiguous pages. ``yield from`` me.

        Reads and writes are symmetric at this level; CPU costs for issuing
        the I/O are charged by the caller (buffer manager), matching the
        paper's 3000-instructions-per-I/O accounting.
        """
        if num_pages <= 0:
            raise SimulationError(f"num_pages must be positive, got {num_pages}")
        if not self._resource.try_acquire():
            yield self._resource.request()
        try:
            sequential = self._head == (extent, start_page)
            duration = num_pages * self.page_transfer_time
            if not sequential:
                duration += self.latency + self.seek_time
                self.seeks.add(1)
            if not self.sim.elapse(duration):
                yield self.sim.timeout(duration)
            self.busy_time += duration
            self.ios.add(1)
            self.pages_transferred.add(num_pages)
            self._head = (extent, start_page + num_pages)
        finally:
            self._resource.release()

    def __repr__(self) -> str:
        return (f"Disk(ios={self.ios.value}, pages={self.pages_transferred.value}, "
                f"seeks={self.seeks.value}, busy={self.busy_time:.3f}s)")


class NetworkLink:
    """The mediator's inbound network interface.

    A shared serial link of fixed bandwidth: concurrent messages queue.
    Per-message CPU costs (Table 1: 200 K instructions per send/receive)
    are charged by the communication manager, not here.
    """

    def __init__(self, sim: Kernel, *, bandwidth: float, name: str = "net"):
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        self.sim = sim
        self.bandwidth = bandwidth  # bytes per second
        self.name = name
        self._resource = Resource(sim, capacity=1, name=name)
        self.busy_time = 0.0
        self.messages = Counter()
        self.bytes_carried = Counter()

    def transmission_time(self, num_bytes: int) -> float:
        """Seconds the link is occupied by a message of ``num_bytes``."""
        if num_bytes < 0:
            raise SimulationError(f"negative message size: {num_bytes}")
        return num_bytes / self.bandwidth

    def transmit(self, num_bytes: int) -> Generator[SimEvent, Any, None]:
        """Occupy the link while a message crosses it. ``yield from`` me."""
        duration = self.transmission_time(num_bytes)
        if not self._resource.try_acquire():
            yield self._resource.request()
        try:
            if not self.sim.elapse(duration):
                yield self.sim.timeout(duration)
            self.busy_time += duration
            self.messages.add(1)
            self.bytes_carried.add(num_bytes)
        finally:
            self._resource.release()

    def __repr__(self) -> str:
        return (f"NetworkLink(messages={self.messages.value}, "
                f"bytes={self.bytes_carried.value})")
