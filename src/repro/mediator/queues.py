"""Per-source communication queues (the window protocol).

Each wrapper has one bounded :class:`SourceQueue` at the mediator.  The
queue counts capacity in *messages*: when it is full the producing
wrapper blocks — "sub-query processing at the wrapper is suspended as it
cannot send more tuples, until tuples are consumed from that queue"
(Section 2.1).  Consumers take *batches of tuples*, which may split a
message; a partially consumed message still occupies its slot.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import SimulationError
from repro.observability.registry import MetricsRegistry
from repro.exec import Kernel, SimEvent


class Message:
    """One wrapper-to-mediator message: a count of tuples, plus EOF flag.

    Slotted: one is minted per message, and a consumer taking part of
    it lowers ``tuples`` in place.
    """

    __slots__ = ("tuples", "eof")

    def __init__(self, tuples: int, eof: bool = False):
        if tuples < 0:
            raise SimulationError(f"message with negative tuples: {tuples}")
        self.tuples = tuples
        self.eof = eof

    def __repr__(self) -> str:
        return f"Message(tuples={self.tuples}, eof={self.eof})"


class SourceQueue:
    """Bounded FIFO of messages from one wrapper."""

    def __init__(self, sim: Kernel, source: str, capacity_messages: int,
                 registry: "MetricsRegistry | None" = None):
        if capacity_messages < 1:
            raise SimulationError(
                f"queue capacity must be >= 1 message, got {capacity_messages}")
        self.sim = sim
        self.source = source
        # Minted once per message and once per stall: precomputed for the
        # reason Resource._request_name is.
        self._space_name = f"space:{source}"
        self._data_name = f"data:{source}"
        self.capacity_messages = capacity_messages
        # Held only with telemetry on: off, every message would make two
        # no-op calls on the null metric.
        self._depth_gauge = (
            registry.gauge(f"queue.{source}.depth_tuples")
            if registry is not None and registry.enabled else None)
        self._messages: deque[Message] = deque()
        self._space_waiters: deque[SimEvent] = deque()
        self._data_waiters: list[SimEvent] = []
        self.eof_received = False
        self.tuples_available = 0

    # -- producer side (wrapper / communication manager) -----------------
    @property
    def is_full(self) -> bool:
        return len(self._messages) >= self.capacity_messages

    def wait_not_full(self) -> SimEvent:
        """Event that succeeds once there is room for one more message."""
        event = self.sim.event(name=self._space_name)
        if not self.is_full:
            # succeed(), not grant(): the zero-delay trip through the
            # heap orders same-instant contenders for the mediator CPU;
            # replacing it changes both bench/expected.json digests
            # (measured for ISSUE 22).
            # A caller skips it only where it orders nothing:
            # is_full, then Kernel.elapse(0).
            event.succeed()
        else:
            self._space_waiters.append(event)
        return event

    def put(self, message: Message) -> None:
        """Deposit a message; caller must have awaited :meth:`wait_not_full`."""
        if self.is_full:
            raise SimulationError(f"queue {self.source!r} overflow")
        if self.eof_received:
            raise SimulationError(f"queue {self.source!r} got data after EOF")
        self._messages.append(message)
        self.tuples_available += message.tuples
        if message.eof:
            self.eof_received = True
        if self._depth_gauge is not None:
            self._depth_gauge.set(self.tuples_available)
        waiters, self._data_waiters = self._data_waiters, []
        for waiter in waiters:
            waiter.succeed(self.source)

    # -- consumer side (query processor) ----------------------------------
    @property
    def exhausted(self) -> bool:
        """EOF seen and every tuple consumed: this source is finished."""
        return self.eof_received and self.tuples_available == 0

    def has_data(self) -> bool:
        return self.tuples_available > 0

    def data_event(self) -> SimEvent:
        """Event that succeeds on the next message arrival.

        Succeeds immediately if data is already available, and also fires
        for the EOF message, so a consumer waiting on an exhausted source
        wakes up and notices termination.
        """
        event = self.sim.event(name=self._data_name)
        if self.tuples_available > 0 or self.eof_received:
            event.succeed(self.source)
        else:
            self._data_waiters.append(event)
        return event

    def take_batch(self, max_tuples: int) -> int:
        """Remove up to ``max_tuples`` tuples; returns the count taken.

        Never blocks.  Frees message slots (waking a blocked producer) as
        messages are fully consumed.
        """
        if max_tuples <= 0:
            raise SimulationError(f"batch size must be positive, got {max_tuples}")
        taken = 0
        while taken < max_tuples and self._messages:
            head = self._messages[0]
            want = max_tuples - taken
            if head.tuples <= want:
                taken += head.tuples
                self._messages.popleft()
                self._wake_producer()
            else:
                head.tuples -= want
                taken += want
        self.tuples_available -= taken
        if self._depth_gauge is not None:
            self._depth_gauge.set(self.tuples_available)
        return taken

    def _wake_producer(self) -> None:
        if self._space_waiters and not self.is_full:
            self._space_waiters.popleft().succeed()

    def __repr__(self) -> str:
        return (f"SourceQueue({self.source!r}, {len(self._messages)}/"
                f"{self.capacity_messages} msgs, {self.tuples_available} tuples, "
                f"eof={self.eof_received})")
