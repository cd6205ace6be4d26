"""The deterministic virtual-time execution backend.

:class:`Simulator` is the discrete-event implementation of the
:class:`repro.exec.Kernel` protocol: a virtual clock and a priority heap
of events.  The event machinery itself (:class:`SimEvent`,
:class:`Timeout`, :class:`AnyOf`, :class:`AllOf`, :class:`Process`,
:class:`Interrupt`) is backend-neutral and lives in
:mod:`repro.exec.core`.

Determinism: events scheduled at the same virtual time are processed in
(priority, insertion-order) order, so a simulation with seeded RNGs is
exactly reproducible.

Example
-------
>>> sim = Simulator()
>>> def worker(sim):
...     yield sim.timeout(1.5)
...     return "done"
>>> proc = sim.process(worker(sim))
>>> sim.run()
>>> (sim.now, proc.value)
(1.5, 'done')
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.common.errors import SimulationError
from repro.exec.core import _PROCESSED, KernelBase, SimEvent


class Simulator(KernelBase):
    """The virtual-time event loop: a clock and a priority heap of events."""

    def __init__(self) -> None:
        super().__init__()
        self.now: float = 0.0

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: SimEvent, delay: float, priority: int) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, priority, self._sequence, event))

    # -- running ---------------------------------------------------------
    def _drop_cancelled(self) -> None:
        """Lazily discard cancelled events sitting at the heap top."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        self._drop_cancelled()
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        time, _priority, _seq, event = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("event heap time went backwards")
        self.now = time
        self._processed_events += 1
        event._run_callbacks()
        self._compact()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        With ``until`` set, the clock is left exactly at ``until`` if the
        queue outlives it.  ``max_events`` guards against runaway loops in
        tests.
        """
        if until is None and max_events is None:
            # Hot path (every full engine run): one tight loop, locals
            # pinned, no per-event method dispatch — the body of
            # ``SimEvent._run_callbacks`` (the one definition, used by
            # ``step``, ``grant`` and the wall-clock kernel) runs inline.
            heap = self._heap
            pop = heapq.heappop
            now = self.now
            processed_total = self._processed_events
            try:
                while heap:
                    when, _priority, _seq, event = pop(heap)
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    if when < now:
                        raise SimulationError("event heap time went backwards")
                    self.now = now = when
                    processed_total += 1
                    event._state = _PROCESSED
                    callbacks, event._callbacks = event._callbacks, []
                    for callback in callbacks:
                        callback(event)
            finally:
                self._processed_events = processed_total
            self._raise_unhandled_failures()
            return
        processed = 0
        while self._heap:
            self._drop_cancelled()
            if not self._heap:
                break
            if until is not None and self.peek() > until:
                self.now = until
                self._raise_unhandled_failures()
                return
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.step()
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        self._raise_unhandled_failures()

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:g}, pending={len(self._heap)})"
