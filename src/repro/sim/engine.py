"""The deterministic virtual-time execution backend.

:class:`Simulator` is the discrete-event implementation of the
:class:`repro.exec.Kernel` protocol: a virtual clock and a priority heap
of events.  The event machinery itself (:class:`SimEvent`,
:class:`Timeout`, :class:`AnyOf`, :class:`AllOf`, :class:`Process`)
is backend-neutral and lives in :mod:`repro.exec.core`.

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

import math
from typing import Optional

from repro.common.errors import SimulationError
from repro.exec.core import KernelBase


class Simulator(KernelBase):
    """The virtual-time event loop: its clock jumps to each deadline."""

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._drain(math.inf, 1):
            raise SimulationError("step() on an empty event queue")

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` have been processed (and at most one fewer waits
        taken in place).

        With ``until`` set, the clock is left exactly at ``until`` if the
        queue outlives it.  ``max_events`` guards against runaway loops in
        tests.
        """
        bound = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        if self._drain(bound, limit) >= limit and self.peek() <= bound:
            raise SimulationError(f"exceeded max_events={max_events}")
        if until is not None and self.now < until:
            self.now = until
        self._raise_unhandled_failures()
