"""The wall-clock execution backend on top of :mod:`asyncio`.

:class:`AsyncioKernel` drives the *same* generator processes as the
virtual-time :class:`repro.sim.engine.Simulator` — same events, same
``yield`` protocol, same (priority, insertion-order) tie-break for
events that fall due together — but time is real: timeouts sleep on the
asyncio event loop and external :mod:`asyncio` tasks (live sources) may
trigger kernel events at any moment.

Semantics compared to the simulator:

* ``now`` is the *dispatch clock*: seconds since ``run`` first started,
  read off the modelled schedule rather than off the host's wake-ups.
  Three rules move it:

  1. *deadline on timer expiry* — when a timed pause ends, ``now``
     becomes the deadline of the event that was due, not the wall
     reading.  A wake that is 0.7 ms late therefore shortens the next
     pause by 0.7 ms: lateness is bounded by one timer overshoot
     instead of summed along a chain of pauses.  While a batch of
     already-due events drains, ``now`` stays frozen at the latest due
     deadline, so zero-delay event chains share one logical timestamp
     and their relative order is exactly the simulator's.
  2. *wall on foreign arrival and on idle wake* — an event scheduled
     from outside the kernel while it sleeps (the feeder of a real
     source's :class:`~repro.exec.live.LiveWrapper`, a pool worker's
     job frame, which a loop callback reads off its socket,
     ``QueryService.submit``) is stamped at the wall time of its
     arrival — the clock moves to the wall first, and an event due
     before it is due then — and a kernel that idled on an empty heap
     resumes at the wall.  Modelled work armed by that arrival then
     takes its full modelled time from the arrival on.
  3. *exactly* ``until`` *at the bound* — ``run(until=t)`` whose heap
     outlives ``t`` returns at wall ``t`` with ``now == t``, as
     :meth:`repro.sim.engine.Simulator.run` documents.

  ``now`` is thus never ahead of the wall and at most one overshoot
  behind it while the kernel keeps up; it is the clock for everything
  *modelled* (``ExecutionResult.response_time``, span times, stall
  accounting).  Consumers that stamp something *external* — a
  submission's ``submitted_at`` / ``started_at`` / ``finished_at``,
  and so the service's ``latency_s`` — must read :attr:`wall_now`.
* ``run`` is a coroutine.  With neither ``until`` nor ``until_event``
  it returns when the event heap drains (the simulator's semantic);
  with ``until_event`` it keeps waiting for externally triggered events
  until that event has been processed — the mode engines use, since a
  live source can wake an otherwise-idle kernel at any time.
* Determinism is *per timing*: given identical arrival timings the
  interleaving is identical.  Real sources do not give identical
  timings — that is the point of this backend.
"""

from __future__ import annotations

import asyncio
import math
from typing import Optional

from repro.common.errors import SimulationError
from repro.exec.core import KernelBase, SimEvent

#: drain at most this many due events before yielding to the asyncio
#: loop, so live feeder tasks are never starved by long callback chains.
_DRAIN_QUANTUM = 64


class AsyncioKernel(KernelBase):
    """Real-time kernel: a deadline heap serviced between real sleeps."""

    def __init__(self) -> None:
        super().__init__()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._origin: Optional[float] = None
        #: the future ``run`` is parked on while it sleeps, else None.
        self._parked: Optional[asyncio.Future[None]] = None

    @property
    def wall_now(self) -> float:
        """Real elapsed seconds since ``run`` first started.

        ``now`` is the *dispatch* clock: it only advances when events
        fire, and then to their deadline, so between events (an idle
        kernel waiting on live sources) it reports the time of the last
        dispatch.  Callers timestamping external arrivals — the service
        stamping a submission that came in over HTTP — need the real
        clock, or an idle gap before the arrival is billed to its
        latency.
        """
        if self._loop is not None and self._origin is not None:
            return max(self.now, self._wall())
        return self.now

    def _halt(self, _event: SimEvent) -> None:
        """``run``'s callback on its ``until_event``."""
        self._stop_requested = True

    # -- scheduling ----------------------------------------------------------
    def _schedule_at(self, event: SimEvent, when: float,
                     priority: int) -> None:
        if self._parked is not None:
            # Only foreign code runs while the kernel sleeps: the event
            # arrives now, not at the (stale) time of the last dispatch.
            self.now = max(self.now, self._wall())
            when = max(when, self.now)
            self._wake()
        KernelBase._schedule_at(self, event, when, priority)

    # -- running ---------------------------------------------------------
    def _wall(self) -> float:
        assert self._loop is not None and self._origin is not None
        return self._loop.time() - self._origin

    def _wake(self) -> None:
        """End the current :meth:`_sleep`, if there is one."""
        if self._parked is not None and not self._parked.done():
            self._parked.set_result(None)

    async def _sleep(self, deadline: Optional[float]) -> None:
        """Park until kernel time ``deadline`` (``None``: indefinitely)
        or until something is scheduled or a stop is requested.

        One future and at most one timer per pause, no :class:`asyncio.Task`.
        """
        assert self._loop is not None and self._origin is not None
        parked = self._parked = self._loop.create_future()
        timer = None if deadline is None else self._loop.call_at(
            self._origin + deadline, self._wake)
        try:
            await parked
        finally:
            self._parked = None
            if timer is not None:
                timer.cancel()

    async def run(self, until: Optional[float] = None,
                  until_event: Optional[SimEvent] = None) -> None:
        """Drive events in real time; a coroutine, unlike the simulator.

        ``until`` bounds the run in kernel seconds; if the heap outlives
        it the clock is left exactly at ``until``.  ``until_event``
        keeps the kernel alive through empty-heap moments (waiting for
        live sources) until that event has been processed, and ``run``
        returns right after the dispatch that processed it.
        """
        if self._loop is not None:
            raise SimulationError("AsyncioKernel.run() is not reentrant")
        self._loop = asyncio.get_running_loop()
        # Align the wall clock with any pre-run scheduling done at now=0.
        self._origin = self._loop.time() - self.now
        end = math.inf if until is None else until
        if until_event is not None:
            # Processed mid-drain, it ends the drain right there.
            until_event.add_callback(self._halt)
        # The last wall reading: `now` is never ahead of the wall, and
        # anything due by either is due without a fresh read.
        wall = self.now
        drained = 0
        try:
            while not self._stop_requested and self.now < end:
                # `now` freezes at each due deadline while draining, so
                # same-deadline chains keep simulator-identical order.
                drained += self._drain(min(max(self.now, wall), end),
                                       _DRAIN_QUANTUM - drained)
                if drained >= _DRAIN_QUANTUM:
                    drained = 0
                    await asyncio.sleep(0)
                    continue
                if self._stop_requested:
                    break
                # Nothing is due by the last reading: look at the head.
                deadline = self.peek()
                if deadline == math.inf:
                    if until_event is None:
                        break
                    await self._sleep(None)
                    # Nothing modelled was pending: follow the wall.
                    self.now = wall = max(self.now, self._wall())
                    continue
                bound = min(deadline, end)
                if bound > self.now and bound > wall:
                    wall = self._wall()
                    if bound > wall:
                        # `now` is not resynced afterwards: it advances
                        # to the deadline when the due event is drained,
                        # so a late wake shortens the next pause.
                        await self._sleep(bound)
                        drained = 0
                        continue
                if deadline > bound:
                    self.now = bound  # the heap outlives `until`
                    break
        finally:
            if until_event is not None:
                until_event.remove_callback(self._halt)
            self._loop = None
            self._origin = None
            self._stop_requested = False
        self._raise_unhandled_failures()
