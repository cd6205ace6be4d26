"""Simulated wrapper processes.

A wrapper ships its whole relation to the mediator in fixed-size messages.
Before each message it waits the sum of the per-tuple waiting times drawn
from its delay model — exactly the methodology of Section 5.1.3 ("we delay
the production of each tuple by a delay uniformly distributed in
[0, 2w]").  Delivery goes through the communication manager, so a full
queue suspends the wrapper (window protocol) and every message charges
the mediator's per-message receive CPU cost.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Generator, Iterator, Optional

from repro.catalog.schema import Relation
from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.mediator.comm import CommunicationManager
from repro.exec import PRIORITY_URGENT, Kernel, Process, SimEvent, Timeout
from repro.wrappers.delays import DelayModel

if TYPE_CHECKING:
    import numpy as np


class Wrapper:
    """One simulated remote source."""

    def __init__(self, sim: Kernel, relation: Relation,
                 delay_model: DelayModel, cm: CommunicationManager,
                 rng: Optional[np.random.Generator],
                 params: SimulationParameters):
        if rng is None and delay_model.draws:
            raise ConfigurationError(
                f"wrapper {relation.name!r}: {delay_model!r} needs a generator")
        self._bind(sim, relation.name, cm)
        self.relation = relation
        self.delay_model = delay_model
        self.rng = rng
        self.params = params

    def _bind(self, sim: Kernel, name: str, cm: CommunicationManager) -> None:
        """The state of a source whatever produces its messages — the
        delay model here, an asyncio task in
        :class:`repro.exec.live.LiveWrapper`."""
        self.sim = sim
        self.name = name
        self.cm = cm
        self.tuples_sent = 0
        self.production_time = 0.0      # time spent producing messages
        self.blocked_time = 0.0         # time suspended by the window protocol
        self.finished_at: Optional[float] = None
        #: what the source raised mid-stream, if it did; the stream
        #: is closed regardless and ``QueryRun.check_complete`` reports it.
        self.error: Optional[Exception] = None
        #: when :meth:`stop` was first called.
        self._stopped_at = math.inf
        self._process: Optional[Process] = None

    def start(self) -> Process:
        """Register with the CM and start shipping tuples."""
        if self._process is not None:
            raise SimulationError(f"wrapper {self.name!r} started twice")
        self.cm.register_source(self.name)
        self._process = self._spawn()
        return self._process

    def _spawn(self) -> Process:
        """Start shipping; returns the process that ends with the stream."""
        return self.sim.process(self._run(), name=f"wrapper:{self.name}")

    def stop(self) -> None:
        """Stop producing: no message whose production would start now or
        later is produced (used on engine failure paths).  A mark, not an
        exception thrown into the process: a sender queued for the
        machine's one CPU would keep its place in the resource's waiters,
        and the slot later handed to it is lost to every other query on
        the machine."""
        self._stopped_at = min(self._stopped_at, self.sim.now)

    def _next_production(self, productions: Iterator[float]
                         ) -> Optional[float]:
        """Production seconds of the next message; None (and :attr:`error`
        set) if the delay model raised."""
        try:
            return next(productions)
        except Exception as exc:
            # Without its traceback: that leads back to this frame (the
            # model was called from it) and so to ``self`` — a cycle only
            # the collector could free.
            self.error = exc.with_traceback(None)
            return None

    def _run(self) -> Generator[SimEvent, Any, None]:
        """Ship the relation through the window protocol, one message at
        a time, on a production clock computed rather than run.

        The source is pipelined — it keeps producing while earlier
        messages are on the wire, at most two of them waiting to be sent
        — so message ``j`` is ready at ``r_j = s_j + d_j``, ``d_j`` its
        production seconds.  Its production starts at ``s_j =
        max(r_{j-1}, g_{j-3})`` (``s_0`` the start instant): handing
        message ``j-1`` over waited for a free slot, i.e. for the send of
        message ``j-3`` to begin at ``g_{j-3}``; that of ``j`` waits
        ``max(0, g_{j-2} - r_j)``, the source's blocked time.  Only the
        hops that order a contender for the mediator CPU are kernel
        events (``docs/architecture.md`` §4).  A source stopped at or
        before ``s_j``, or whose model raises for message ``j``, ends its
        stream there.
        """
        sim = self.sim
        remaining = self.relation.cardinality
        per_message = self.params.tuples_per_message
        productions = self.delay_model.message_seconds(
            remaining, per_message, self.rng)
        first = True
        ready = sim.now                   # r_{j-1}; s_0 is the start instant
        # when the sends of messages j-3, j-2 and j-1 began
        began3 = began2 = began1 = -math.inf
        while True:
            start = ready if ready >= began3 else began3
            if not remaining:
                message = (0, True, 0.0)  # an empty relation: one message
            else:
                message = None
                if start < self._stopped_at:
                    production = self._next_production(productions)
                    if production is not None:
                        count = min(per_message, remaining)
                        message = (count, count == remaining, production)
                        ready = start + production
                        self.production_time += production
                        if began2 > ready:
                            self.blocked_time += began2 - ready
            if message is None:
                ready = start             # the end of a stream cut short
            now = sim.now
            if ready > now:
                # Still in production: wait for it (in place only where
                # `now + (ready - now)` rounds back to the deadline),
                # then take the hop its hand-over to the waiting sender
                # made.
                if now + (ready - now) != ready \
                        or not sim.elapse(ready - now):
                    yield sim.timeout_at(ready)
                if not sim.elapse(0.0):
                    yield sim.timeout(0.0)
            else:
                if first:
                    # Ready at the start instant: the hop that started
                    # the sender, which jumps NORMAL events due now.
                    yield Timeout(sim, 0.0, priority=PRIORITY_URGENT)
                # Waiting already: the get's hop (``Store.get``'s).
                yield sim.timeout(0.0)
            began3, began2, began1 = began2, began1, sim.now
            first = False
            if message is None:
                # An end marker, not a modelled message (see cm.close).
                yield from self.cm.close(self.name)
                break
            count, eof, production = message
            yield from self.cm.deliver(self.name, count, eof=eof,
                                       production_seconds=production)
            self.tuples_sent += count
            if eof:
                break
            remaining -= count
        self.finished_at = sim.now

    def __repr__(self) -> str:
        return (f"Wrapper({self.name!r}, sent={self.tuples_sent}/"
                f"{self.relation.cardinality}, model={self.delay_model!r})")
