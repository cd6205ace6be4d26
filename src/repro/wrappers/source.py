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

from functools import partial
from typing import Any, Callable, Generator, Iterator, Optional

import numpy as np

from repro.catalog.schema import Relation
from repro.common.errors import ConfigurationError, SimulationError
from repro.config import SimulationParameters
from repro.mediator.comm import CommunicationManager
from repro.exec import PRIORITY_URGENT, Kernel, Process, SimEvent, Timeout
from repro.sim.resources import Store
from repro.wrappers.delays import DelayModel


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
        self._stopped = False
        self._process: Optional[Process] = None

    def start(self) -> Process:
        """Register with the CM and start shipping tuples."""
        if self._process is not None:
            raise SimulationError(f"wrapper {self.name!r} started twice")
        self.cm.register_source(self.name)
        self._process = self._spawn()
        return self._process

    def _spawn(self) -> Process:
        """Start producing; returns the process that ends with the stream."""
        cardinality = self.relation.cardinality
        body = (self._run_one(cardinality)
                if cardinality <= self.params.tuples_per_message
                else self._run())
        return self.sim.process(body, name=f"wrapper:{self.name}")

    def _outbound(self) -> Store:
        """The send pipeline between the producer and :meth:`_send`."""
        return Store(self.sim, capacity=2, name=f"outbound:{self.name}")

    def stop(self) -> None:
        """Stop producing at the next message (used on engine failure
        paths).  A flag, not ``Process.interrupt``: an interrupted sender
        queued for the machine's one CPU would keep its place in the
        resource's waiters, and the slot later handed to it is lost to
        every other query on the machine."""
        self._stopped = True

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
        """Producer half: applies the delay model, fills the send pipeline.

        Production is *pipelined* with delivery (a real source keeps
        computing the next block while the previous one is on the wire):
        a small outbound buffer decouples this process from the sender
        process, so the mediator's receive cost and the window protocol
        only throttle production once the pipeline is full.
        """
        outbound = self._outbound()
        sender = self.sim.process(self._send(outbound.get),
                                  name=f"sender:{self.name}")
        remaining = self.relation.cardinality
        per_message = self.params.tuples_per_message
        productions = self.delay_model.message_seconds(
            remaining, per_message, self.rng)
        while remaining > 0 and not self._stopped:
            count = min(per_message, remaining)
            production = self._next_production(productions)
            if production is None:
                break
            if production > 0:
                yield self.sim.timeout(production)
            self.production_time += production
            message = (count, remaining == count, production)
            blocked = 0.0
            if not outbound.try_put(message):
                before_put = self.sim.now
                yield outbound.put(message)
                blocked = self.sim.now - before_put
            self.blocked_time += blocked
            remaining -= count
        if remaining > 0:
            # Died or stopped short: the sender must still end the
            # stream, or the query would wait on this source forever.
            yield outbound.put(None)
        yield sender  # join: the wrapper is done once everything is delivered

    def _run_one(self, cardinality: int) -> Generator[SimEvent, Any, None]:
        """A relation that fits in one message: both halves in one process.

        Nothing overlaps, so only the pipeline's hops that order a
        contender for the mediator CPU stay, at the heap keys it gives
        them (``docs/architecture.md`` §4): the sender's start when the
        message is already waiting (URGENT) and the get (NORMAL).
        """
        message = (0, True, 0.0) if cardinality == 0 else None
        if cardinality and not self._stopped:
            production = self._next_production(
                self.delay_model.message_seconds(
                    cardinality, self.params.tuples_per_message, self.rng))
            if production is not None:
                message = (cardinality, True, production)
                if production > 0:
                    yield self.sim.timeout(production)
                self.production_time += production
        if message is None or message[2] == 0:
            yield Timeout(self.sim, 0.0, priority=PRIORITY_URGENT)
        # The sender, fed by a zero-delay timeout in place of the get.
        yield from self._send(partial(self.sim.timeout, 0.0, message))

    def _send(self, get: Callable[[], SimEvent]
              ) -> Generator[SimEvent, Any, None]:
        """Sender half: ships each message ``get()`` hands over through
        the window protocol until the stream ends."""
        while True:
            message = yield get()
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
        self.finished_at = self.sim.now

    def __repr__(self) -> str:
        return (f"Wrapper({self.name!r}, sent={self.tuples_sent}/"
                f"{self.relation.cardinality}, model={self.delay_model!r})")
