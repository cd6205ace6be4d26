"""The communication manager (CM).

Runs on the mediator: receives wrapper messages (charging the Table 1
per-message CPU cost on the shared mediator CPU), deposits them in the
per-source queues, keeps delivery-rate estimates, and signals a
*RateChange* to its listener when some source's estimated rate has moved
by more than the configured threshold since the last planning phase
(Section 3.1: "the CM is responsible for computing an estimate of the
delivery rate and signaling any significant changes").
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.common.errors import SimulationError
from repro.config import SimulationParameters
from repro.mediator.queues import Message, SourceQueue
from repro.mediator.rates import DeliveryRateEstimator
from repro.observability import NULL_TELEMETRY, Telemetry
from repro.exec import Kernel, SimEvent
from repro.sim.resources import CPU, NetworkLink

RateChangeListener = Callable[[str, float, float], None]


class CommunicationManager:
    """Owns the source queues and delivery-rate estimators."""

    def __init__(self, sim: Kernel, cpu: CPU, params: SimulationParameters,
                 link: Optional[NetworkLink] = None,
                 telemetry: Optional[Telemetry] = None):
        self.sim = sim
        self.cpu = cpu
        self.params = params
        self.link = link
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.queues: dict[str, SourceQueue] = {}
        self.estimators: dict[str, DeliveryRateEstimator] = {}
        self._rate_listener: Optional[RateChangeListener] = None
        self._rate_baseline: dict[str, float] = {}
        # :meth:`_delivery_marks` when the baseline and the wait snapshot
        # were last taken: unchanged marks mean unchanged estimates.
        self._baseline_marks = (0, -1)
        self._snapshot_marks = (0, -1)
        self._snapshot: dict[str, float] = {}
        self._snapshot_default: Optional[float] = None
        #: significant delivery-rate changes signalled to the listener.
        self.rate_change_signals = 0

    # -- registration ------------------------------------------------------
    def register_source(self, source: str) -> SourceQueue:
        """Create the queue and estimator for one wrapper."""
        if source in self.queues:
            raise SimulationError(f"source {source!r} registered twice")
        queue = SourceQueue(self.sim, source, self.params.queue_capacity_messages,
                            registry=self.telemetry.registry)
        self.queues[source] = queue
        self.estimators[source] = DeliveryRateEstimator(self.sim, source)
        return queue

    def queue(self, source: str) -> SourceQueue:
        try:
            return self.queues[source]
        except KeyError:
            raise SimulationError(f"unknown source {source!r}") from None

    def estimator(self, source: str) -> DeliveryRateEstimator:
        try:
            return self.estimators[source]
        except KeyError:
            raise SimulationError(f"unknown source {source!r}") from None

    # -- receive path (called from wrapper processes) ----------------------
    def deliver(self, source: str, tuples: int, eof: bool,
                production_seconds: float = 0.0) -> Generator[SimEvent, Any, None]:
        """Deliver one message; ``yield from`` me inside a wrapper process.

        Implements the window protocol: waits for queue space first (the
        wrapper stays suspended), optionally occupies the shared inbound
        link, then charges the per-message receive CPU cost and enqueues.

        ``production_seconds`` is the source-side production time of the
        message (from source timestamps); it feeds the delivery-rate
        estimator.
        """
        queue = self.queue(source)
        # Room now: the zero-delay hop wait_not_full would make is taken
        # in place when it is the kernel's next event anyway.
        if queue.is_full or not self.sim.elapse(0.0):
            yield queue.wait_not_full()
        if self.link is not None:
            yield from self.link.transmit(tuples * self.params.tuple_size)
        yield from self.cpu.work(self.params.message_instructions)
        queue.put(Message(tuples, eof=eof))
        self.estimators[source].on_arrival(
            tuples, production_seconds=production_seconds)
        self._check_rate_change(source)

    def close(self, source: str) -> Generator[SimEvent, Any, None]:
        """End ``source``'s stream; ``yield from`` me like :meth:`deliver`.

        For a source that only learns it is exhausted after its last
        data message has left (it cannot set ``eof`` on that message).
        The end marker honours the window protocol but is not a modelled
        message: no link time, no receive CPU, no rate sample, and it
        does not count as a received message.
        """
        queue = self.queue(source)
        yield queue.wait_not_full()
        queue.put(Message(0, eof=True))

    # -- rate-change signalling --------------------------------------------
    def set_rate_listener(self, listener: Optional[RateChangeListener]) -> None:
        """Install the callback fired on significant rate changes."""
        self._rate_listener = listener

    def arm_rate_baseline(self) -> None:
        """Snapshot current wait estimates as the new comparison baseline.

        Called at each planning phase; subsequent deliveries compare
        against this snapshot.  Sources without an estimate yet are left
        out (their first estimate can never be a "change").  With no
        tuple delivered since the last arm the baseline already holds
        every current estimate (a re-arm in :meth:`_check_rate_change`
        sets it to one), so there is nothing to redo.
        """
        marks = self._delivery_marks()
        if marks == self._baseline_marks:
            return
        self._baseline_marks = marks
        self._rate_baseline = {
            source: est.wait_estimate
            for source, est in self.estimators.items()
            if est.wait_estimate is not None
        }

    def _delivery_marks(self) -> tuple[int, int]:
        """Sources, and tuples all of them delivered: a wait estimate
        only moves when tuples arrive, and neither count ever falls."""
        delivered = 0
        for estimator in self.estimators.values():
            delivered += estimator.tuples_delivered
        return len(self.estimators), delivered

    def _check_rate_change(self, source: str) -> None:
        if self._rate_listener is None:
            return
        baseline = self._rate_baseline.get(source)
        if baseline is None or baseline <= 0:
            return
        current = self.estimators[source].wait_estimate
        if current is None:
            return
        change = abs(current - baseline) / baseline
        if change > self.params.rate_change_threshold:
            # Re-arm for this source so one change fires one signal.
            self._rate_baseline[source] = current
            self.rate_change_signals += 1
            self._rate_listener(source, baseline, current)

    # -- inspection ----------------------------------------------------------
    def wait_snapshot(self, default: float) -> dict[str, float]:
        """Current ``w_p`` estimate per source (``default`` where unknown).

        The same dict comes back until some source delivers tuples (or
        ``default`` changes): a caller may keep it, and must not mutate it.
        """
        marks = self._delivery_marks()
        if marks != self._snapshot_marks or default != self._snapshot_default:
            self._snapshot = {source: est.wait_or(default)
                              for source, est in self.estimators.items()}
            self._snapshot_marks = marks
            self._snapshot_default = default
        return self._snapshot

    def all_exhausted(self) -> bool:
        """True when every registered source has delivered everything."""
        return all(queue.exhausted for queue in self.queues.values())

    def __repr__(self) -> str:
        return f"CommunicationManager({len(self.queues)} sources)"
