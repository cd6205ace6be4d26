"""Periodic time-series sampling of runtime occupancy signals.

A sampler process wakes on a configurable *virtual-time* interval and
records memory occupancy, per-source delivery rates and communication
queue depths — the longitudinal view that per-event metrics cannot give
(e.g. "was memory full *while* source F starved the engine?").

The sampler is a plain simulation process; whoever starts it must also
stop it (via the stop event) when the observed execution completes, or
the periodic timeouts would keep the simulation alive forever.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.common.errors import ConfigurationError
from repro.exec import Kernel, Process, SimEvent


@dataclass(frozen=True)
class SamplePoint:
    """One periodic snapshot of runtime occupancy."""

    time: float
    memory_used_bytes: int
    memory_total_bytes: int
    #: tuples buffered per source queue.
    queue_depth_tuples: dict[str, int] = field(default_factory=dict)
    #: messages buffered per source queue.
    queue_depth_messages: dict[str, int] = field(default_factory=dict)
    #: estimated delivery rate per source (tuples/s; 0.0 before any data).
    source_rates: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def take_sample(sim: Kernel, memory: Any, cm: Any) -> SamplePoint:
    """Snapshot ``memory`` and the communication manager ``cm`` now."""
    rates = {}
    for source, estimator in cm.estimators.items():
        rate = estimator.delivery_rate
        rates[source] = rate if rate is not None else 0.0
    return SamplePoint(
        time=sim.now,
        memory_used_bytes=memory.used_bytes,
        memory_total_bytes=memory.total_bytes,
        queue_depth_tuples={source: queue.tuples_available
                            for source, queue in cm.queues.items()},
        queue_depth_messages={source: len(queue._messages)
                              for source, queue in cm.queues.items()},
        source_rates=rates,
    )


class TelemetrySampler:
    """Drives periodic :func:`take_sample` calls as a simulation process.

    The same process works on every backend: on the virtual-time
    simulator the interval is virtual seconds, on the wall-clock
    :class:`~repro.exec.aio.AsyncioKernel` the timeouts are real sleeps,
    so live runs emit the same periodic series.  ``on_sample`` (if given)
    is invoked with each fresh :class:`SamplePoint` — the live
    observability plane publishes its HTTP/SSE snapshot from there.
    """

    def __init__(self, sim: Kernel, interval: float, memory: Any, cm: Any,
                 sink: list[SamplePoint],
                 on_sample: Optional[Callable[[SamplePoint], None]] = None):
        if interval <= 0:
            raise ConfigurationError(
                f"sampling interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.memory = memory
        self.cm = cm
        self.sink = sink
        self.on_sample = on_sample
        self._stop = sim.event(name="sampler-stop")
        self._process: Optional[Process] = None

    def start(self) -> Process:
        if self._process is not None:
            raise ConfigurationError("sampler started twice")
        self._process = self.sim.process(self._run(), name="telemetry-sampler")
        return self._process

    def stop(self) -> None:
        """Ask the sampler to exit (idempotent)."""
        if not self._stop.triggered:
            self._stop.succeed("stop")

    def _run(self) -> Generator[SimEvent, Any, None]:
        while True:
            tick = self.sim.timeout(self.interval)
            yield self.sim.any_of([tick, self._stop])
            if self._stop.triggered:
                return
            sample = take_sample(self.sim, self.memory, self.cm)
            self.sink.append(sample)
            if self.on_sample is not None:
                self.on_sample(sample)
