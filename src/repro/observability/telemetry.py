"""The per-machine telemetry facade.

One :class:`Telemetry` object per simulated machine (``world.telemetry``)
bundles the four observability channels:

* :attr:`registry` — the :class:`~repro.observability.registry.MetricsRegistry`
  of named counters / gauges / histograms (gated by ``enabled``);
* :attr:`stalls` — the :class:`~repro.observability.stalls.StallAttribution`
  idle-time breakdown (always on: one dict update per stall);
* :attr:`audit` — the :class:`~repro.observability.audit.DecisionAuditLog`
  of scheduler decisions (always on: decisions are rare and bounded);
* :attr:`samples` — the periodic :class:`~repro.observability.sampling.SamplePoint`
  time series (only when ``enabled`` and ``sample_interval > 0``).

Components constructed without an explicit telemetry object get a shared
disabled instance, so direct construction in tests keeps working.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.observability.audit import DecisionAuditLog
from repro.observability.registry import MetricsRegistry
from repro.observability.stalls import StallAttribution
from repro.exec import Kernel

if TYPE_CHECKING:
    from repro.observability.flight import FlightRecorder
    from repro.observability.sampling import SamplePoint, TelemetrySampler
    from repro.observability.spans import SpanRecorder


class Telemetry:
    """Bundles registry, stall attribution, audit log and samples."""

    def __init__(self, sim: Optional[Kernel] = None, enabled: bool = False,
                 sample_interval: float = 0.0):
        self.sim = sim
        self.enabled = enabled
        self.sample_interval = sample_interval
        self.registry = MetricsRegistry(sim=sim, enabled=enabled)
        self.stalls = StallAttribution()
        self.audit = DecisionAuditLog()
        self.samples: list[SamplePoint] = []
        #: optional flight recorder; ``None`` (the default) keeps every
        #: instrumented hot path at a single attribute check.
        self.flight: Optional[FlightRecorder] = None
        #: optional causal span recorder; ``None`` keeps the compiled
        #: hook tables free of span callables entirely.
        self.spans: Optional[SpanRecorder] = None
        self._sampler: Optional[TelemetrySampler] = None

    @property
    def sampling(self) -> bool:
        """True when periodic sampling should run."""
        return self.enabled and self.sample_interval > 0 and self.sim is not None

    def start_sampler(
            self, memory: Any, cm: Any,
            on_sample: Optional[Callable[[SamplePoint], None]] = None,
    ) -> Optional[TelemetrySampler]:
        """Start the periodic sampler if sampling is configured.

        The caller owns termination: arrange for :meth:`stop_sampler` to
        run when the observed execution ends, or the sampler's periodic
        timeouts keep the simulation alive forever.  ``on_sample`` is
        passed through to the sampler (the live engine publishes its
        HTTP snapshot from there).
        """
        if not self.sampling or self._sampler is not None:
            return None
        from repro.observability.sampling import TelemetrySampler

        self._sampler = TelemetrySampler(self.sim, self.sample_interval,
                                         memory, cm, self.samples,
                                         on_sample=on_sample)
        self._sampler.start()
        return self._sampler

    def stop_sampler(self) -> None:
        if self._sampler is not None:
            self._sampler.stop()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, {len(self.registry)} metrics, "
                f"{len(self.audit)} decisions, {len(self.samples)} samples)")


#: shared disabled telemetry for components constructed without one.
NULL_TELEMETRY = Telemetry()
