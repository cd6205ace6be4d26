"""The metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` per simulated machine (``world.telemetry``).
Runtime components push the gauges and histograms they track into it
while a query runs; its counters are set once, from the fields that
count them, when the run's result is collected
(``repro.core.engine.QueryRun.result``).
The registry is virtual-time-aware — gauges keep a time-weighted mean
via :class:`repro.sim.stats.TimeWeightedStat`, histograms a streaming
mean/variance via :class:`repro.sim.stats.WelfordStat` — and a
*disabled* registry is a near-no-op: every factory returns the shared
:data:`NULL_METRIC`, whose methods do nothing, so instrumented hot paths
cost one no-op call when telemetry is off.

A registry belongs to the thread that drives its machine's kernel: the
components that update it and every exporter run there, so a metric is
a plain field update and :meth:`MetricsRegistry.as_dict` always sees
whole metrics.  (The live ``/metrics`` endpoint serves published
snapshots, not a registry.)

Serialization: :meth:`MetricsRegistry.as_dict` is a plain-data snapshot
(the exporters' input).  A registry stays in the process that ran its
machine: sweep results cross a process boundary without it.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, Optional, Sequence, Type, Union

from repro.common.errors import ConfigurationError
from repro.exec import Kernel
from repro.sim.stats import TimeWeightedStat, WelfordStat

#: default histogram buckets for virtual-time durations (seconds).
DURATION_BUCKETS_S = (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)
#: default histogram buckets for batch sizes (tuples).
BATCH_BUCKETS = (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)


class NullMetric:
    """Shared sink returned by a disabled registry; every method no-ops."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: the singleton handed out by disabled registries.
NULL_METRIC = NullMetric()


class CounterMetric:
    """A named, monotonically growing tally."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative {amount}")
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"CounterMetric({self.name!r}, {self.value})"


class GaugeMetric:
    """A named value that can go up and down.

    With a simulator attached the gauge also tracks the time-weighted
    mean of the (piecewise-constant) signal.
    """

    kind = "gauge"
    __slots__ = ("name", "value", "minimum", "maximum", "_weighted")

    def __init__(self, name: str, sim: Optional[Kernel] = None):
        self.name = name
        self.value: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._weighted = TimeWeightedStat(sim) if sim is not None else None

    def set(self, value: float) -> None:
        self.value = value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self._weighted is not None:
            self._weighted.record(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def time_weighted_mean(self) -> Optional[float]:
        """Time-weighted mean of the signal (None without a simulator)."""
        return self._weighted.mean() if self._weighted is not None else None

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value,
                "min": self.minimum, "max": self.maximum,
                "time_weighted_mean": self.time_weighted_mean()}

    def __repr__(self) -> str:
        return f"GaugeMetric({self.name!r}, {self.value})"


class HistogramMetric:
    """A fixed-bucket histogram (Prometheus-style cumulative export).

    ``buckets`` are the finite upper bounds; one implicit ``+Inf``
    overflow bucket is always present.  Alongside the bucket counts the
    histogram keeps a streaming mean/min/max so exports do not need the
    raw observations.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "counts", "sum", "_stream")

    def __init__(self, name: str, buckets: Sequence[float]):
        if not buckets:
            raise ConfigurationError(f"histogram {name!r} needs >= 1 bucket")
        ordered = tuple(sorted(float(b) for b in buckets))
        if len(set(ordered)) != len(ordered):
            raise ConfigurationError(f"histogram {name!r} has duplicate buckets")
        self.name = name
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)  # last one is +Inf
        self.sum = 0.0
        self._stream = WelfordStat()

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self._stream.record(value)

    @property
    def count(self) -> int:
        return self._stream.count

    @property
    def mean(self) -> float:
        return self._stream.mean

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "buckets": list(self.buckets),
                "counts": list(self.counts), "sum": self.sum,
                "count": self.count, "mean": self.mean,
                "min": self._stream.minimum, "max": self._stream.maximum}

    def __repr__(self) -> str:
        return f"HistogramMetric({self.name!r}, n={self.count})"


Metric = Union[CounterMetric, GaugeMetric, HistogramMetric]


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Components call :meth:`counter` / :meth:`gauge` / :meth:`histogram`
    once (usually at construction) and keep the returned handle; repeated
    calls with the same name return the same metric, and a kind mismatch
    is a configuration error.  A disabled registry hands out
    :data:`NULL_METRIC` and records nothing.
    """

    def __init__(self, sim: Optional[Kernel] = None, enabled: bool = True):
        self.sim = sim
        self.enabled = enabled
        self._metrics: Dict[str, Metric] = {}

    # -- factories ---------------------------------------------------------
    # An existing name of the right kind: one dict read.
    def counter(self, name: str) -> Union[CounterMetric, NullMetric]:
        if not self.enabled:
            return NULL_METRIC
        metric = self._metrics.get(name)
        if type(metric) is CounterMetric:
            return metric
        return self._get_or_create(
            name, CounterMetric, lambda: CounterMetric(name))

    def gauge(self, name: str) -> Union[GaugeMetric, NullMetric]:
        if not self.enabled:
            return NULL_METRIC
        metric = self._metrics.get(name)
        if type(metric) is GaugeMetric:
            return metric
        return self._get_or_create(
            name, GaugeMetric,
            lambda: GaugeMetric(name, sim=self.sim))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DURATION_BUCKETS_S
                  ) -> Union[HistogramMetric, NullMetric]:
        if not self.enabled:
            return NULL_METRIC
        metric = self._metrics.get(name)
        if type(metric) is HistogramMetric:
            return metric
        return self._get_or_create(
            name, HistogramMetric,
            lambda: HistogramMetric(name, buckets))

    def _get_or_create(self, name: str, expected_type: Type[Any],
                       factory: Callable[[], Any]) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, expected_type):
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    # -- inspection --------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        """The registered metric, or None."""
        return self._metrics.get(name)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot of every metric, keyed by name (sorted)."""
        return {name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)}

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({len(self._metrics)} metrics, {state})"


#: shared disabled registry for components constructed without telemetry.
NULL_REGISTRY = MetricsRegistry(enabled=False)
