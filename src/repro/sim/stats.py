"""Light-weight statistics collectors used across the runtime."""

from __future__ import annotations

from typing import Optional

from repro.exec import Kernel


class Counter:
    """A monotonically growing tally."""

    def __init__(self, initial: float = 0):
        self.value = initial

    def add(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"Counter.add() takes non-negative amounts, got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class WelfordStat:
    """Streaming mean / variance via Welford's algorithm."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 with fewer than 2 samples."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def __repr__(self) -> str:
        return f"WelfordStat(n={self.count}, mean={self.mean:.6g})"


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    Call :meth:`record` with the *new* value whenever the signal changes;
    the previous value is weighted by the time it was held.
    """

    def __init__(self, sim: Kernel):
        self.sim = sim
        self._last_time = sim.now
        self._last_value: Optional[float] = None
        self._weighted_sum = 0.0
        self._total_time = 0.0

    def record(self, value: float) -> None:
        now = self.sim.now
        if self._last_value is not None:
            span = now - self._last_time
            self._weighted_sum += self._last_value * span
            self._total_time += span
        self._last_time = now
        self._last_value = value

    def mean(self) -> float:
        """Time-weighted mean up to the last recorded change."""
        weighted_sum = self._weighted_sum
        total_time = self._total_time
        if self._last_value is not None:
            span = self.sim.now - self._last_time
            weighted_sum += self._last_value * span
            total_time += span
        return weighted_sum / total_time if total_time > 0 else 0.0

    def __repr__(self) -> str:
        return f"TimeWeightedStat(mean={self.mean():.6g}, current={self._last_value})"
