"""Per-tuple delay models.

A delay model produces, for ``n`` tuples, the waiting time *preceding*
each tuple (Section 4.3's ``w_p`` is the average of these).  Models are
stateless descriptions; randomness comes from the generator passed in,
which only a model whose :attr:`DelayModel.draws` is true ever reads.

The taxonomy of Section 1.2:

* **initial delay** — :class:`InitialDelay`: a long wait before the first
  tuple, then normal delivery;
* **bursty arrival** — :class:`BurstyDelay`: groups of tuples back to
  back, separated by long silences;
* **slow delivery** — a regular but slow rate: :class:`UniformDelay` (or
  :class:`ConstantDelay`) with a large ``w``.

The experiments' default (Section 5.1.3) is :class:`UniformDelay`:
per-tuple delays uniform on ``[0, 2w]``, hence an average of ``w``;
:class:`JitteredDelay`, a service submission's delay profile, makes that
draw once per message.

A wrapper reads a relation's production times through
:meth:`DelayModel.message_seconds`, one sum of tuple waits a message.

numpy is imported by the methods that build arrays, not by the module: a
process that describes delays but never draws (the service's
coordinator) does not load it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

#: full messages an i.i.d. model draws in one ``waiting_times`` call
#: (64 × 204 tuples: ~104 KB of float64 transient).
WINDOW_MESSAGES = 64


class DelayModel(ABC):
    """Produces per-tuple waiting times."""

    @abstractmethod
    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Waiting time preceding each of ``n`` tuples (seconds)."""

    @abstractmethod
    def mean_wait(self) -> float:
        """Analytic long-run average waiting time per tuple (seconds)."""

    @property
    def draws(self) -> bool:
        """Whether :meth:`waiting_times` can ever read ``rng``."""
        return True

    def message_seconds(self, cardinality: int, per_message: int,
                        rng: np.random.Generator) -> Iterator[float]:
        """Production seconds of each message of a ``cardinality``-tuple
        relation shipped ``per_message`` tuples at a time: the sum of its
        tuples' waits.

        Drawn lazily, one :meth:`waiting_times` call a message, so a
        stateful model keeps its per-call behaviour and a model that
        raises does so at the message it fails on.
        """
        for first in range(0, cardinality, per_message):
            yield float(self.waiting_times(
                min(per_message, cardinality - first), rng).sum())

    @staticmethod
    def _check_n(n: int) -> None:
        if n < 0:
            raise ConfigurationError(f"tuple count must be >= 0, got {n}")


class _IidDelay(DelayModel):
    """A model whose every tuple waits an independent draw of one
    distribution, so ``waiting_times(k * n)`` is ``k`` calls of ``n``:
    the same values in the same order, the generator left in the same
    state.  Its messages are therefore drawn a window at a time."""

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # The window is exact for the draws declared here (the direct
        # subclasses), not for any draw: one further down that redefines
        # ``waiting_times`` and not ``message_seconds`` is cut one call a
        # message, as every other model is.
        if (_IidDelay not in cls.__bases__ and "waiting_times" in vars(cls)
                and "message_seconds" not in vars(cls)):
            cls.message_seconds = DelayModel.message_seconds  # type: ignore[method-assign]

    def message_seconds(self, cardinality: int, per_message: int,
                        rng: np.random.Generator) -> Iterator[float]:
        # Row sums equal each message's own ``.sum()`` bit for bit; a
        # window never reaches past the last full message, and the
        # trailing partial message is drawn on its own.
        full, last = divmod(cardinality, per_message)
        while full:
            window = min(full, WINDOW_MESSAGES)
            yield from self.waiting_times(window * per_message, rng).reshape(
                window, per_message).sum(axis=1).tolist()
            full -= window
        if last:
            yield float(self.waiting_times(last, rng).sum())


class _MeanWaitDelay(DelayModel):
    """A model parameterised by its mean per-tuple wait ``w``."""

    def __init__(self, w: float):
        if not (math.isfinite(w) and w >= 0):
            raise ConfigurationError(f"w must be finite and >= 0, got {w}")
        self.w = w

    def mean_wait(self) -> float:
        return self.w

    @property
    def draws(self) -> bool:
        return self.w > 0  # around a zero mean: the constant zero

    def __repr__(self) -> str:
        return f"{type(self).__name__}(w={self.w:g})"


class ConstantDelay(_MeanWaitDelay, _IidDelay):
    """Exactly ``w`` seconds before every tuple."""

    draws = False

    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        self._check_n(n)
        return np.full(n, self.w)


class UniformDelay(_MeanWaitDelay, _IidDelay):
    """Per-tuple delays uniform on ``[0, 2w]`` (the paper's experiments)."""

    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        self._check_n(n)
        if self.w == 0:
            return np.zeros(n)
        return rng.uniform(0.0, 2.0 * self.w, size=n)


class JitteredDelay(_MeanWaitDelay):
    """One draw per message: each of its tuples waits ``w * u``, ``u``
    uniform on ``[1 - jitter, 1 + jitter]``.

    With ``jitter=1`` that is the uniform-[0, 2w] wait applied per
    message instead of per tuple: the delay profile of a service
    submission and of ``repro live``, on either kernel.
    """

    def __init__(self, w: float, jitter: float = 1.0):
        super().__init__(w)
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {jitter}")
        self.jitter = jitter

    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        self._check_n(n)
        if self.w == 0:
            return np.zeros(n)
        return np.full(n, self.w * rng.uniform(1.0 - self.jitter,
                                               1.0 + self.jitter))

    def __repr__(self) -> str:
        return f"JitteredDelay(w={self.w:g}, jitter={self.jitter:g})"


class ExponentialDelay(_MeanWaitDelay, _IidDelay):
    """Memoryless per-tuple delays (Poisson tuple arrivals) with mean ``w``.

    Heavier-tailed than the experiments' uniform model: occasional long
    gaps stress the scheduler's ability to absorb irregularity.
    """

    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        self._check_n(n)
        if self.w == 0:
            return np.zeros(n)
        return rng.exponential(self.w, size=n)


class NormalDelay(_IidDelay):
    """Gaussian per-tuple delays truncated at zero.

    ``mean_wait`` reports the truncated mean, so the analytic lower
    bound stays a true bound.
    """

    def __init__(self, mean: float, std: float):
        if mean < 0 or std < 0:
            raise ConfigurationError(
                f"mean and std must be >= 0, got {mean}, {std}")
        self.mean = mean
        self.std = std

    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        self._check_n(n)
        return np.maximum(0.0, rng.normal(self.mean, self.std, size=n))

    def mean_wait(self) -> float:
        if self.std == 0:
            return self.mean
        # E[max(0, X)] for X ~ N(mean, std).
        from math import erf, exp, pi, sqrt
        z = self.mean / self.std
        pdf = exp(-0.5 * z * z) / sqrt(2.0 * pi)
        cdf = 0.5 * (1.0 + erf(z / sqrt(2.0)))
        return self.mean * cdf + self.std * pdf

    def __repr__(self) -> str:
        return f"NormalDelay(mean={self.mean:g}, std={self.std:g})"


class InitialDelay(DelayModel):
    """A single long delay before the first tuple, then a base model."""

    def __init__(self, initial: float, base: DelayModel):
        if initial < 0:
            raise ConfigurationError(f"initial delay must be >= 0, got {initial}")
        self.initial = initial
        self.base = base
        self._first_emitted = False

    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check_n(n)
        waits = self.base.waiting_times(n, rng)
        if n > 0 and not self._first_emitted:
            waits = waits.copy()
            waits[0] += self.initial
            self._first_emitted = True
        return waits

    @property
    def draws(self) -> bool:
        return self.base.draws

    def reset(self) -> None:
        """Re-arm the initial delay (models are reused across repetitions)."""
        self._first_emitted = False

    def mean_wait(self) -> float:
        # The one-off initial delay vanishes in the long-run average.
        return self.base.mean_wait()

    def __repr__(self) -> str:
        return f"InitialDelay({self.initial:g}, base={self.base!r})"


class BurstyDelay(DelayModel):
    """Bursts of tuples separated by long periods of silence.

    ``burst_tuples`` arrive with ``within_burst_wait`` between them, then a
    ``gap`` of silence precedes the next burst.
    """

    draws = False

    def __init__(self, burst_tuples: int, gap: float,
                 within_burst_wait: float = 0.0):
        if burst_tuples < 1:
            raise ConfigurationError(
                f"burst_tuples must be >= 1, got {burst_tuples}")
        if gap < 0 or within_burst_wait < 0:
            raise ConfigurationError("gap and within_burst_wait must be >= 0")
        self.burst_tuples = burst_tuples
        self.gap = gap
        self.within_burst_wait = within_burst_wait
        self._position = 0  # index within the current burst

    def waiting_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        self._check_n(n)
        waits = np.full(n, self.within_burst_wait)
        for i in range(n):
            if self._position == 0:
                waits[i] += self.gap
            self._position = (self._position + 1) % self.burst_tuples
        return waits

    def reset(self) -> None:
        """Restart at a burst boundary."""
        self._position = 0

    def mean_wait(self) -> float:
        return self.within_burst_wait + self.gap / self.burst_tuples

    def __repr__(self) -> str:
        return (f"BurstyDelay(burst={self.burst_tuples}, gap={self.gap:g}, "
                f"within={self.within_burst_wait:g})")
