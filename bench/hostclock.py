"""Host-speed calibration: timings at a reference host speed.

The sandbox this benchmark runs in is a small VM whose effective CPU
speed switches between regimes about 30 % apart for tens of seconds at a
time (neighbours on the same cores); nothing inside the VM shows it
except that the same bytecode takes longer.  Raw host times of one
commit then spread by 10-13 % between runs, wider than any bound worth
gating on, and two sets of runs can land in different regimes.

So every CPU-bound timing of the in-process workloads is taken next to
*calibration samples*: a fixed amount of interpreter work, timed on the
same thread right before and after (or all through) the timed section.
``speed()`` is one sample as a factor of the reference speed (1.0 = the
host this benchmark was defined on, in its fast state), and a timing is
reported as ``seconds * speed``: the seconds the section would have
taken at the reference speed.  Measured on ``sim_sweep`` passes over
four minutes spanning both regimes, this takes the run-to-run
coefficient of variation from 10.7 % to 3.4 %, and the spread of
``service_saturated``'s capacity over ten runs from 9.1 % to 2.8 %.  A
slower program still reads slower — only the host's share of the
variation is divided out.  What a spin loop cannot see (neighbours
thrashing the shared cache slow the simulator, not the spin) stays in
the numbers.  ``serve_http_pool`` is sleep-bound and another process
tree: only its CPU seconds and start-up time are scaled (by samples the
generator thread takes), never its latencies.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Sequence, Tuple

#: inner-loop blocks of one full sample and the seconds they take at the
#: reference speed.
BLOCKS = 300
_REFERENCE_BLOCK_S = 0.010 / BLOCKS


def speed(blocks: int = BLOCKS) -> float:
    """Host speed now, as a factor of the reference (~10 ms of spin at
    the default size, pro rata for fewer blocks)."""
    started = time.perf_counter()
    for _ in range(blocks):
        for _ in range(2000):
            pass
    return blocks * _REFERENCE_BLOCK_S / (time.perf_counter() - started)


def mean_speed(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 1.0


#: share of a timed section's length spent sampling after it.
SAMPLING_SHARE = 0.05


def samples_for(seconds: float) -> List[float]:
    """Calibration samples worth ``SAMPLING_SHARE`` of a section that
    took ``seconds`` (one at least): long sections get an average over
    many samples, since one 10 ms sample is itself noisy."""
    count = max(1, round(seconds * SAMPLING_SHARE / (BLOCKS * _REFERENCE_BLOCK_S)))
    return [speed() for _ in range(count)]


class SectionTimer:
    """Times consecutive sections on this thread, each between the
    calibration samples taken after the previous one and after itself."""

    def __init__(self) -> None:
        self._before = samples_for(1.0)
        #: every sample taken, for the run's mean ``host_speed``.
        self.samples: List[float] = list(self._before)

    def run(self, section: Callable[[], Any]
            ) -> Tuple[Any, float, float, float]:
        """``section()`` -> (its result, wall s, CPU s, host-speed factor
        to multiply both by)."""
        cpu = time.process_time()
        started = time.perf_counter()
        result = section()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        after = samples_for(wall)
        factor = mean_speed(self._before + after)
        self._before = after
        self.samples += after
        return result, wall, cpu, factor
