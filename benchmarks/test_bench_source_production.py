"""Host cost of a modelled source's production times, per message.

Before each message a wrapper is charged the sum of its tuples' waits
(Section 5.1.3: each tuple delayed uniformly on ``[0, 2w]``).
``UniformDelay.message_seconds`` draws a window of full messages in one
numpy call and row-sums it; the reference below is the draw it replaced,
one ``waiting_times(count).sum()`` a message.  Both produce the same
values bit for bit (``tests/test_windowed_production.py``); this gate
times them on a relation the size of Figure 5's largest at full scale,
alternating round by round on one host:

* host µs per message is printed for both sides, each taking its best
  round (the one least disturbed by the rest of the host);
* the assertion is a ratio, never an absolute time: the windowed draw
  costs at most 0.4 of the per-message one.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_measured

from repro.config import SimulationParameters
from repro.wrappers import UniformDelay

ROUNDS = 7
MAX_RATIO = 0.4
#: ten thousand messages and a partial one.
MESSAGES = 10_000


def per_message_reference(model, cardinality, per_message, rng):
    """The draw before windowing: one numpy call a message."""
    for first in range(0, cardinality, per_message):
        yield float(model.waiting_times(
            min(per_message, cardinality - first), rng).sum())


def _us_per_message(draw, model, cardinality, per_message) -> float:
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    count = sum(1 for _ in draw(model, cardinality, per_message, rng))
    return (time.perf_counter() - started) / count * 1e6


def _measure() -> dict[str, float]:
    per_message = SimulationParameters().tuples_per_message
    cardinality = MESSAGES * per_message + per_message // 2
    model = UniformDelay(SimulationParameters().w_min)
    sides = {"windowed": type(model).message_seconds,
             "per message": per_message_reference}
    best = {side: float("inf") for side in sides}
    for round_ in range(ROUNDS):
        order = list(sides) if round_ % 2 else list(sides)[::-1]
        for side in order:
            best[side] = min(best[side], _us_per_message(
                sides[side], model, cardinality, per_message))
    return best


def test_windowed_production_cost(benchmark):
    best = run_measured(benchmark, _measure)
    ratio = best["windowed"] / best["per message"]
    print()
    print(f"production seconds a message ({MESSAGES:,} messages of "
          f"{SimulationParameters().tuples_per_message} tuples): windowed "
          f"{best['windowed']:.2f} us, per message "
          f"{best['per message']:.2f} us ({ratio:.2f}x)")
    assert ratio <= MAX_RATIO, (
        f"the windowed draw costs {ratio:.2f}x the per-message one "
        f"(at most {MAX_RATIO})")
