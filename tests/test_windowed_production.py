"""A wrapper's production times, drawn a window of messages at a time.

``DelayModel.message_seconds`` yields each message's production seconds.
The i.i.d. models draw a window of full messages in one numpy call and
row-sum it; the reference here is the draw the wrapper made before, one
``waiting_times(count).sum()`` a message.  Windowing may change when the
host draws, never what a message is charged: every value is equal bit for
bit, in the same order, and the generator ends the stream in the same
state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.wrappers import (
    BurstyDelay,
    ConstantDelay,
    ExponentialDelay,
    InitialDelay,
    JitteredDelay,
    NormalDelay,
    UniformDelay,
)
from repro.wrappers.delays import WINDOW_MESSAGES


def per_message_reference(model, cardinality, per_message, rng):
    """Today's draw: one call a message, summed on its own."""
    seconds = []
    remaining = cardinality
    while remaining > 0:
        count = min(per_message, remaining)
        seconds.append(float(model.waiting_times(count, rng).sum()))
        remaining -= count
    return seconds


def _bits(values):
    return [value.hex() for value in values]


MODELS = {
    "uniform": lambda w: UniformDelay(w),
    "exponential": lambda w: ExponentialDelay(w),
    "normal": lambda w: NormalDelay(w, w / 2),
    "constant": lambda w: ConstantDelay(w),
}


@st.composite
def relations(draw):
    """``(cardinality, per_message)``: empty, under one message, exact
    multiples of the window, a window ± 1 message, each with or without
    a partial last message."""
    per_message = draw(st.integers(1, 240))
    shape = draw(st.sampled_from(
        ["empty", "under one", "windows", "window - 1", "window + 1",
         "any"]))
    if shape == "empty":
        return 0, per_message
    if shape == "under one":
        return draw(st.integers(1, per_message)), per_message
    messages = {"windows": WINDOW_MESSAGES * draw(st.integers(1, 3)),
                "window - 1": WINDOW_MESSAGES - 1,
                "window + 1": WINDOW_MESSAGES + 1,
                "any": draw(st.integers(1, 3 * WINDOW_MESSAGES))}[shape]
    partial = draw(st.one_of(st.just(0), st.integers(0, per_message - 1)))
    return messages * per_message + partial, per_message


@settings(deadline=None, max_examples=80)
@given(kind=st.sampled_from(sorted(MODELS)),
       w=st.one_of(st.just(0.0), st.floats(1e-7, 1e-1)),
       relation=relations(),
       seed=st.integers(0, 2**32 - 1))
def test_windowed_seconds_equal_the_per_message_draw(kind, w, relation,
                                                     seed):
    cardinality, per_message = relation
    model = MODELS[kind](w)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    windowed = list(model.message_seconds(cardinality, per_message, rng))
    reference = per_message_reference(MODELS[kind](w), cardinality,
                                      per_message, twin)
    assert all(type(value) is float for value in windowed)
    assert _bits(windowed) == _bits(reference)
    assert rng.bit_generator.state == twin.bit_generator.state


class _CountingUniform(UniformDelay):
    """A subclass that redefines the draw: it no longer says one call of
    ``k * n`` is ``k`` calls of ``n``."""

    def __init__(self, w):
        super().__init__(w)
        self.calls = []

    def waiting_times(self, n, rng):
        self.calls.append(n)
        return super().waiting_times(n, rng)


class _WindowedCountingUniform(_CountingUniform):
    """...unless it redefines ``message_seconds`` with it."""

    def message_seconds(self, cardinality, per_message, rng):
        return UniformDelay.message_seconds(self, cardinality, per_message,
                                            rng)


class _Breaking(UniformDelay):
    """A source whose fourth message fails."""

    messages = 0

    def waiting_times(self, n, rng):
        self.messages += 1
        if self.messages > 3:
            raise RuntimeError("source broke mid-stream")
        return super().waiting_times(n, rng)


def test_the_window_is_one_call_per_window_of_full_messages():
    model = _WindowedCountingUniform(1e-3)
    per_message = 10
    cardinality = (2 * WINDOW_MESSAGES + 3) * per_message + 4
    list(model.message_seconds(cardinality, per_message,
                               np.random.default_rng(1)))
    assert model.calls == [WINDOW_MESSAGES * per_message] * 2 + [
        3 * per_message, 4]


def test_a_subclass_that_redraws_is_called_once_per_message():
    model = _CountingUniform(1e-3)
    per_message = 7
    cardinality = (WINDOW_MESSAGES + 2) * per_message + 5
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    seconds = list(model.message_seconds(cardinality, per_message, rng))
    assert model.calls == [per_message] * (WINDOW_MESSAGES + 2) + [5]
    assert _bits(seconds) == _bits(per_message_reference(
        UniformDelay(1e-3), cardinality, per_message, twin))


@pytest.mark.parametrize("make", [
    lambda: JitteredDelay(1e-3),
    lambda: InitialDelay(0.5, UniformDelay(1e-3)),
    lambda: BurstyDelay(3, 1e-2, 1e-4)], ids=["jittered", "initial", "bursty"])
def test_per_message_models_keep_one_call_a_message(make):
    """Their draw is per call (jitter, a one-off initial delay, a burst
    position), so they are cut as before."""
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    cardinality, per_message = 3 * WINDOW_MESSAGES * 4 + 1, 4
    seconds = list(make().message_seconds(cardinality, per_message, rng))
    assert _bits(seconds) == _bits(per_message_reference(
        make(), cardinality, per_message, twin))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_a_model_that_raises_fails_at_its_message():
    seconds = _Breaking(1e-3).message_seconds(100 * 10, 10,
                                              np.random.default_rng(2))
    assert len([next(seconds) for _ in range(3)]) == 3
    with pytest.raises(RuntimeError, match="mid-stream"):
        next(seconds)
