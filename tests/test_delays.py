"""Tests for the delay models (the paper's delay taxonomy, Section 1.2)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.wrappers import (
    BurstyDelay,
    ConstantDelay,
    ExponentialDelay,
    InitialDelay,
    JitteredDelay,
    NormalDelay,
    UniformDelay,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_constant_delay(rng):
    model = ConstantDelay(2e-5)
    waits = model.waiting_times(5, rng)
    assert np.allclose(waits, 2e-5)
    assert model.mean_wait() == 2e-5


def test_constant_negative_rejected():
    with pytest.raises(ConfigurationError):
        ConstantDelay(-1.0)


def test_uniform_delay_range_and_mean(rng):
    model = UniformDelay(1e-3)
    waits = model.waiting_times(10_000, rng)
    assert waits.min() >= 0.0
    assert waits.max() <= 2e-3
    assert waits.mean() == pytest.approx(1e-3, rel=0.05)
    assert model.mean_wait() == 1e-3


def test_uniform_zero_wait(rng):
    model = UniformDelay(0.0)
    assert np.all(model.waiting_times(10, rng) == 0.0)


def test_jittered_delay_draws_once_per_message():
    """``count * w * u`` of production per message, ``u`` uniform on
    ``[1 - jitter, 1 + jitter]``."""
    w, jitter = 50e-6, 0.5
    model = JitteredDelay(w, jitter)
    rng, reference = np.random.default_rng(9), np.random.default_rng(9)
    for count in (204, 204, 92):
        waits = model.waiting_times(count, rng)
        u = float(reference.uniform(1.0 - jitter, 1.0 + jitter))
        assert waits.shape == (count,) and np.all(waits == waits[0])
        assert float(waits.sum()) == pytest.approx(count * (u * w),
                                                   rel=1e-12)
    assert model.mean_wait() == w


def test_jittered_delay_edges(rng):
    assert np.all(JitteredDelay(2e-5, jitter=0.0).waiting_times(7, rng)
                  == 2e-5)
    assert np.all(JitteredDelay(0.0).waiting_times(7, rng) == 0.0)
    per_message = [JitteredDelay(1e-3).waiting_times(1, rng)[0]
                   for _ in range(10_000)]
    assert 0.0 <= min(per_message) and max(per_message) <= 2e-3
    assert np.mean(per_message) == pytest.approx(1e-3, rel=0.05)
    for bad in (dict(w=-1.0), dict(w=1.0, jitter=1.5),
                dict(w=1.0, jitter=-0.1)):
        with pytest.raises(ConfigurationError):
            JitteredDelay(**bad)


def test_initial_delay_applies_once(rng):
    model = InitialDelay(1.0, ConstantDelay(0.001))
    first = model.waiting_times(3, rng)
    assert first[0] == pytest.approx(1.001)
    assert np.allclose(first[1:], 0.001)
    second = model.waiting_times(3, rng)
    assert np.allclose(second, 0.001)


def test_initial_delay_reset(rng):
    model = InitialDelay(1.0, ConstantDelay(0.001))
    model.waiting_times(1, rng)
    model.reset()
    again = model.waiting_times(1, rng)
    assert again[0] == pytest.approx(1.001)


def test_initial_delay_mean_ignores_one_off():
    model = InitialDelay(100.0, ConstantDelay(0.5))
    assert model.mean_wait() == 0.5


def test_initial_negative_rejected():
    with pytest.raises(ConfigurationError):
        InitialDelay(-1.0, ConstantDelay(0.0))


def test_bursty_delay_pattern(rng):
    model = BurstyDelay(burst_tuples=3, gap=1.0, within_burst_wait=0.1)
    waits = model.waiting_times(7, rng)
    expected = [1.1, 0.1, 0.1, 1.1, 0.1, 0.1, 1.1]
    assert np.allclose(waits, expected)


def test_bursty_state_continues_across_calls(rng):
    model = BurstyDelay(burst_tuples=3, gap=1.0)
    first = model.waiting_times(2, rng)
    second = model.waiting_times(2, rng)
    assert first[0] == pytest.approx(1.0)   # burst boundary
    assert second[0] == pytest.approx(0.0)  # third tuple of the burst
    assert second[1] == pytest.approx(1.0)  # next burst


def test_bursty_reset(rng):
    model = BurstyDelay(burst_tuples=4, gap=2.0)
    model.waiting_times(2, rng)
    model.reset()
    assert model.waiting_times(1, rng)[0] == pytest.approx(2.0)


def test_bursty_mean_wait():
    model = BurstyDelay(burst_tuples=4, gap=2.0, within_burst_wait=0.5)
    assert model.mean_wait() == pytest.approx(0.5 + 2.0 / 4)


def test_bursty_validation():
    with pytest.raises(ConfigurationError):
        BurstyDelay(burst_tuples=0, gap=1.0)
    with pytest.raises(ConfigurationError):
        BurstyDelay(burst_tuples=2, gap=-1.0)


def test_exponential_mean_and_positivity(rng):
    model = ExponentialDelay(1e-3)
    waits = model.waiting_times(20_000, rng)
    assert waits.min() >= 0.0
    assert waits.mean() == pytest.approx(1e-3, rel=0.05)
    assert model.mean_wait() == 1e-3


def test_exponential_zero_wait(rng):
    assert np.all(ExponentialDelay(0.0).waiting_times(5, rng) == 0.0)


def test_exponential_negative_rejected():
    with pytest.raises(ConfigurationError):
        ExponentialDelay(-1.0)


def test_normal_truncated_at_zero(rng):
    model = NormalDelay(mean=1e-3, std=2e-3)  # heavy truncation
    waits = model.waiting_times(20_000, rng)
    assert waits.min() >= 0.0
    # The analytic truncated mean matches the empirical one.
    assert waits.mean() == pytest.approx(model.mean_wait(), rel=0.05)
    # Truncation raises the mean above the untruncated one.
    assert model.mean_wait() > 1e-3


def test_normal_zero_std_is_constant(rng):
    model = NormalDelay(mean=5e-4, std=0.0)
    assert np.allclose(model.waiting_times(10, rng), 5e-4)
    assert model.mean_wait() == 5e-4


def test_normal_validation():
    with pytest.raises(ConfigurationError):
        NormalDelay(-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        NormalDelay(1.0, -1.0)


def test_negative_count_rejected(rng):
    with pytest.raises(ConfigurationError):
        UniformDelay(1.0).waiting_times(-1, rng)


def test_zero_count_allowed(rng):
    assert len(UniformDelay(1.0).waiting_times(0, rng)) == 0


# --------------------------------------------------------------------------
# The contract: a model says whether it can draw, and only then needs a
# generator
# --------------------------------------------------------------------------

class _NoGenerator:
    """Stands in for the generator of a source that was given none:
    touching it in any way fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"a model that cannot draw read rng.{name}")


W, N = 3e-4, 7

#: configurations that can never draw.
CANNOT_DRAW = [
    ConstantDelay(W), ConstantDelay(0.0),
    UniformDelay(0.0), ExponentialDelay(0.0),
    JitteredDelay(0.0), JitteredDelay(0.0, jitter=0.25),
    BurstyDelay(burst_tuples=3, gap=1e-2, within_burst_wait=1e-5),
    InitialDelay(0.5, ConstantDelay(W)), InitialDelay(0.5, UniformDelay(0.0)),
    InitialDelay(0.5, JitteredDelay(0.0)),
]

#: configurations that draw, each with the numpy call it makes today.
DRAWS = [
    (UniformDelay(W), lambda rng: rng.uniform(0.0, 2.0 * W, size=N)),
    (ExponentialDelay(W), lambda rng: rng.exponential(W, size=N)),
    (JitteredDelay(W), lambda rng: np.full(N, W * rng.uniform(0.0, 2.0))),
    (JitteredDelay(W, jitter=0.25),
     lambda rng: np.full(N, W * rng.uniform(0.75, 1.25))),
    # Zero jitter still consumes its draw: the stream must not shift.
    (JitteredDelay(W, jitter=0.0),
     lambda rng: np.full(N, W * rng.uniform(1.0, 1.0))),
    (NormalDelay(W, W / 2),
     lambda rng: np.maximum(0.0, rng.normal(W, W / 2, size=N))),
    (NormalDelay(W, 0.0),
     lambda rng: np.maximum(0.0, rng.normal(W, 0.0, size=N))),
    (InitialDelay(0.0, ExponentialDelay(W)),
     lambda rng: rng.exponential(W, size=N)),
]


@pytest.mark.parametrize("model", CANNOT_DRAW, ids=repr)
def test_a_model_that_cannot_draw_never_touches_the_generator(model):
    assert model.draws is False
    first = model.waiting_times(N, _NoGenerator())
    second = model.waiting_times(N, None)
    assert first.shape == second.shape == (N,)
    assert np.all(first >= 0.0)


def test_the_zero_wait_models_agree():
    """``JitteredDelay(0)`` multiplied a draw by zero where its siblings
    returned zeros untouched."""
    for model in (UniformDelay(0.0), ExponentialDelay(0.0),
                  JitteredDelay(0.0), JitteredDelay(0.0, jitter=0.5)):
        waits = model.waiting_times(N, _NoGenerator())
        assert waits.dtype == np.float64
        assert np.array_equal(waits, np.zeros(N))


@pytest.mark.parametrize("model,numpy_call", DRAWS,
                         ids=[repr(model) for model, _ in DRAWS])
def test_a_drawing_model_draws_what_it_drew_before(model, numpy_call):
    """Bit for bit, from the first draw on, and the stream ends where
    the same numpy calls leave it."""
    assert model.draws is True
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(3):
        assert np.array_equal(model.waiting_times(N, rng), numpy_call(twin))
    assert rng.random() == twin.random()


def test_an_initial_delay_draws_as_its_base_does():
    assert InitialDelay(1.0, UniformDelay(W)).draws is True
    assert InitialDelay(1.0, UniformDelay(0.0)).draws is False
    assert InitialDelay(1.0, BurstyDelay(2, 1e-3)).draws is False
