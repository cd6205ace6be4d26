"""Simulated wrappers (remote data sources).

Each wrapper ships its relation to the mediator in fixed-size messages.
The per-tuple *waiting times* (production + network time, Section 5.1.3)
come from a pluggable :class:`DelayModel`; the paper's three delay
categories — initial delay, bursty arrival, slow delivery — all have a
model here, plus the uniform model used in the experiments.
"""

from repro.wrappers.delays import (
    BurstyDelay,
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    InitialDelay,
    JitteredDelay,
    NormalDelay,
    UniformDelay,
    slow_delivery,
)
from repro.wrappers.source import Wrapper

__all__ = [
    "BurstyDelay",
    "ConstantDelay",
    "DelayModel",
    "ExponentialDelay",
    "InitialDelay",
    "JitteredDelay",
    "NormalDelay",
    "UniformDelay",
    "Wrapper",
    "slow_delivery",
]
