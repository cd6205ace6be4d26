"""Simulated wrappers (remote data sources).

Each wrapper ships its relation to the mediator in fixed-size messages.
The per-tuple *waiting times* (production + network time, Section 5.1.3)
come from a pluggable :class:`DelayModel`; the paper's three delay
categories — initial delay, bursty arrival, slow delivery — all have a
model here, plus the uniform model used in the experiments.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "delays": (
        "BurstyDelay", "ConstantDelay", "DelayModel", "ExponentialDelay",
        "InitialDelay", "JitteredDelay", "NormalDelay", "UniformDelay",
    ),
    "source": ("Wrapper",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.wrappers.delays import (
        BurstyDelay,
        ConstantDelay,
        DelayModel,
        ExponentialDelay,
        InitialDelay,
        JitteredDelay,
        NormalDelay,
        UniformDelay,
    )
    from repro.wrappers.source import Wrapper
