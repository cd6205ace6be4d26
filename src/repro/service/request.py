"""A query submission as it arrives over the wire.

Its own module: a pool worker parses every job's request with
:meth:`SubmissionRequest.from_json` and imports nothing else of the
control plane (:mod:`repro.service.service` brings the archive, the
flight recorder, the SLO tracker and the publisher).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.core.multiquery import LeaseBudgets
from repro.core.strategies import make_policy


@dataclass(frozen=True)
class SubmissionRequest(LeaseBudgets):
    """One query submission as it arrives over the wire.

    The service runs the Figure 5 workload shape (that is the engine's
    experiment plan); a submission picks its strategy, scale, seed and
    source-delay profile — enough to make every submission's runtime
    behavior distinct while the plan stays validated once per scale.
    """

    tenant: str = "default"
    strategy: str = "DSE"
    scale: float = 0.02
    seed: int = 0
    #: mean per-tuple source wait, microseconds.
    wait_us: float = 200.0
    jitter: float = 1.0
    #: per-relation wait multipliers, e.g. ``{"A": 10.0}``.
    slow: Mapping[str, float] = field(default_factory=dict)
    #: admission priority override (None: the tenant's priority).
    priority: Optional[float] = None
    memory_bytes: Optional[int] = None
    min_memory_bytes: Optional[int] = None
    max_memory_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ConfigurationError("submission needs a tenant")
        make_policy(self.strategy)  # validates the name (-> HTTP 400)
        # JSON's NaN and Infinity parse as floats: an infinite wait is a
        # source that never produces, a NaN priority unorders admission.
        for name, value in (("scale", self.scale), ("wait_us", self.wait_us),
                            ("jitter", self.jitter),
                            ("priority", self.priority),
                            *((f"slow factor for {relation!r}", factor)
                              for relation, factor in self.slow.items())):
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value}")
        if self.scale <= 0:
            raise ConfigurationError(
                f"scale must be positive, got {self.scale}")
        if self.wait_us < 0:
            raise ConfigurationError(
                f"wait_us must be >= 0, got {self.wait_us}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}")
        for relation, factor in self.slow.items():
            if factor < 0:
                raise ConfigurationError(
                    f"slow factor for {relation!r} must be >= 0, "
                    f"got {factor}")
        self.check_budgets()

    @classmethod
    def from_json(cls, data: Any) -> "SubmissionRequest":
        """Build a request from a decoded JSON body (strict keys)."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"submission body must be a JSON object, got {type(data).__name__}")
        known = {
            "tenant": str, "strategy": str, "scale": (int, float),
            "seed": int, "wait_us": (int, float), "jitter": (int, float),
            "slow": dict, "priority": (int, float), "memory_bytes": int,
            "min_memory_bytes": int, "max_memory_bytes": int,
        }
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigurationError(
                f"unknown submission field(s): {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for key, value in data.items():
            expected = known[key]
            if value is None:
                continue
            if not isinstance(value, expected) or isinstance(value, bool):
                raise ConfigurationError(
                    f"submission field {key!r} has bad type "
                    f"{type(value).__name__}")
            kwargs[key] = value
        if "slow" in kwargs:
            slow: Dict[str, float] = {}
            for relation, factor in kwargs["slow"].items():
                if not isinstance(relation, str) \
                        or not isinstance(factor, (int, float)) \
                        or isinstance(factor, bool):
                    raise ConfigurationError(
                        f"slow must map relation names to factors, "
                        f"got {relation!r}: {factor!r}")
                slow[relation] = float(factor)
            kwargs["slow"] = slow
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant, "strategy": self.strategy,
            "scale": self.scale, "seed": self.seed,
            "wait_us": self.wait_us, "jitter": self.jitter,
            "slow": dict(self.slow), "priority": self.priority,
            "memory_bytes": self.memory_bytes,
            "min_memory_bytes": self.min_memory_bytes,
            "max_memory_bytes": self.max_memory_bytes,
        }
