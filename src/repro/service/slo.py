"""Per-tenant latency SLOs with multi-window burn-rate alerting.

An objective is declared on the CLI as ``tenant:p99<=30s@99.5%``: for
tenant ``tenant`` (or ``*`` for all traffic), 99.5% of completed
submissions must finish within 30 seconds.  Each completed submission is
one *event*; an event is *good* when its latency is at or under the
threshold.  The error budget is ``1 - target`` (here 0.5%), and the
burn rate over a window is::

    burn = bad_fraction_in_window / error_budget

A burn rate of 1.0 spends the budget exactly at the sustainable pace;
14.4 spends a 30-day budget in ~2 days.  Following SRE practice the
tracker evaluates two windows per objective — a fast window (default
5 min, threshold 14.4) that catches sharp regressions within minutes,
and a slow window (default 1 h, threshold 6.0) that catches persistent
slow burn while the fast window has already recovered.  Each window is
an independent alert with firing/resolved transitions; the service
archives every transition, publishes it as an SSE ``alert`` event, and
exposes current status at ``GET /slo``.

Everything here is deterministic: :class:`SLOTracker` never reads a
clock — callers pass ``at``/``now`` explicitly, which is what makes the
fast-then-slow alert sequencing unit-testable tick by tick.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: tenant wildcard: the objective covers every completed submission.
ALL_TENANTS = "*"

#: metrics an objective may constrain.  They all resolve to "latency of
#: one completed submission vs threshold" — the percentile label states
#: which population fraction the target protects.
_METRICS = ("latency", "p50", "p90", "p95", "p99")

#: ``tenant:p99<=30s@99.5%`` — tenant (or ``*``), metric, threshold with
#: optional ms/s/m unit, target percentage.
_SPEC_RE = re.compile(
    r"^(?P<tenant>[A-Za-z0-9_.*-]+):"
    r"(?P<metric>[a-z0-9]+)<=(?P<threshold>[0-9.]+)(?P<unit>ms|s|m)?"
    r"@(?P<target>[0-9.]+)%$")

_UNIT_SECONDS = {"ms": 1e-3, "s": 1.0, "m": 60.0, None: 1.0}

#: default burn-rate windows/thresholds (Google SRE workbook, ch. 5).
FAST_WINDOW_S = 300.0
SLOW_WINDOW_S = 3600.0
FAST_BURN_THRESHOLD = 14.4
SLOW_BURN_THRESHOLD = 6.0

#: events retained per objective — bounds tracker memory on long runs.
DEFAULT_EVENT_CAPACITY = 65536


@dataclass(frozen=True)
class SLOSpec:
    """One parsed objective (immutable, hashable, printable)."""

    tenant: str
    metric: str
    threshold_s: float
    target: float  # fraction in (0, 1), e.g. 0.995

    @classmethod
    def parse(cls, text: str) -> "SLOSpec":
        match = _SPEC_RE.match(text.strip())
        if match is None:
            raise ConfigurationError(
                f"bad SLO spec {text!r}; expected TENANT:METRIC<=SECONDS"
                f"@PERCENT% like gold:p99<=30s@99.5% (tenant '*' matches"
                f" all traffic)")
        metric = match.group("metric")
        if metric not in _METRICS:
            raise ConfigurationError(
                f"bad SLO metric {metric!r} in {text!r}; "
                f"expected one of {', '.join(_METRICS)}")
        threshold = (float(match.group("threshold"))
                     * _UNIT_SECONDS[match.group("unit")])
        if threshold <= 0:
            raise ConfigurationError(
                f"SLO threshold must be positive in {text!r}")
        target = float(match.group("target")) / 100.0
        if not 0.0 < target < 1.0:
            raise ConfigurationError(
                f"SLO target must be in (0%, 100%) exclusive, got {text!r}"
                f" — a 100% target has zero error budget")
        return cls(tenant=match.group("tenant"), metric=metric,
                   threshold_s=threshold, target=target)

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    @property
    def name(self) -> str:
        """Canonical spec string (round-trips through :meth:`parse`)."""
        return (f"{self.tenant}:{self.metric}<={self.threshold_s:g}s"
                f"@{self.target * 100:g}%")

    def matches(self, tenant: Optional[str]) -> bool:
        return self.tenant == ALL_TENANTS or self.tenant == tenant

    def good(self, latency_s: float) -> bool:
        return latency_s <= self.threshold_s


def parse_slo_specs(texts: Sequence[str]) -> List[SLOSpec]:
    """Parse CLI ``--slo`` values, rejecting duplicates."""
    specs: List[SLOSpec] = []
    seen: Dict[str, str] = {}
    for text in texts:
        spec = SLOSpec.parse(text)
        if spec.name in seen:
            raise ConfigurationError(
                f"duplicate SLO objective {spec.name!r} "
                f"(from {text!r} and {seen[spec.name]!r})")
        seen[spec.name] = text
        specs.append(spec)
    return specs


class _WindowAlert:
    """Firing/resolved state for one (objective, window) pair."""

    def __init__(self, label: str, window_s: float, threshold: float) -> None:
        self.label = label
        self.window_s = window_s
        self.threshold = threshold
        self.firing = False
        self.fired_total = 0
        self.since: Optional[float] = None

    def evaluate(self, burn: float, now: float) -> Optional[str]:
        """Returns ``"firing"``/``"resolved"`` on a transition else None."""
        if burn >= self.threshold and not self.firing:
            self.firing = True
            self.fired_total += 1
            self.since = now
            return "firing"
        if burn < self.threshold and self.firing:
            self.firing = False
            self.since = None
            return "resolved"
        return None


class _ObjectiveState:
    """Event ring + two window alerts for one objective."""

    def __init__(self, spec: SLOSpec, fast: Tuple[float, float],
                 slow: Tuple[float, float], capacity: int) -> None:
        self.spec = spec
        #: (at, good) pairs, oldest first.
        self.events: Deque[Tuple[float, bool]] = deque(maxlen=capacity)
        self.total_events = 0
        self.total_bad = 0
        self.fast = _WindowAlert("fast", fast[0], fast[1])
        self.slow = _WindowAlert("slow", slow[0], slow[1])

    def observe(self, latency_s: float, at: float) -> None:
        good = self.spec.good(latency_s)
        self.events.append((at, good))
        self.total_events += 1
        if not good:
            self.total_bad += 1

    def burn_rate(self, window_s: float, now: float) -> Tuple[float, int, int]:
        """``(burn, events, bad)`` over ``[now - window_s, now]``."""
        cutoff = now - window_s
        events = 0
        bad = 0
        # Oldest-first ring; walk from the newest end and stop at cutoff.
        for at, good in reversed(self.events):
            if at < cutoff:
                break
            events += 1
            if not good:
                bad += 1
        if events == 0:
            return 0.0, 0, 0
        bad_fraction = bad / events
        return bad_fraction / self.spec.error_budget, events, bad

    def evaluate(self, now: float) -> List[Dict[str, Any]]:
        transitions: List[Dict[str, Any]] = []
        for alert in (self.fast, self.slow):
            burn, events, bad = self.burn_rate(alert.window_s, now)
            change = alert.evaluate(burn, now)
            if change is not None:
                transitions.append({
                    "objective": self.spec.name,
                    "tenant": self.spec.tenant,
                    "window": alert.label,
                    "window_s": alert.window_s,
                    "state": change,
                    "burn_rate": burn,
                    "burn_threshold": alert.threshold,
                    "events": events,
                    "bad": bad,
                })
        return transitions

    def status(self, now: float) -> Dict[str, Any]:
        windows: Dict[str, Any] = {}
        for alert in (self.fast, self.slow):
            burn, events, bad = self.burn_rate(alert.window_s, now)
            windows[alert.label] = {
                "window_s": alert.window_s,
                "burn_rate": burn,
                "burn_threshold": alert.threshold,
                "events": events,
                "bad": bad,
                "firing": alert.firing,
                "firing_since": alert.since,
                "fired_total": alert.fired_total,
            }
        compliance = (1.0 - self.total_bad / self.total_events
                      if self.total_events else 1.0)
        return {
            "objective": self.spec.name,
            "tenant": self.spec.tenant,
            "metric": self.spec.metric,
            "threshold_s": self.spec.threshold_s,
            "target": self.spec.target,
            "error_budget": self.spec.error_budget,
            "events": self.total_events,
            "bad": self.total_bad,
            "compliance": compliance,
            "alerting": self.fast.firing or self.slow.firing,
            "windows": windows,
        }


class SLOTracker:
    """Evaluates every declared objective against the outcome stream.

    The service calls :meth:`observe` from ``_finish`` (one event per
    completed submission) and :meth:`evaluate` from the publish loop
    (once per tick); both take explicit timestamps on the service's
    wall clock, so tests drive the whole state machine synthetically.
    """

    def __init__(self, specs: Sequence[SLOSpec], *,
                 fast_window_s: float = FAST_WINDOW_S,
                 slow_window_s: float = SLOW_WINDOW_S,
                 fast_burn_threshold: float = FAST_BURN_THRESHOLD,
                 slow_burn_threshold: float = SLOW_BURN_THRESHOLD,
                 capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        if not specs:
            raise ConfigurationError("SLOTracker needs at least one objective")
        if fast_window_s <= 0 or slow_window_s <= 0:
            raise ConfigurationError("SLO windows must be positive")
        if fast_window_s >= slow_window_s:
            raise ConfigurationError(
                f"fast window ({fast_window_s}s) must be shorter than the "
                f"slow window ({slow_window_s}s)")
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}")
        self.specs = list(specs)
        self._states = [
            _ObjectiveState(spec, (fast_window_s, fast_burn_threshold),
                            (slow_window_s, slow_burn_threshold), capacity)
            for spec in self.specs]

    def observe(self, tenant: Optional[str], latency_s: float,
                at: float) -> None:
        """Record one completed submission against matching objectives."""
        for state in self._states:
            if state.spec.matches(tenant):
                state.observe(latency_s, at)

    def evaluate(self, now: float) -> List[Dict[str, Any]]:
        """Evaluate all windows; returns alert *transitions* (may be [])."""
        transitions: List[Dict[str, Any]] = []
        for state in self._states:
            transitions.extend(state.evaluate(now))
        return transitions

    def status(self, now: float) -> List[Dict[str, Any]]:
        """JSON-safe status of every objective (for ``/slo`` + snapshots)."""
        return [state.status(now) for state in self._states]

