"""Tenant identity, priorities and quotas for the always-on service.

The one-shot front-ends (``repro run``, ``repro live``, ``repro
multiquery``) execute on behalf of a single implicit tenant, so the
resource plane never needed names.  The :mod:`repro.service` daemon does:
every submission belongs to a *tenant*, and the tenant carries the
scheduling identity that outlives any one query — its admission
priority, its concurrency quota, and its cap on declared memory.

* :class:`TenantSpec` — the static configuration (name, priority,
  quotas), parseable from the CLI's ``name:priority[:max_active
  [:memory]]`` shorthand;
* :class:`TenantAccount` — live accounting for one tenant across the
  unbounded submission stream (in-flight, completed, rejected,
  admission-wait totals, declared lease bytes);
* :class:`TenantRegistry` — the lookup + quota gate the service calls
  once per submission.  Quota violations raise :class:`QuotaExceeded`
  (HTTP 429 at the service boundary) *before* anything touches the
  kernel or the broker.

Quotas are enforced on *declared* demand (a submission's ``max_bytes``),
not on live lease totals: the check must be answerable at submit time,
before admission decides what the query actually gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.units import parse_size


class QuotaExceeded(Exception):
    """A submission was refused by its tenant's quota (not by memory)."""

    def __init__(self, tenant: str, reason: str) -> None:
        super().__init__(f"tenant {tenant!r}: {reason}")
        self.tenant = tenant
        self.reason = reason


@dataclass(frozen=True)
class TenantSpec:
    """Static per-tenant configuration."""

    name: str
    #: admission priority for this tenant's submissions (higher first
    #: under the ``priority`` admission policy).
    priority: float = 0.0
    #: max submissions in flight (queued + running); None = unlimited.
    max_active: Optional[int] = None
    #: cap on the sum of in-flight declared ``max_bytes``; None = unlimited.
    memory_limit_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not math.isfinite(self.priority):
            # As for a submission's own priority: NaN unorders admission.
            raise ConfigurationError(
                f"tenant {self.name!r}: priority must be a finite number, "
                f"got {self.priority}")
        if self.max_active is not None and self.max_active < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: max_active must be >= 1, "
                f"got {self.max_active}")
        if self.memory_limit_bytes is not None and self.memory_limit_bytes <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: memory_limit_bytes must be positive, "
                f"got {self.memory_limit_bytes}")

    @classmethod
    def parse(cls, text: str) -> "TenantSpec":
        """Parse the CLI shorthand ``name:priority[:max_active[:memory]]``.

        Empty segments keep their defaults, so ``acme:::64M`` is a tenant
        with default priority, unlimited concurrency, and a 64 MiB cap.
        """
        parts = text.split(":")
        try:
            if not parts[0] or len(parts) > 4:
                raise ValueError
            priority = (float(parts[1]) if len(parts) > 1 and parts[1]
                        else 0.0)
            max_active = (int(parts[2])
                          if len(parts) > 2 and parts[2] else None)
        except ValueError:
            raise ConfigurationError(
                f"bad tenant spec {text!r}; expected "
                "NAME[:PRIORITY[:MAX_ACTIVE[:MEMORY]]]") from None
        memory = (parse_size(parts[3], "tenant memory")
                  if len(parts) > 3 and parts[3] else None)
        return cls(name=parts[0], priority=priority, max_active=max_active,
                   memory_limit_bytes=memory)


@dataclass
class TenantAccount:
    """Live accounting for one tenant across the submission stream."""

    spec: TenantSpec
    #: submissions currently queued or running.
    in_flight: int = 0
    #: sum of declared ``max_bytes`` across in-flight submissions.
    declared_bytes: int = 0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: refused by quota (the service counts drain-time 503s separately).
    rejected: int = 0
    total_wait_s: float = 0.0
    wait_samples: int = 0
    total_latency_s: float = 0.0

    @property
    def mean_wait_s(self) -> float:
        return (self.total_wait_s / self.wait_samples
                if self.wait_samples else 0.0)

    @property
    def mean_latency_s(self) -> float:
        done = self.completed + self.failed
        return self.total_latency_s / done if done else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe view for service snapshots and ``repro top``."""
        return {
            "name": self.spec.name,
            "priority": self.spec.priority,
            "max_active": self.spec.max_active,
            "memory_limit_bytes": self.spec.memory_limit_bytes,
            "in_flight": self.in_flight,
            "declared_bytes": self.declared_bytes,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "mean_wait_s": self.mean_wait_s,
            "mean_latency_s": self.mean_latency_s,
        }


class TenantRegistry:
    """Tenant lookup and the per-submission quota gate.

    Unknown tenants are auto-registered with ``default_spec``-derived
    settings unless the registry is ``strict`` (then submitting as an
    unregistered tenant raises :class:`QuotaExceeded`, surfaced as an
    HTTP 4xx by the service).
    """

    def __init__(self, specs: Optional[List[TenantSpec]] = None, *,
                 default_priority: float = 0.0,
                 strict: bool = False) -> None:
        self.strict = strict
        self.default_priority = default_priority
        self._accounts: Dict[str, TenantAccount] = {}
        for spec in specs or []:
            self.register(spec)

    def register(self, spec: TenantSpec) -> TenantAccount:
        if spec.name in self._accounts:
            raise ConfigurationError(f"tenant {spec.name!r} registered twice")
        account = TenantAccount(spec=spec)
        self._accounts[spec.name] = account
        return account

    def account(self, name: str) -> TenantAccount:
        """The tenant's account, auto-registering unless strict."""
        found = self._accounts.get(name)
        if found is not None:
            return found
        if self.strict:
            raise QuotaExceeded(name, "unknown tenant (strict registry)")
        return self.register(
            TenantSpec(name=name, priority=self.default_priority))

    # -- submission lifecycle ------------------------------------------------
    def begin(self, name: str, max_bytes: int) -> TenantAccount:
        """Quota-check and account one new submission (may raise)."""
        account = self.account(name)
        spec = account.spec
        if spec.max_active is not None \
                and account.in_flight >= spec.max_active:
            account.rejected += 1
            raise QuotaExceeded(
                name, f"{account.in_flight} submissions in flight "
                f"(quota {spec.max_active})")
        if spec.memory_limit_bytes is not None \
                and account.declared_bytes + max_bytes > spec.memory_limit_bytes:
            account.rejected += 1
            raise QuotaExceeded(
                name, f"declared memory {account.declared_bytes + max_bytes} "
                f"would exceed quota {spec.memory_limit_bytes}")
        account.submitted += 1
        account.in_flight += 1
        account.declared_bytes += max_bytes
        return account

    def finish(self, account: TenantAccount, max_bytes: int, *, ok: bool,
               waited_s: float = 0.0, latency_s: float = 0.0) -> None:
        """Account one finished (or failed) submission."""
        account.in_flight -= 1
        account.declared_bytes -= max_bytes
        if ok:
            account.completed += 1
        else:
            account.failed += 1
        account.total_wait_s += waited_s
        account.wait_samples += 1
        account.total_latency_s += latency_s

    # -- views ---------------------------------------------------------------
    def priority_for(self, name: str,
                     override: Optional[float] = None) -> float:
        """A submission's effective priority (explicit beats tenant)."""
        if override is not None:
            return override
        account = self._accounts.get(name)
        return account.spec.priority if account is not None \
            else self.default_priority

    def snapshot(self) -> List[Dict[str, object]]:
        """Name-sorted per-tenant accounting (JSON-safe)."""
        return [self._accounts[name].to_dict()
                for name in sorted(self._accounts)]

    def __len__(self) -> int:
        return len(self._accounts)

    def __repr__(self) -> str:
        return (f"TenantRegistry({len(self._accounts)} tenants, "
                f"strict={self.strict})")
