"""Hierarchical memory governance: one global pool, per-query leases.

Two layers:

* :class:`MemoryLease` — one query's memory budget.  The leaf layer is
  byte-accurate per-owner accounting (hash tables, in-memory temps) with
  exactly the semantics the old per-query ``MemoryManager`` had — same
  arithmetic, same error messages — so a lease drawn from an unbounded
  broker with ``min == max == budget`` behaves bit-identically to the
  old private manager.  On top of that a lease may carry *headroom*
  (``max_bytes`` above its current ``total_bytes``): reservations that
  would not fit the current budget pull the shortfall from the broker's
  spare pool on demand, and bytes *offered* back by the broker (another
  query completed) arrive through :meth:`MemoryLease.grant`, bumping
  ``grow_revision`` and notifying subscribers — the signal the DQS uses
  to re-run its planning phase with the larger budget.

* :class:`MemoryBroker` — the per-mediator pool the leases draw from.
  An *unbounded* broker (``total_bytes=None``, the default every
  single-query ``World`` gets) grants every pull and never shrinks, so
  legacy behavior is unchanged.  A *governed* broker enforces
  ``sum(lease totals) <= pool total``, reclaims idle headroom when
  another query is waiting, and redistributes released bytes —
  admissions first, then grow offers to running leases in registration
  order.

Demand pulls (a hash table growing page by page) are deliberately *not*
audited — they would flood the decision log.  Only broker-initiated
offers (``lease-grow``), reclamations (``lease-shrink``) and admission
events appear in the audit log.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.exec import Kernel
from repro.observability.audit import (
    DECISION_LEASE_GROW,
    DECISION_LEASE_SHRINK,
)

if TYPE_CHECKING:
    from repro.observability.registry import (
        GaugeMetric,
        MetricsRegistry,
        NullMetric,
    )
    from repro.observability.telemetry import Telemetry
    from repro.resources.admission import AdmissionController

    Gauge = GaugeMetric | NullMetric

#: callback signature for grow notifications: ``(granted, new_total)``.
GrowCallback = Callable[[int, int], None]


class MemoryLease:
    """Byte-accurate accounting of one query's memory budget.

    Keeps the protocol of the ``MemoryManager`` it replaced:
    ``total_bytes`` / ``used_bytes`` / ``peak_bytes`` /
    ``available_bytes`` and reserve/grow/release.  ``min_bytes`` /
    ``max_bytes`` bound what the broker may reclaim from, or offer to,
    this lease; both default to ``total_bytes``, which makes the lease
    exactly as static as the old manager.
    """

    def __init__(self, total_bytes: int, *,
                 broker: Optional["MemoryBroker"] = None,
                 name: str = "query",
                 min_bytes: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 tenant: str = "") -> None:
        if total_bytes <= 0:
            raise SimulationError(f"memory budget must be positive, got {total_bytes}")
        self.total_bytes = total_bytes
        self.used_bytes = 0
        self.peak_bytes = 0
        self._allocations: dict[str, int] = {}
        # The broker owns its leases; the way back is weak (whoever
        # holds a lease holds the machine, and so the broker).
        self._broker = None if broker is None else weakref.ref(broker)
        self.name = name
        #: owning tenant ("" outside the multi-tenant service).
        self.tenant = tenant
        self.min_bytes = total_bytes if min_bytes is None else min_bytes
        self.max_bytes = total_bytes if max_bytes is None else max_bytes
        if not self.min_bytes <= total_bytes <= self.max_bytes:
            raise SimulationError(
                f"lease bounds violated for {name!r}: "
                f"{self.min_bytes} <= {total_bytes} <= {self.max_bytes}")
        #: bumped on every broker-initiated grow; the DQS compares this
        #: against the revision it last planned at.
        self.grow_revision = 0
        #: True once the broker took the lease back (query finished).
        self.released = False
        self._grow_subscribers: List[GrowCallback] = []
        self._used_gauge: Optional["Gauge"] = None
        self._peak_gauge: Optional["Gauge"] = None
        self._avail_gauge: Optional["Gauge"] = None

    @property
    def broker(self) -> Optional["MemoryBroker"]:
        """The pool this lease was carved from (None when standalone)."""
        return None if self._broker is None else self._broker()

    # -- leaf accounting (a static budget when standalone) ------------------
    @property
    def available_bytes(self) -> int:
        return self.total_bytes - self.used_bytes

    def would_fit(self, num_bytes: int) -> bool:
        """True if ``num_bytes`` more could be reserved right now.

        Counts the broker headroom a demand pull could claim, so an
        M-schedulability check sees the budget the query could actually
        reach — not just the bytes already leased.
        """
        return num_bytes <= self.available_bytes + self._headroom()

    def reserve(self, owner: str, num_bytes: int) -> None:
        """Reserve memory for ``owner``; caller must check :meth:`would_fit`."""
        if num_bytes < 0:
            raise SimulationError(f"negative reservation: {num_bytes}")
        if owner in self._allocations:
            raise SimulationError(f"owner {owner!r} already holds a reservation")
        if num_bytes > self.available_bytes and \
                not self._pull(num_bytes - self.available_bytes):
            raise SimulationError(
                f"reservation of {num_bytes} for {owner!r} exceeds available "
                f"{self.available_bytes}")
        self._allocations[owner] = num_bytes
        self.used_bytes += num_bytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self._publish()

    def try_grow(self, owner: str, delta_bytes: int) -> bool:
        """Grow an existing reservation; False if it does not fit."""
        if delta_bytes < 0:
            raise SimulationError(f"negative growth: {delta_bytes}")
        if owner not in self._allocations:
            raise SimulationError(f"owner {owner!r} holds no reservation")
        if delta_bytes > self.available_bytes and \
                not self._pull(delta_bytes - self.available_bytes):
            return False
        self._allocations[owner] += delta_bytes
        self.used_bytes += delta_bytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self._publish()
        return True

    def release(self, owner: str) -> int:
        """Free ``owner``'s reservation; returns the bytes freed.

        Under a governed broker this is the reclamation point: freed
        bytes above the lease's minimum are taken back into the pool
        when another query is waiting for them.
        """
        try:
            num_bytes = self._allocations.pop(owner)
        except KeyError:
            raise SimulationError(f"owner {owner!r} holds no reservation") from None
        self.used_bytes -= num_bytes
        self._publish()
        broker = self.broker
        if broker is not None and not self.released:
            broker.reclaim(self)
        return num_bytes

    # -- broker protocol ----------------------------------------------------
    def subscribe_grow(self, callback: GrowCallback) -> None:
        """Register for broker-initiated grow offers (DQP wake-up hook)."""
        self._grow_subscribers.append(callback)

    def grant(self, delta_bytes: int) -> None:
        """Accept ``delta_bytes`` offered by the broker (grow event)."""
        if delta_bytes <= 0:
            return
        self._resize(delta_bytes)
        self.grow_revision += 1
        self._publish()
        for callback in self._grow_subscribers:
            callback(delta_bytes, self.total_bytes)

    def _headroom(self) -> int:
        """Bytes a demand pull could claim beyond the current total."""
        broker = self.broker
        if broker is None or self.released:
            return 0
        room = self.max_bytes - self.total_bytes
        if room <= 0:
            return 0
        spare = broker.spare_bytes()
        return room if spare is None else min(room, spare)

    def _pull(self, delta_bytes: int) -> bool:
        """Demand-pull ``delta_bytes`` from the broker (no grow event)."""
        if delta_bytes > self._headroom():
            return False
        broker = self.broker
        assert broker is not None
        return broker.expand_lease(self, delta_bytes)

    def _shrink_to(self, target_bytes: int) -> int:
        """Drop headroom down to ``target_bytes``; returns bytes freed."""
        target_bytes = max(target_bytes, self.used_bytes)
        freed = self.total_bytes - target_bytes
        if freed > 0:
            self._resize(-freed)
            self._publish()
        return max(freed, 0)

    def _resize(self, delta_bytes: int) -> None:
        """The one place a carved lease's total changes, so the broker's
        running :attr:`MemoryBroker.leased_bytes` stays equal to the
        re-sum over its leases."""
        self.total_bytes += delta_bytes
        broker = self.broker
        if broker is not None and not self.released:
            broker._leased_bytes += delta_bytes

    # -- observability ------------------------------------------------------
    def attach_metrics(self, registry: "MetricsRegistry",
                       prefix: str = "memory") -> None:
        """Export used/peak/available gauges under ``prefix``.

        No-op on a disabled registry, keeping the reserve/grow/release
        hot path a single ``is not None`` check when telemetry is off.
        """
        if not registry.enabled:
            return
        self._used_gauge = registry.gauge(f"{prefix}.used_bytes")
        self._peak_gauge = registry.gauge(f"{prefix}.peak_bytes")
        self._avail_gauge = registry.gauge(f"{prefix}.available_bytes")
        self._publish()

    def _publish(self) -> None:
        if self._used_gauge is None:
            return
        assert self._peak_gauge is not None and self._avail_gauge is not None
        self._used_gauge.set(self.used_bytes)
        self._peak_gauge.set(self.peak_bytes)
        self._avail_gauge.set(self.available_bytes)

    def __repr__(self) -> str:
        return (f"MemoryLease({self.name!r}, {self.used_bytes}/"
                f"{self.total_bytes} used, peak={self.peak_bytes})")


class MemoryBroker:
    """The global mediator memory pool leases are drawn from.

    ``total_bytes=None`` makes the broker *unbounded*: every pull is
    granted, nothing is ever reclaimed, and spare is unlimited — the
    configuration every single-query ``World`` gets, preserving legacy
    behavior exactly.  A governed broker (``total_bytes`` set) enforces
    the pool invariant and drives redistribution.
    """

    def __init__(self, total_bytes: Optional[int] = None, *,
                 sim: Optional[Kernel] = None,
                 telemetry: Optional["Telemetry"] = None,
                 name: str = "mediator") -> None:
        if total_bytes is not None and total_bytes <= 0:
            raise SimulationError(
                f"memory pool must be positive, got {total_bytes}")
        self.total_bytes = total_bytes
        self.name = name
        self.sim = sim
        self.telemetry = telemetry
        self.leases: List[MemoryLease] = []
        self._leased_bytes = 0
        #: weak: the controller sits in front of the broker and holds it.
        self._admission: Callable[
            [], Optional["AdmissionController"]] = lambda: None
        self._leased_gauge: Optional["Gauge"] = None
        self._spare_gauge: Optional["Gauge"] = None
        self._active_gauge: Optional["Gauge"] = None
        if telemetry is not None:
            self._attach_gauges()

    # -- pool arithmetic ----------------------------------------------------
    @property
    def governed(self) -> bool:
        return self.total_bytes is not None

    @property
    def leased_bytes(self) -> int:
        """``sum(lease.total_bytes for lease in self.leases)``, kept as
        a running total (read on every :meth:`spare_bytes` call)."""
        return self._leased_bytes

    def spare_bytes(self) -> Optional[int]:
        """Unleased pool bytes; None when the pool is unbounded."""
        if self.total_bytes is None:
            return None
        return self.total_bytes - self.leased_bytes

    # -- lease lifecycle ----------------------------------------------------
    def lease(self, name: str, num_bytes: int, *,
              min_bytes: Optional[int] = None,
              max_bytes: Optional[int] = None,
              tenant: str = "") -> MemoryLease:
        """Carve a new lease out of the pool."""
        spare = self.spare_bytes()
        if spare is not None and num_bytes > spare:
            raise SimulationError(
                f"lease of {num_bytes} for {name!r} exceeds spare pool {spare}")
        lease = MemoryLease(num_bytes, broker=self, name=name,
                            min_bytes=min_bytes, max_bytes=max_bytes,
                            tenant=tenant)
        self.leases.append(lease)
        self._leased_bytes += num_bytes
        self._publish()
        return lease

    def carve_even(self, count: int, *, name_prefix: str = "worker",
                   tenant: str = "") -> List[MemoryLease]:
        """Split the spare pool into ``count`` equal *static* leases.

        The carve-out primitive for sharded worker processes: each of the
        ``count`` leases gets ``spare // count`` bytes with
        ``min == max`` (a worker's budget is fixed for its lifetime; the
        governance *inside* the shard is the worker's own broker, built
        over its carve).  Remainder bytes from the integer division stay
        in the pool.  On an unbounded broker there is nothing to split —
        workers inherit unboundedness — so no leases are carved and an
        empty list comes back.

        Return a dead worker's lease with :meth:`release` and re-carve
        its replacement with :meth:`lease` at the same size.
        """
        if count < 1:
            raise SimulationError(f"cannot carve into {count} shares")
        spare = self.spare_bytes()
        if spare is None:
            return []
        share = spare // count
        if share <= 0:
            raise SimulationError(
                f"pool spare {spare} cannot cover {count} worker "
                f"carve-outs (needs >= {count} bytes)")
        return [self.lease(f"{name_prefix}-{index}", share, tenant=tenant)
                for index in range(count)]

    def expand_lease(self, lease: MemoryLease, delta_bytes: int) -> bool:
        """Demand pull: grow ``lease`` by ``delta_bytes`` if spare allows.

        No audit record and no grow event — the lease asked for the
        bytes itself (a hash table growing page by page); only
        broker-initiated offers are scheduling decisions worth logging.
        """
        if delta_bytes <= 0:
            return True
        if lease.released:
            return False
        spare = self.spare_bytes()
        if spare is not None and delta_bytes > spare:
            return False
        lease._resize(delta_bytes)
        self._publish()
        return True

    def release(self, lease: MemoryLease) -> None:
        """Return a whole lease to the pool (query finished)."""
        if lease.released:
            return
        lease.released = True
        self.leases.remove(lease)
        # No offer can reach a returned lease: let its subscribers (the
        # finished query's DQP, which holds the lease) go.
        lease._grow_subscribers.clear()
        self._leased_bytes -= lease.total_bytes
        self._publish()
        if self.governed:
            self._redistribute()

    def reclaim(self, lease: MemoryLease) -> None:
        """Take back idle headroom after ``lease`` freed a reservation.

        Only acts on a governed pool, only down to
        ``max(used, min_bytes)``, and only when somebody is actually
        waiting (a queued admission or a growable lease) — otherwise the
        query keeps its budget, matching the paper's static model.
        """
        if not self.governed or lease.released:
            return
        target = max(lease.used_bytes, lease.min_bytes)
        if lease.total_bytes <= target or not self._demand_exists(lease):
            return
        freed = lease._shrink_to(target)
        if freed <= 0:
            return
        self._publish()
        self._audit(DECISION_LEASE_SHRINK, lease.name,
                    freed_bytes=freed, memory_total_bytes=lease.total_bytes,
                    memory_used_bytes=lease.used_bytes)
        self._redistribute()

    # -- redistribution -----------------------------------------------------
    def attach_admission(self, controller: "AdmissionController") -> None:
        self._admission = weakref.ref(controller)

    def _demand_exists(self, releasing: MemoryLease) -> bool:
        admission = self._admission()
        if admission is not None and admission.queue_depth > 0:
            return True
        return any(lease is not releasing and not lease.released
                   and lease._grow_subscribers
                   and lease.total_bytes < lease.max_bytes
                   for lease in self.leases)

    def _redistribute(self) -> None:
        """Hand spare bytes out: admissions first, then grow offers."""
        if not self.governed:
            return
        admission = self._admission()
        if admission is not None:
            admission.on_capacity()
        for lease in list(self.leases):
            spare = self.spare_bytes()
            if spare is None or spare <= 0:
                break
            if lease.released or not lease._grow_subscribers:
                continue
            offer = min(lease.max_bytes - lease.total_bytes, spare)
            if offer <= 0:
                continue
            self._audit(DECISION_LEASE_GROW, lease.name,
                        granted_bytes=offer,
                        memory_total_bytes=lease.total_bytes + offer,
                        memory_used_bytes=lease.used_bytes)
            lease.grant(offer)
            self._publish()

    # -- observability ------------------------------------------------------
    def _audit(self, kind: str, subject: str, **fields: object) -> None:
        if self.telemetry is None:
            return
        time = self.sim.now if self.sim is not None else 0.0
        self.telemetry.audit.record(kind, subject, time, **fields)

    def _attach_gauges(self) -> None:
        if self.telemetry is None or not self.telemetry.registry.enabled:
            return
        registry = self.telemetry.registry
        prefix = f"broker.{self.name}"
        registry.gauge(f"{prefix}.pool_bytes").set(self.total_bytes or 0)
        self._leased_gauge = registry.gauge(f"{prefix}.leased_bytes")
        self._spare_gauge = registry.gauge(f"{prefix}.spare_bytes")
        self._active_gauge = registry.gauge(f"{prefix}.active_leases")
        self._publish()

    def _publish(self) -> None:
        if self._leased_gauge is None:
            return
        assert self._spare_gauge is not None and self._active_gauge is not None
        self._leased_gauge.set(self.leased_bytes)
        self._spare_gauge.set(self.spare_bytes() or 0)
        self._active_gauge.set(len(self.leases))

    def __repr__(self) -> str:
        pool = "unbounded" if self.total_bytes is None else self.total_bytes
        return (f"MemoryBroker({self.name!r}, pool={pool}, "
                f"{len(self.leases)} leases)")
