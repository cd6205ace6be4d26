"""Unified resource-governance plane (memory broker + admission).

Memory in the mediator is governed hierarchically:

* :class:`MemoryBroker` — one global pool per mediator machine, leased
  out per query;
* :class:`MemoryLease` — one query's budget.  The lease is the leaf
  accounting layer (byte-accurate per-owner reservations; standalone,
  ``MemoryLease(bytes)`` is a static private budget);
* per-owner reservations — hash tables and in-memory temps reserve
  against the lease.

:class:`AdmissionController` queues query submissions whose minimum
working set does not fit the pool and admits them FIFO (or by priority)
as other leases release bytes.  When bytes return to the pool, the
broker *offers* them to running leases that subscribed to grow events —
the dynamic budget re-planning hook the DQS uses to convert degraded
pipeline chains back to directly-scheduled ones mid-flight.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "admission": (
        "ADMISSION_POLICIES", "AdmissionController", "AdmissionTicket",
        "check_governance",
    ),
    "broker": ("MemoryBroker", "MemoryLease"),
    "tenants": (
        "QuotaExceeded", "TenantAccount", "TenantRegistry", "TenantSpec",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.resources.admission import (
        ADMISSION_POLICIES,
        AdmissionController,
        AdmissionTicket,
        check_governance,
    )
    from repro.resources.broker import MemoryBroker, MemoryLease
    from repro.resources.tenants import (
        QuotaExceeded,
        TenantAccount,
        TenantRegistry,
        TenantSpec,
    )
