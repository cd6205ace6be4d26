"""Multi-query admission control over the global memory pool.

A submission declares the memory it wants (``max``) and the minimum
working set it can start with (``min``).  When the pool's spare bytes
cannot cover the minimum, the submission *queues* instead of starting
degraded: the paper's per-query memory limitation becomes a mediator-
wide policy.  Queued submissions are admitted strictly head-of-line
(FIFO, or priority order with FIFO tie-break) as running queries release
their leases — head-of-line keeps a big query from being starved forever
by a stream of small ones.

The grant is ``min(max, max(min, spare))``: a query admitted into a
tight pool starts at what is actually spare (at least its minimum) and
relies on grow offers — :meth:`MemoryBroker._redistribute` — to reach
its maximum later.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.exec import Event, Kernel
from repro.observability.audit import DECISION_ADMISSION_QUEUE, DECISION_ADMIT
from repro.observability.telemetry import Telemetry
from repro.resources.broker import MemoryBroker, MemoryLease

#: admission orderings the controller understands.
ADMISSION_POLICIES = ("fifo", "priority")


@dataclass
class AdmissionTicket:
    """One submission's place in (or passage through) the queue."""

    name: str
    min_bytes: int
    max_bytes: int
    priority: float
    submitted_at: float
    seq: int
    #: owning tenant ("" for single-tenant front-ends).
    tenant: str = field(default="")
    #: True once a lease was granted; :attr:`lease` is then set.
    granted: bool = field(default=False)
    lease: Optional[MemoryLease] = field(default=None)
    #: succeeds at admission time; ``yield`` it to wait in the queue.
    event: Optional[Event] = field(default=None)
    admitted_at: Optional[float] = field(default=None)

    @property
    def waited(self) -> float:
        """Virtual seconds spent queued (0.0 for immediate admission)."""
        if self.admitted_at is None:
            return 0.0
        return self.admitted_at - self.submitted_at


class AdmissionController:
    """Queues submissions whose minimum working set does not fit."""

    def __init__(self, broker: MemoryBroker, sim: Kernel,
                 telemetry: Optional[Telemetry] = None,
                 policy: str = "fifo") -> None:
        if policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {policy!r}; "
                f"expected one of {ADMISSION_POLICIES}")
        self.broker = broker
        self.sim = sim
        self.telemetry = telemetry
        self.policy = policy
        self.queue: List[AdmissionTicket] = []
        self._seq = 0
        broker.attach_admission(self)

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def request(self, name: str, min_bytes: int, max_bytes: int,
                priority: float = 0.0, tenant: str = "") -> AdmissionTicket:
        """Ask for a lease; returns a ticket that is either granted
        immediately or queued (``yield ticket.event`` to wait)."""
        if min_bytes <= 0 or max_bytes < min_bytes:
            raise ConfigurationError(
                f"query {name!r}: need 0 < min <= max, "
                f"got min={min_bytes} max={max_bytes}")
        pool = self.broker.total_bytes
        if pool is not None and min_bytes > pool:
            raise ConfigurationError(
                f"query {name!r}: minimum working set {min_bytes} exceeds "
                f"the global memory pool {pool}; it could never be admitted")
        ticket = AdmissionTicket(name=name, min_bytes=min_bytes,
                                 max_bytes=max_bytes, priority=priority,
                                 submitted_at=self.sim.now, seq=self._seq,
                                 tenant=tenant)
        self._seq += 1
        if self.policy == "priority":
            # Kept in this order; ``seq`` makes every key unique.
            insort(self.queue, ticket, key=lambda t: (-t.priority, t.seq))
        else:
            self.queue.append(ticket)
        self._drain()
        if not ticket.granted:
            ticket.event = self.sim.event(name=f"admit:{name}")
            self._audit(DECISION_ADMISSION_QUEUE, ticket,
                        queue_depth=len(self.queue))
        return ticket

    def on_capacity(self) -> None:
        """Broker callback: spare bytes appeared, admit what now fits."""
        self._drain()

    def _drain(self) -> None:
        """Admit strictly head-of-line while the head's minimum fits."""
        while self.queue and self._fits(self.queue[0]):
            self._grant(self.queue.pop(0))

    def _fits(self, ticket: AdmissionTicket) -> bool:
        spare = self.broker.spare_bytes()
        return spare is None or ticket.min_bytes <= spare

    def _grant(self, ticket: AdmissionTicket) -> None:
        spare = self.broker.spare_bytes()
        if spare is None:
            granted = ticket.max_bytes
        else:
            granted = min(ticket.max_bytes, max(ticket.min_bytes, spare))
        ticket.lease = self.broker.lease(ticket.name, granted,
                                         min_bytes=ticket.min_bytes,
                                         max_bytes=ticket.max_bytes,
                                         tenant=ticket.tenant)
        ticket.granted = True
        ticket.admitted_at = self.sim.now
        self._audit(DECISION_ADMIT, ticket, granted_bytes=granted,
                    waited=ticket.waited)
        if ticket.event is not None:
            ticket.event.succeed()

    def _audit(self, kind: str, ticket: AdmissionTicket,
               **fields: object) -> None:
        if self.telemetry is None:
            return
        if ticket.tenant:
            fields["tenant"] = ticket.tenant
        self.telemetry.audit.record(
            kind, ticket.name, self.sim.now,
            min_bytes=ticket.min_bytes, max_bytes=ticket.max_bytes,
            **fields)

    def __repr__(self) -> str:
        return (f"AdmissionController({self.policy}, "
                f"{len(self.queue)} queued)")


def check_governance(pool_bytes: Optional[int], policy: str) -> bool:
    """Validate a machine's memory-governance settings; True when they
    bound its pool (a pool size *and* an admission policy)."""
    if policy not in ADMISSION_POLICIES + ("none",):
        raise ConfigurationError(
            f"unknown admission policy {policy!r}; expected one of "
            f"{ADMISSION_POLICIES + ('none',)}")
    if pool_bytes is not None and pool_bytes <= 0:
        raise ConfigurationError(
            f"global_memory_bytes must be positive, got {pool_bytes}")
    return pool_bytes is not None and policy != "none"
