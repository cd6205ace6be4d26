"""The scheduler decision audit log.

Every adaptive decision the engine takes — PC degradation, MF stop, CF
creation, DQO memory split, re-optimization swap — is recorded as a
*typed* :class:`DecisionRecord` carrying the numbers that drove it: the
chain's critical degree, its benefit materialization indicator against
the threshold ``bmt``, the delivery-wait estimate, and the memory in use
at decision time.  "Checking the execution traces" (Section 5.3) then
becomes a structured query instead of string matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: decision kinds the runtime records.
DECISION_DEGRADE = "degrade"
DECISION_MF_STOP = "mf-stop"
DECISION_CF_CREATE = "cf-create"
DECISION_MEMORY_SPLIT = "memory-split"
DECISION_REOPT_SWAP = "reopt-swap"
#: decision kinds the resource-governance plane records.
DECISION_ADMIT = "admit"
DECISION_ADMISSION_QUEUE = "admission-queue"
DECISION_LEASE_GROW = "lease-grow"
DECISION_LEASE_SHRINK = "lease-shrink"


@dataclass(frozen=True)
class DecisionRecord:
    """One scheduler decision and the inputs it saw."""

    time: float
    kind: str
    #: the chain / fragment / join the decision is about.
    subject: str
    #: ``critical(p) = n_p * (w_p - c_p)`` at decision time (Section 4.3).
    critical: Optional[float] = None
    #: ``bmi(p) = w_p / (2 * IO_p)`` at decision time (Section 4.4).
    bmi: Optional[float] = None
    #: the benefit materialization threshold the bmi was compared against.
    bmt: Optional[float] = None
    #: estimated per-tuple waiting time ``w_p`` of the subject's source.
    wait_per_tuple: Optional[float] = None
    #: source tuples still to retrieve when the decision was taken.
    remaining_tuples: Optional[float] = None
    memory_used_bytes: Optional[int] = None
    memory_total_bytes: Optional[int] = None
    #: kind-specific extras (temp names, corrected cardinalities, ...).
    details: dict[str, Any] = field(default_factory=dict)

    def args(self) -> dict[str, Any]:
        """Non-None payload fields flattened for trace-instant export."""
        payload = {key: value for key, value in asdict(self).items()
                   if key not in ("time", "kind", "subject", "details")
                   and value is not None}
        payload.update(self.details)
        return payload

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionRecord":
        return cls(**data)

    def __str__(self) -> str:
        extras = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in self.args().items())
        return (f"[{self.time:12.6f}] {self.kind:<12} {self.subject}"
                + (f" ({extras})" if extras else ""))


#: typed fields of :class:`DecisionRecord` that callers may pass directly;
#: any other keyword lands in ``details``.
_TYPED_FIELDS = frozenset({
    "critical", "bmi", "bmt", "wait_per_tuple", "remaining_tuples",
    "memory_used_bytes", "memory_total_bytes",
})


class DecisionAuditLog:
    """Append-only log of :class:`DecisionRecord`.

    ``capacity`` bounds the log to the newest N records (a ring) — the
    always-on service sets it so an unbounded submission stream cannot
    grow the machine's audit log without limit.  One-shot runs keep the
    default unbounded list, so nothing a finished run reports changes.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self.records: "List[DecisionRecord] | deque[DecisionRecord]" = (
            [] if capacity is None else deque(maxlen=capacity))
        #: total records ever appended (>= len() once the ring wraps).
        self.appended = 0
        #: optional observer invoked after each appended record (the
        #: flight recorder hooks in here); must not raise.
        self.on_record: Optional[Callable[[DecisionRecord], None]] = None

    def record(self, kind: str, subject: str, time: float,
               details: Optional[Dict[str, Any]] = None,
               **fields: Any) -> DecisionRecord:
        """Append one decision.

        Keywords matching :class:`DecisionRecord`'s typed fields fill
        them; everything else is merged into ``details``.
        """
        typed = {key: value for key, value in fields.items()
                 if key in _TYPED_FIELDS}
        extras = {key: value for key, value in fields.items()
                  if key not in _TYPED_FIELDS}
        merged = {**(details or {}), **extras}
        record = DecisionRecord(time=time, kind=kind, subject=subject,
                                details=merged, **typed)
        self.records.append(record)
        self.appended += 1
        if self.on_record is not None:
            self.on_record(record)
        return record

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"DecisionAuditLog({len(self.records)} records)"
