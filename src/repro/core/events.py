"""Interruption events (Section 3.1).

The DQP returns an interruption event to the DQS when an execution phase
must end; the DQS handles it or passes it to the DQO.  "Normal"
interruptions signal the end of a query fragment or of the whole QEP;
"abnormal" interruptions signal a significant change that may invalidate
the scheduling plan (RateChange), a stalled engine (TimeOut) or a memory
problem only the DQO can fix (MemoryOverflow).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InterruptionEvent:
    """Base class for every interruption returned by the DQP."""

    time: float


@dataclass(frozen=True)
class EndOfQF(InterruptionEvent):
    """A scheduled query fragment terminated (normal; handled by the DQS)."""

    fragment_name: str = ""


@dataclass(frozen=True)
class EndOfQEP(InterruptionEvent):
    """The whole plan terminated (normal; handled by the DQO)."""

    result_tuples: int = 0


@dataclass(frozen=True)
class PhaseComplete(InterruptionEvent):
    """Every fragment of the current SP is done but the QEP is not.

    Normal; the DQS must plan the next phase (typically fragments that
    just became C-schedulable).
    """


@dataclass(frozen=True)
class RateChange(InterruptionEvent):
    """Some source's delivery rate moved significantly (DQS replans)."""

    source: str = ""
    old_wait: float = 0.0
    new_wait: float = 0.0


@dataclass(frozen=True)
class BudgetGrow(InterruptionEvent):
    """The query's memory lease grew (broker offered reclaimed bytes).

    The DQS replans against the larger budget: a chain degraded for
    memory whose build table now fits gets its MF stopped and resumes
    direct scheduling (partial materialization, Section 4.4 — but
    triggered by a *grown* budget rather than a schedulability change).
    """

    granted_bytes: int = 0
    total_bytes: int = 0


@dataclass(frozen=True)
class TimeOut(InterruptionEvent):
    """The DQP stalled with no data on any scheduled fragment (DQO)."""

    stalled_for: float = 0.0


@dataclass(frozen=True)
class MemoryOverflow(InterruptionEvent):
    """A fragment cannot proceed within the memory budget (DQO).

    ``pending_tuples`` is the batch that could not be inserted into the
    overflowing hash table; the DQO's revision must dispose of it.
    """

    fragment_name: str = ""
    join_name: str = ""
    pending_tuples: int = 0
    required_bytes: int = 0
    available_bytes: int = 0
