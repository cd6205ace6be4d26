"""SEQ: the classical iterator-model execution (Section 2.3).

One pipeline chain at a time, in the QEP's iterator order; the engine
consumes a wrapper entirely before touching the next one, and therefore
stalls whenever the current wrapper is slow.  The paper uses SEQ as the
baseline "when nothing is done to handle unpredictable data delivery".
"""

from __future__ import annotations

from repro.core.dqs import PlanningPolicy
from repro.core.fragments import Fragment
from repro.core.runtime import QueryRuntime


class SequentialPolicy(PlanningPolicy):
    """Schedule exactly one fragment: the next one in iterator order."""

    name = "SEQ"
    wants_rate_events = False

    def select(self, runtime: QueryRuntime) -> list[Fragment]:
        fragment = runtime.next_in_iterator_order()
        return [fragment] if fragment is not None else []
