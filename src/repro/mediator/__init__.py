"""Mediator runtime: communication manager, queues, buffers, memory.

The communication manager (Section 3.1) receives messages from wrappers
into per-source bounded queues — the "window protocol" that suspends a
wrapper when its queue is full — and maintains delivery-rate estimates,
signalling significant changes to the engine.  The buffer manager owns
temp relations on the local disk (write-behind and prefetch through the
I/O cache) and the memory manager accounts hash-table memory for
M-schedulability checks.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "queues": ("Message", "SourceQueue"),
    "rates": ("DeliveryRateEstimator",),
    "comm": ("CommunicationManager",),
    "buffer": (
        "BufferManager", "HashTable", "TempReader", "TempRelation",
        "TempWriter",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.mediator.queues import Message, SourceQueue
    from repro.mediator.rates import DeliveryRateEstimator
    from repro.mediator.comm import CommunicationManager
    from repro.mediator.buffer import (
        BufferManager,
        HashTable,
        TempReader,
        TempRelation,
        TempWriter,
    )
