"""The :class:`Kernel` protocol — what policy code may assume.

Everything the scheduling layers (DQO / DQS / DQP, runtime, mediator,
wrappers, observability) use from an execution backend is captured here:
a clock, event/timeout factories, generator processes and composite
waits.  ``run`` is the *driver's* entry point, not the policy layers'
— the virtual-time backend blocks until the event heap drains, the
asyncio backend returns an awaitable — so only engine front-ends call
it, and they know which backend they built.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Protocol, runtime_checkable

from repro.exec.core import AllOf, AnyOf, Process, ProcessGenerator, SimEvent, Timeout


@runtime_checkable
class Kernel(Protocol):
    """Structural contract of an execution backend.

    Implementations: :class:`repro.sim.engine.Simulator` (deterministic
    virtual time) and :class:`repro.exec.aio.AsyncioKernel` (wall clock
    over :mod:`asyncio`).  Policy code annotates kernels with this
    protocol and never imports a concrete backend.
    """

    #: current time in seconds.  Virtual-time backends jump it from event
    #: to event; real-time backends report seconds since ``run`` started.
    now: float

    @property
    def wall_now(self) -> float:
        """The clock external arrivals are stamped on: ``now`` in virtual
        time, the wall on a real-time backend."""
        ...

    def event(self, name: str = "") -> SimEvent:
        """A fresh pending one-shot event."""
        ...

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` seconds from now."""
        ...

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event that succeeds at kernel time ``when`` (not before
        ``now``): the deadline itself, with no ``now + delay`` rounding."""
        ...

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Drive ``generator`` as a process starting at the current time."""
        ...

    def elapse(self, delay: float) -> bool:
        """Advance ``now`` by ``delay`` in place, True, when the timeout
        it stands for would be the next event dispatched and would resume
        only the caller; else False, and the caller yields
        ``timeout(delay)`` (see :meth:`repro.exec.core.KernelBase.elapse`)."""
        ...

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        """Composite event: succeeds with the first child that succeeds."""
        ...

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        """Composite event: succeeds once all children have succeeded."""
        ...

    def run(self, until: Optional[float] = None) -> Any:
        """Drive events; semantics are backend-specific (see class docs)."""
        ...
