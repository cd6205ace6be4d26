"""Backend-neutral execution kernel.

The scheduling layers of this reproduction (DQO / DQS / DQP, the
mediator, the wrappers) are *policy*; how tuples actually arrive and how
time advances is *mechanism*.  This package defines the mechanism
contract:

* :class:`Kernel` — the structural protocol every backend satisfies:
  ``now``, ``event()``, ``timeout()``, ``process()``, ``any_of()``,
  ``all_of()``, ``run()`` plus the ``PRIORITY_*`` constants;
* :class:`KernelBase` + the event machinery (:class:`SimEvent`,
  :class:`Timeout`, :class:`AnyOf`, :class:`AllOf`, :class:`Process`)
  shared by every backend;
* :class:`repro.sim.engine.Simulator` — the deterministic virtual-time
  backend (events at equal times processed in (priority, insertion)
  order; seeded runs are bit-identical);
* :class:`repro.exec.aio.AsyncioKernel` — the wall-clock backend that
  drives the *same* generator processes on top of :mod:`asyncio`
  (imported lazily; see :mod:`repro.exec.aio`).

Policy code imports event types and priorities from here and annotates
kernels as :class:`Kernel`; it must never import a concrete backend.
"""

from repro.exec.api import Kernel
from repro.exec.core import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    KernelBase,
    Process,
    SimEvent,
    Timeout,
)

#: preferred backend-neutral alias for :class:`SimEvent`.
Event = SimEvent

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Kernel",
    "KernelBase",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "SimEvent",
    "Timeout",
]
