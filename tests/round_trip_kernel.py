"""Kernels that never wait in place: every wait goes through the heap.

:meth:`repro.exec.core.KernelBase.elapse` lets a process skip the push,
pop and resumption of a timeout that would be the kernel's very next
event.  These subclasses refuse every such request, so the callers fall
back to ``yield timeout(delay)`` and each wait costs its kernel event as
it did before waits were taken in place: the oracle the in-place kernels
are diffed against (``tests/test_in_place_waits.py``).  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

from repro.exec.aio import AsyncioKernel
from repro.sim.engine import Simulator


class _RoundTrip:
    """Mixin: no wait is ever taken in place."""

    def elapse(self, delay: float) -> bool:
        return False


class RoundTripSimulator(_RoundTrip, Simulator):
    pass


class RoundTripAsyncioKernel(_RoundTrip, AsyncioKernel):
    pass
