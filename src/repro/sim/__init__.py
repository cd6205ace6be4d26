"""Discrete-event simulation kernel and hardware resource models.

This package is the substrate the paper's prototype ran on: a virtual
machine with a CPU rated in MIPS, a single local disk, a network link and a
small LRU I/O cache (Table 1 of the paper).  The kernel itself
(:mod:`repro.sim.engine`) is a minimal generator-based process simulator in
the style of SimPy: processes yield events and the kernel resumes them when
those events trigger.
"""

from repro.exec.core import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Process,
    SimEvent,
    Timeout,
)
from repro.sim.engine import Simulator
from repro.sim.resources import CPU, Disk, NetworkLink, Resource, Store
from repro.sim.cache import LRUPageCache
from repro.sim.stats import Counter, TimeWeightedStat, WelfordStat

__all__ = [
    "AllOf",
    "AnyOf",
    "CPU",
    "Counter",
    "Disk",
    "LRUPageCache",
    "NetworkLink",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "Resource",
    "SimEvent",
    "Simulator",
    "Store",
    "TimeWeightedStat",
    "Timeout",
    "WelfordStat",
]
