"""Discrete-event simulation kernel and hardware resource models.

This package is the substrate the paper's prototype ran on: a virtual
machine with a CPU rated in MIPS, a single local disk, a network link and a
small LRU I/O cache (Table 1 of the paper).  The kernel itself
(:mod:`repro.sim.engine`) is a minimal generator-based process simulator in
the style of SimPy: processes yield events and the kernel resumes them when
those events trigger.  The event types and priorities it shares with the
wall-clock backend are :mod:`repro.exec`'s.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "engine": ("Simulator",),
    "resources": ("CPU", "Disk", "NetworkLink", "Resource", "Store"),
    "cache": ("LRUPageCache",),
    "stats": ("Counter", "TimeWeightedStat", "WelfordStat"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.sim.cache import LRUPageCache
    from repro.sim.engine import Simulator
    from repro.sim.resources import CPU, Disk, NetworkLink, Resource, Store
    from repro.sim.stats import Counter, TimeWeightedStat, WelfordStat
