"""Exception hierarchy for the whole library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one type at the public API boundary.  Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A configuration object (simulation parameters, thresholds) is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class CatalogError(ReproError):
    """A catalog lookup failed or catalog contents are inconsistent."""


class PlanError(ReproError):
    """A query execution plan is malformed or violates a structural invariant."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan for the given query."""


class SchedulingError(ReproError):
    """The dynamic query scheduler reached an invalid state."""


class QueryTimeoutError(ReproError):
    """The engine stalled repeatedly with no data on any scheduled fragment.

    Raised when ``max_consecutive_timeouts`` is configured and exceeded —
    the point at which a full system would escalate to phase-2 query
    scrambling or abort the sub-query against the dead source.
    """

    def __init__(self, timeouts: int, stalled_for: float):
        self.timeouts = timeouts
        self.stalled_for = stalled_for
        super().__init__(
            f"engine stalled through {timeouts} consecutive timeouts "
            f"({stalled_for:.1f}s with no data on any scheduled fragment)")


class MemoryOverflowError(ReproError):
    """A pipeline chain was discovered to be not M-schedulable.

    Raised (or signalled) when a pipeline chain cannot run even alone within
    the query's memory budget; the dynamic QEP optimizer must then revise
    the plan (Section 4.2 of the paper).
    """

    def __init__(self, chain_name: str, required: int, available: int):
        self.chain_name = chain_name
        self.required = required
        self.available = available
        super().__init__(
            f"pipeline chain {chain_name!r} needs {required} bytes "
            f"but only {available} are available"
        )

    def __reduce__(self) -> tuple:
        # Rebuilt from its fields, so it crosses a process pool intact.
        return (type(self), (self.chain_name, self.required, self.available))
