"""Physical operators and join specifications.

Operators are *descriptions*: the runtime charges their CPU/memory costs
during simulation, but operators themselves hold only static structure and
cardinality estimates.  All operators are unary at this level — the binary
hash join appears as a :class:`MatOp` (hash-table build, the blocking
side) in the producer chain and a :class:`ProbeOp` in the consumer chain,
mirroring how the paper splits a QEP at blocking edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import PlanError


@dataclass
class JoinSpec:
    """One hash join of the QEP.

    ``estimated_build_cardinality`` / ``estimated_output_cardinality`` come
    from the optimizer's annotations; the matching ``actual_*`` values are
    what the simulation really produces (they differ when the workload
    injects estimation error).  ``fanout`` is the number of result tuples
    produced per probe-input tuple.
    """

    name: str
    build_relations: tuple[str, ...]
    probe_relations: tuple[str, ...]
    #: product of the selectivities of the join edges crossing between the
    #: build and probe sides; per probe tuple, the expected number of
    #: matches is ``crossing_selectivity * build_cardinality``.
    crossing_selectivity: float
    estimated_build_cardinality: float = 0.0
    estimated_probe_cardinality: float = 0.0
    estimated_output_cardinality: float = 0.0
    actual_build_cardinality: Optional[float] = None
    actual_probe_cardinality: Optional[float] = None
    actual_output_cardinality: Optional[float] = None
    #: multiplier on the actual fanout relative to the estimate — the
    #: workload's injected estimation error (1.0 = estimates are exact).
    actual_fanout_factor: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise PlanError("join needs a name")
        if set(self.build_relations) & set(self.probe_relations):
            raise PlanError(f"join {self.name}: build and probe sides overlap")
        if not 0.0 < self.crossing_selectivity <= 1.0:
            raise PlanError(f"join {self.name}: crossing selectivity must be "
                            f"in (0, 1], got {self.crossing_selectivity}")
        if self.actual_build_cardinality is None:
            self.actual_build_cardinality = self.estimated_build_cardinality
        if self.actual_probe_cardinality is None:
            self.actual_probe_cardinality = self.estimated_probe_cardinality
        if self.actual_output_cardinality is None:
            self.actual_output_cardinality = self.estimated_output_cardinality

    def estimated_fanout(self) -> float:
        """Estimated result tuples per probe-input tuple."""
        return self.crossing_selectivity * self.estimated_build_cardinality

    def actual_fanout(self) -> float:
        """Actual result tuples per probe-input tuple (the simulation truth)."""
        return (self.crossing_selectivity * self.actual_build_cardinality
                * self.actual_fanout_factor)

    def __str__(self) -> str:
        return (f"{self.name}(build={{{','.join(self.build_relations)}}}, "
                f"probe={{{','.join(self.probe_relations)}}})")


@dataclass
class Operator:
    """Base physical operator.

    ``estimated_input_cardinality`` / ``estimated_output_cardinality`` are
    per-execution totals; ``memory_bytes`` is the operator's ``mem(op)``
    annotation used for M-schedulability (Section 4.1).
    """

    name: str
    estimated_input_cardinality: float = 0.0
    estimated_output_cardinality: float = 0.0
    memory_bytes: int = 0

    def __str__(self) -> str:
        return self.name


@dataclass
class ScanOp(Operator):
    """Consume tuples from a wrapper (or a temp relation after degradation).

    ``scan_selectivity`` models a local selection applied on arrival; the
    paper ignores it in the bmi formula "for ease of presentation" but the
    operator supports it.
    """

    relation: str = ""
    scan_selectivity: float = 1.0

    def __post_init__(self):
        if not self.relation:
            raise PlanError("scan needs a relation")
        if not 0.0 < self.scan_selectivity <= 1.0:
            raise PlanError(f"scan selectivity must be in (0,1], "
                            f"got {self.scan_selectivity}")


@dataclass
class ProbeOp(Operator):
    """Probe the hash table of ``join`` with incoming tuples (pipelined)."""

    join: Optional[JoinSpec] = None

    def __post_init__(self):
        if self.join is None:
            raise PlanError("probe needs a join spec")


@dataclass
class MatOp(Operator):
    """Materialize incoming tuples.

    Two flavours, as in the paper:

    * ``join`` set — the *hash-table build* feeding that join's blocking
      input; lives in query memory (``memory_bytes`` = table size).
    * ``join`` None — a temp-relation materialization (disk or memory,
      buffer manager decides); used by PC degradation and by the DQO when
      splitting a chain that does not fit in memory.
    """

    join: Optional[JoinSpec] = None


@dataclass
class OutputOp(Operator):
    """Deliver final result tuples to the user (root of the QEP)."""
