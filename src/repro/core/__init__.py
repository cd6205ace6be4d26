"""The paper's core contribution: dynamic query scheduling.

Architecture (Figure 4 of the paper):

* the **Dynamic QEP Optimizer** (:mod:`repro.core.dqo`) owns the QEP and
  handles events that invalidate it (memory overflow, timeouts);
* the **Dynamic Query Scheduler** (:mod:`repro.core.dqs`) turns the QEP
  plus runtime state into a *scheduling plan* — a totally ordered list of
  query fragments;
* the **Dynamic Query Processor** (:mod:`repro.core.dqp`) interleaves the
  scheduled fragments at batch granularity and returns interruption
  events up the chain.

The three components interact synchronously; wrappers and the
communication manager run as concurrent simulation processes.
:mod:`repro.core.engine` wires everything together and
:mod:`repro.core.strategies` provides SEQ / MA / DSE / LWB.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

_EXPORTS = {
    "events": (
        "EndOfQEP", "EndOfQF", "InterruptionEvent", "MemoryOverflow",
        "PhaseComplete", "RateChange", "TimeOut",
    ),
    "fragments": ("Fragment", "FragmentKind", "FragmentStatus"),
    "metrics": (
        "benefit_materialization_indicator",
        "chain_cpu_seconds_per_source_tuple", "critical_degree",
    ),
    "runtime": ("QueryRuntime", "World"),
    "engine": ("ExecutionResult", "QueryEngine"),
    "multiquery": (
        "MultiQueryEngine", "MultiQueryResult", "QueryOutcome",
        "QuerySubmission",
    ),
    "statistics": ("JoinObservation", "RuntimeStatistics"),
    "symmetric": (
        "SymmetricHashJoinEngine", "SymmetricPlan", "SymmetricResult",
    ),
    "dqs": ("DynamicQueryScheduler",),
    "dqp": ("SchedulingPlan", "DynamicQueryProcessor"),
    "dqo": ("DynamicQEPOptimizer",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.core.events import (
        EndOfQEP,
        EndOfQF,
        InterruptionEvent,
        MemoryOverflow,
        PhaseComplete,
        RateChange,
        TimeOut,
    )
    from repro.core.fragments import Fragment, FragmentKind, FragmentStatus
    from repro.core.metrics import (
        benefit_materialization_indicator,
        chain_cpu_seconds_per_source_tuple,
        critical_degree,
    )
    from repro.core.runtime import QueryRuntime, World
    from repro.core.engine import ExecutionResult, QueryEngine
    from repro.core.multiquery import (
        MultiQueryEngine,
        MultiQueryResult,
        QueryOutcome,
        QuerySubmission,
    )
    from repro.core.statistics import JoinObservation, RuntimeStatistics
    from repro.core.symmetric import (
        SymmetricHashJoinEngine,
        SymmetricPlan,
        SymmetricResult,
    )
    from repro.core.dqs import DynamicQueryScheduler
    from repro.core.dqp import DynamicQueryProcessor, SchedulingPlan
    from repro.core.dqo import DynamicQEPOptimizer
