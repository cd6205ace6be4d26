"""repro — a reproduction of *Dynamic Query Scheduling in Data
Integration Systems* (Bouganim, Fabret, Mohan, Valduriez; ICDE 2000).

The package implements the paper's mediator query engine over a
discrete-event simulation of the mediator machine and its remote
sources, including:

* the dynamic scheduling strategy (**DSE**) built from a Dynamic QEP
  Optimizer, Dynamic Query Scheduler and Dynamic Query Processor;
* the baselines it is evaluated against (**SEQ**, **MA**) and the
  analytic lower bound (**LWB**);
* every substrate: simulation kernel, resource models, catalog,
  query/plan model, dynamic-programming optimizer, simulated wrappers
  with the paper's delay taxonomy, and the mediator runtime.

Quickstart
----------
>>> from repro import (SimulationParameters, QueryEngine, make_policy,
...                    UniformDelay)
>>> from repro.experiments import figure5_workload
>>> wl = figure5_workload()
>>> params = SimulationParameters()
>>> delays = {name: UniformDelay(params.w_min) for name in wl.qep.source_relations()}
>>> engine = QueryEngine(wl.catalog, wl.qep, make_policy("DSE"), delays,
...                      params=params, seed=1)
>>> result = engine.run()
>>> result.result_tuples > 0
True
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "catalog.schema": ("Attribute", "Relation"),
    "catalog.catalog": ("Catalog",),
    "catalog.statistics": ("JoinStatistics",),
    "config": ("SimulationParameters", "W_MIN_DEFAULT"),
    "common.errors": (
        "CatalogError", "ConfigurationError", "MemoryOverflowError",
        "OptimizerError", "PlanError", "QueryTimeoutError", "ReproError",
        "SchedulingError", "SimulationError",
    ),
    "core.engine": ("ExecutionResult", "QueryEngine"),
    "core.multiquery": (
        "MultiQueryEngine", "MultiQueryResult", "QueryOutcome",
        "QuerySubmission",
    ),
    "core.statistics": ("RuntimeStatistics",),
    "core.symmetric": ("SymmetricHashJoinEngine", "SymmetricResult"),
    "core.strategies.concurrent": ("ConcurrentOnlyPolicy",),
    "core.strategies.dse": ("DsePolicy",),
    "core.strategies.ma": ("MaterializeAllPolicy",),
    "core.strategies.seq": ("SequentialPolicy",),
    "core.strategies.lwb": ("lower_bound",),
    "core.strategies": ("make_policy",),
    "observability.audit": ("DecisionAuditLog", "DecisionRecord"),
    "observability.registry": ("MetricsRegistry",),
    "observability.sampling": ("SamplePoint",),
    "observability.stalls": ("StallAttribution",),
    "observability.telemetry": ("Telemetry",),
    "observability.export": ("telemetry_snapshot",),
    "optimizer.cost": ("CostModel",),
    "optimizer.dp": ("DynamicProgrammingOptimizer",),
    "resources.admission": ("AdmissionController",),
    "resources.broker": ("MemoryBroker", "MemoryLease"),
    "plan.qep": ("QEP", "PipelineChain"),
    "plan.builder": ("build_qep",),
    "plan.validation": ("validate_qep",),
    "query.tree": ("JoinTree", "Query"),
    "query.generator": ("QueryGenerator",),
    "wrappers.delays": (
        "BurstyDelay", "ConstantDelay", "DelayModel", "ExponentialDelay",
        "InitialDelay", "NormalDelay", "UniformDelay",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.catalog import Attribute, Catalog, JoinStatistics, Relation
    from repro.config import SimulationParameters, W_MIN_DEFAULT
    from repro.common import (
        CatalogError,
        ConfigurationError,
        MemoryOverflowError,
        OptimizerError,
        PlanError,
        QueryTimeoutError,
        ReproError,
        SchedulingError,
        SimulationError,
    )
    from repro.core import (
        ExecutionResult,
        MultiQueryEngine,
        MultiQueryResult,
        QueryEngine,
        QueryOutcome,
        QuerySubmission,
        RuntimeStatistics,
        SymmetricHashJoinEngine,
        SymmetricResult,
    )
    from repro.core.strategies import (
        ConcurrentOnlyPolicy,
        DsePolicy,
        MaterializeAllPolicy,
        SequentialPolicy,
        lower_bound,
        make_policy,
    )
    from repro.observability import (
        DecisionAuditLog,
        DecisionRecord,
        MetricsRegistry,
        SamplePoint,
        StallAttribution,
        Telemetry,
        telemetry_snapshot,
    )
    from repro.optimizer import CostModel, DynamicProgrammingOptimizer
    from repro.resources import AdmissionController, MemoryBroker, MemoryLease
    from repro.plan import QEP, PipelineChain, build_qep, validate_qep
    from repro.query import JoinTree, Query, QueryGenerator
    from repro.wrappers import (
        BurstyDelay,
        ConstantDelay,
        DelayModel,
        ExponentialDelay,
        InitialDelay,
        NormalDelay,
        UniformDelay,
    )
