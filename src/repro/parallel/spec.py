"""Self-contained, serializable descriptions of one simulation run.

A spec carries everything a worker process needs to *rebuild* a run from
scratch — workload scale, delay-model parameters, the full
:class:`~repro.config.SimulationParameters` and the seed — instead of
pickling live catalog/QEP object graphs.  That buys three things at
once: the spec is cheap to ship to a pool worker, its canonical JSON
form is the content-address of the run cache, and a run rebuilt from it
is bit-identical to the serial execution (each run constructs its own
``World`` from its own seed; nothing leaks between runs).

Two spec kinds cover every sweep in the repository:

* :class:`RunSpec` — one ``(workload, strategy, seed)`` single-query
  execution (Figures 6/7/8, the ablations);
* :class:`MultiQuerySpec` — one Section 6 multi-query batch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.results import (
    RESULT_SCHEMA_VERSION,
    multiquery_result_from_payload,
    multiquery_result_to_payload,
    result_from_payload,
    result_to_payload,
)
from repro.wrappers.delays import (
    BurstyDelay,
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    InitialDelay,
    NormalDelay,
    UniformDelay,
)

# -- delay-model specs ------------------------------------------------------

def delay_from_spec(spec: dict[str, Any]) -> DelayModel:
    """Build a fresh delay model from its serializable spec (a dict
    with a ``kind`` key and that model's parameters)."""
    kind = spec.get("kind")
    if kind == "constant":
        return ConstantDelay(spec["w"])
    if kind == "uniform":
        return UniformDelay(spec["w"])
    if kind == "exponential":
        return ExponentialDelay(spec["w"])
    if kind == "normal":
        return NormalDelay(spec["mean"], spec["std"])
    if kind == "initial":
        return InitialDelay(spec["initial"], delay_from_spec(spec["base"]))
    if kind == "bursty":
        return BurstyDelay(spec["burst_tuples"], spec["gap"], spec["within"])
    raise ConfigurationError(f"unknown delay spec {spec!r}")


def uniform_delay_specs(waits: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Per-relation uniform-delay specs (the experiments' default model)."""
    return {name: {"kind": "uniform", "w": wait}
            for name, wait in waits.items()}


def _canonical_key(identity: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON identity + code fingerprint."""
    blob = json.dumps(
        {"identity": identity,
         "schema": RESULT_SCHEMA_VERSION,
         "code": code_fingerprint()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- single-query runs ------------------------------------------------------

@dataclass
class RunSpec:
    """One ``(workload, delays, strategy, seed)`` simulation run."""

    strategy: str
    seed: int
    #: Figure 5 workload parameters (the QEP is rebuilt from these).
    scale: float
    delays: dict[str, dict[str, Any]]
    params: SimulationParameters = field(default_factory=SimulationParameters)
    tuple_size: int = 40

    def identity(self) -> dict[str, Any]:
        """Canonical JSON identity — every input the result depends on."""
        return {
            "kind": "run",
            "strategy": self.strategy.upper(),
            "seed": self.seed,
            "workload": {"family": "figure5", "scale": self.scale,
                         "tuple_size": self.tuple_size},
            "delays": self.delays,
            "params": asdict(self.params),
        }

    def cache_key(self) -> str:
        return _canonical_key(self.identity())

    def execute(self):
        """Run once in-process; returns the full ExecutionResult."""
        from repro.core.engine import QueryEngine
        from repro.core.strategies import make_policy
        from repro.experiments.workloads import figure5_workload

        workload = figure5_workload(tuple_size=self.tuple_size,
                                    scale=self.scale)
        missing = set(workload.relation_names) - set(self.delays)
        if missing:
            raise ConfigurationError(
                f"run spec has no delay for relation(s) {sorted(missing)}")
        delay_models = {name: delay_from_spec(spec)
                        for name, spec in self.delays.items()}
        engine = QueryEngine(workload.catalog, workload.qep,
                             make_policy(self.strategy), delay_models,
                             params=self.params, seed=self.seed)
        return engine.run()

    def execute_payload(self) -> dict[str, Any]:
        """Run once and flatten the result (worker-side entry point)."""
        return result_to_payload(self.execute())

    @staticmethod
    def result_from_payload(payload: dict[str, Any]):
        return result_from_payload(payload)


# -- multi-query batches ----------------------------------------------------

@dataclass
class MultiQuerySpec:
    """One Section 6 batch: ``n`` staggered copies of the Figure 5 query."""

    strategy: str
    wait: float
    num_queries: int
    seed: int
    scale: float
    inter_arrival: float = 0.0
    params: SimulationParameters = field(default_factory=SimulationParameters)
    tuple_size: int = 40
    #: per-query initial budget override (None: params.query_memory_bytes).
    memory_bytes: int | None = None
    #: per-query lease bounds (None: pinned to the initial budget).
    min_memory_bytes: int | None = None
    max_memory_bytes: int | None = None
    #: global mediator pool; None runs ungoverned (unbounded pool).
    global_memory_bytes: int | None = None
    #: admission policy when governed ("fifo" / "priority" / "none").
    admission: str = "fifo"

    def identity(self) -> dict[str, Any]:
        return {
            "kind": "multiquery",
            "strategy": self.strategy.upper(),
            "wait": self.wait,
            "num_queries": self.num_queries,
            "inter_arrival": self.inter_arrival,
            "seed": self.seed,
            "workload": {"family": "figure5", "scale": self.scale,
                         "tuple_size": self.tuple_size},
            "params": asdict(self.params),
            "memory": {"query": self.memory_bytes,
                       "min": self.min_memory_bytes,
                       "max": self.max_memory_bytes,
                       "global": self.global_memory_bytes,
                       "admission": self.admission},
        }

    def cache_key(self) -> str:
        return _canonical_key(self.identity())

    def execute(self):
        """Run the batch in-process; returns the full MultiQueryResult."""
        from repro.core.multiquery import MultiQueryEngine, QuerySubmission
        from repro.core.strategies import make_policy
        from repro.experiments.workloads import figure5_workload

        workload = figure5_workload(tuple_size=self.tuple_size,
                                    scale=self.scale)
        engine = MultiQueryEngine(
            params=self.params, seed=self.seed,
            global_memory_bytes=self.global_memory_bytes,
            admission=self.admission)
        for i in range(self.num_queries):
            engine.submit(QuerySubmission(
                name=f"{self.strategy}-{i}",
                catalog=workload.catalog,
                qep=workload.qep,
                policy=make_policy(self.strategy),
                delay_models={name: UniformDelay(self.wait)
                              for name in workload.relation_names},
                start_time=i * self.inter_arrival,
                memory_bytes=self.memory_bytes,
                min_memory_bytes=self.min_memory_bytes,
                max_memory_bytes=self.max_memory_bytes))
        return engine.run()

    def execute_payload(self) -> dict[str, Any]:
        return multiquery_result_to_payload(self.execute())

    @staticmethod
    def result_from_payload(payload: dict[str, Any]):
        return multiquery_result_from_payload(payload)
