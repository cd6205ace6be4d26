"""Multi-query throughput vs response time (the paper's Section 6).

"As soon as we consider such context, we face the classical tradeoff
between throughput and response time.  Indeed, our strategy can reduce
significantly the response time at the expense of a potential increase
of total work."

:func:`run_multiquery_experiment` submits ``n`` copies of the Figure 5
query, staggered by a fixed inter-arrival time, with every query using
the same strategy, and reports per-strategy mean response time, makespan
and throughput.  Sweeping the per-tuple wait shows both regimes: with a
CPU-saturated mediator and fast sources, DSE's extra materialization
work costs throughput; with slow sources there is idle time to reclaim
and DSE wins on both metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.config import SimulationParameters
from repro.core.multiquery import MultiQueryResult
from repro.experiments.workloads import Figure5Workload
from repro.parallel.engine import SweepRunner
from repro.parallel.spec import MultiQuerySpec


@dataclass
class ThroughputPoint:
    """One strategy's aggregate behaviour for a query batch."""

    strategy: str
    wait: float
    num_queries: int
    mean_response: float
    max_response: float
    makespan: float
    throughput: float
    cpu_utilization: float
    result: MultiQueryResult
    #: global mediator pool the batch ran under (None: ungoverned).
    global_memory_bytes: Optional[int] = None
    #: queries the admission controller made wait before starting.
    queued_queries: int = 0
    #: mean admission-queue wait across all queries in the batch.
    mean_admission_wait: float = 0.0

    #: the column names of :meth:`row`.
    HEADERS = ("strategy", "w_us", "pool", "mean_resp_s", "makespan_s",
               "queries_per_s", "cpu", "queued", "mean_wait_s")

    def row(self) -> list[str]:
        pool = ("inf" if self.global_memory_bytes is None
                else f"{self.global_memory_bytes // 1024}K")
        return [self.strategy, f"{self.wait * 1e6:.0f}", pool,
                f"{self.mean_response:.3f}", f"{self.makespan:.3f}",
                f"{self.throughput:.3f}", f"{self.cpu_utilization:.0%}",
                f"{self.queued_queries}", f"{self.mean_admission_wait:.3f}"]


def run_multiquery_experiment(workload: Figure5Workload,
                              strategies: list[str],
                              waits: list[float],
                              params: SimulationParameters,
                              num_queries: int = 4,
                              inter_arrival: float = 0.0,
                              seed: int = 0,
                              runner: Optional[SweepRunner] = None,
                              global_memories: Optional[
                                  list[Optional[int]]] = None,
                              admission: str = "fifo",
                              memory_bytes: Optional[int] = None,
                              min_memory_bytes: Optional[int] = None,
                              max_memory_bytes: Optional[int] = None,
                              ) -> list[ThroughputPoint]:
    """Run the batch for every (strategy, wait, global pool) combination.

    Each combination is an independent multi-query simulation, so all of
    them go to ``runner`` as one flat batch (sharded / cached) and fold
    back in ``(pool, wait, strategy)`` order.  ``global_memories`` adds
    the resource-governance axis: each entry is a mediator-wide memory
    pool (``None`` for the classic ungoverned run) under which the whole
    batch competes for leases through the admission controller, exposing
    the throughput cost of queueing versus the response-time cost of
    thrashing.
    """
    if num_queries < 1:
        raise ConfigurationError(f"need >= 1 query, got {num_queries}")
    if not (math.isfinite(inter_arrival) and inter_arrival >= 0):
        raise ConfigurationError(
            f"inter_arrival must be finite and >= 0, got {inter_arrival}")
    runner = runner if runner is not None else SweepRunner()
    pools: list[Optional[int]] = (
        global_memories if global_memories else [None])
    specs = [
        MultiQuerySpec(strategy=strategy, wait=wait,
                       num_queries=num_queries, seed=seed,
                       scale=workload.scale, inter_arrival=inter_arrival,
                       params=params, tuple_size=workload.tuple_size,
                       memory_bytes=memory_bytes,
                       min_memory_bytes=min_memory_bytes,
                       max_memory_bytes=max_memory_bytes,
                       global_memory_bytes=pool,
                       admission=admission if pool is not None else "none")
        for pool in pools
        for wait in waits
        for strategy in strategies
    ]
    results = runner.run(specs)
    return [
        ThroughputPoint(
            strategy=spec.strategy,
            wait=spec.wait,
            num_queries=num_queries,
            mean_response=result.mean_response_time,
            max_response=result.max_response_time,
            makespan=result.makespan,
            throughput=result.throughput,
            cpu_utilization=result.cpu_utilization,
            result=result,
            global_memory_bytes=spec.global_memory_bytes,
            queued_queries=result.queued_queries,
            mean_admission_wait=result.mean_admission_wait)
        for spec, result in zip(specs, results)
    ]
