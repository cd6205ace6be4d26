"""Shared fixtures: small catalogs, scaled workloads, fast parameters."""

from __future__ import annotations

import pytest

from repro.catalog import Catalog, JoinStatistics, Relation
from repro.config import SimulationParameters
from repro.experiments import figure5_workload
from repro.plan import build_qep
from repro.query import JoinTree, Query
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def params() -> SimulationParameters:
    """Default Table 1 parameters."""
    return SimulationParameters()


@pytest.fixture
def small_catalog() -> Catalog:
    """Three tiny relations joined in a chain R-S-T."""
    stats = JoinStatistics({
        ("R", "S"): 1.0 / 1000,
        ("S", "T"): 1.0 / 2000,
    })
    return Catalog([
        Relation("R", 1000),
        Relation("S", 2000),
        Relation("T", 1500),
    ], stats)


@pytest.fixture
def small_query(small_catalog) -> Query:
    return Query(small_catalog, ["R", "S", "T"])


@pytest.fixture
def small_tree() -> JoinTree:
    """((R ⋈ S) ⋈ T) with builds on the left."""
    return JoinTree.join(
        JoinTree.join(JoinTree.leaf("R"), JoinTree.leaf("S")),
        JoinTree.leaf("T"))


@pytest.fixture
def small_qep(small_catalog, small_tree):
    return build_qep(small_catalog, small_tree)


@pytest.fixture
def tiny_fig5():
    """The Figure 5 workload at 2% scale (runs in milliseconds)."""
    return figure5_workload(scale=0.02)


@pytest.fixture
def mini_fig5():
    """The Figure 5 workload at 10% scale (still fast, more realistic)."""
    return figure5_workload(scale=0.1)


@pytest.fixture
def give_up_params() -> SimulationParameters:
    """A dead source stalls the engine: bound the TimeOut loop so the
    simulation drains and reports the death instead of spinning."""
    return SimulationParameters(timeout=0.05, max_consecutive_timeouts=2)


@pytest.fixture
def breaking_delays():
    """``breaking_delays(workload, params)``: uniform delay models where
    relation A's simulated source dies after two messages."""
    from repro.wrappers import UniformDelay

    class BreakingDelay(UniformDelay):
        def __init__(self, mean, after=2):
            super().__init__(mean)
            self.after = after
            self.messages = 0

        def reset(self):
            self.messages = 0

        def waiting_times(self, count, rng):
            self.messages += 1
            if self.messages > self.after:
                raise RuntimeError("source broke mid-stream")
            return super().waiting_times(count, rng)

    def delays(workload, params):
        models = {name: UniformDelay(params.w_min)
                  for name in workload.relation_names}
        models["A"] = BreakingDelay(params.w_min)
        return models
    return delays


@pytest.fixture
def breaking_source():
    """``breaking_source(make, after=2)`` wraps a live batch-source
    factory so its stream raises after ``after`` batches — a source
    that dies mid-stream."""
    def wrap(make, after=2):
        async def stream():
            shipped = 0
            async for count in make():
                if shipped == after:
                    raise RuntimeError("source broke mid-stream")
                shipped += 1
                yield count
        return stream
    return wrap


@pytest.fixture
def pending_feeders():
    """``pending_feeders()`` lists the live-wrapper feeder tasks still
    running on the current loop."""
    import asyncio

    def pending():
        return [task for task in asyncio.all_tasks()
                if not task.done() and getattr(
                    task.get_coro(), "__qualname__", "")
                == "LiveWrapper._feed"]
    return pending


@pytest.fixture
def break_service_source(monkeypatch, breaking_source):
    """``break_service_source(how)`` makes one source of every service
    submission die: ``"mid-stream"`` the largest relation after its
    first batch (submit at a scale that gives it more than one),
    ``"at-open"`` the last one before its first.  Patches the one place
    both service front-ends (in-process backend, worker host) build
    their source factories."""
    from repro.service import service as service_module

    real = service_module.submission_sources

    def install(how):
        def cannot_open():
            raise RuntimeError("source cannot be opened")

        def sources(service_seed, params, workload, request, sequence):
            factories = real(service_seed, params, workload, request,
                             sequence)
            if how == "mid-stream":
                victim = max(factories, key=lambda relation:
                             workload.catalog.relation(relation).cardinality)
                factories[victim] = breaking_source(factories[victim],
                                                    after=1)
            else:
                # The plan's last source: its siblings start before it.
                victim = workload.qep.source_relations()[-1]
                factories[victim] = cannot_open
            return factories
        monkeypatch.setattr(service_module, "submission_sources", sources)
    return install
