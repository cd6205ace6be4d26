"""Shared fixtures: small catalogs, scaled workloads, fast parameters."""

from __future__ import annotations

import functools

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
def machines_built_by(monkeypatch):
    """``machines_built_by(module)`` wraps ``module.World`` and returns
    the list every machine that module builds is appended to (a world
    built with ``share_machine`` is a query's view of one, not listed)."""
    def catch(module):
        machines = []
        real = module.World

        def world(*args, **kwargs):
            built = real(*args, **kwargs)
            if kwargs.get("share_machine") is None:
                machines.append(built)
            return built

        monkeypatch.setattr(module, "World", world)
        return machines
    return catch


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


@functools.lru_cache(maxsize=None)
def _breaking(base, after):
    """``base`` delay model whose source dies after ``after`` messages.
    (Cached: a class is cyclic garbage, and tests count that.)"""
    class BreakingDelay(base):
        messages = 0

        def reset(self):
            self.messages = 0

        def waiting_times(self, count, rng):
            self.messages += 1
            if self.messages > after:
                raise RuntimeError("source broke mid-stream")
            return super().waiting_times(count, rng)
    return BreakingDelay


@pytest.fixture
def breaking_delays():
    """``breaking_delays(workload, params)``: uniform delay models where
    relation A's simulated source dies after two messages."""
    from repro.wrappers import UniformDelay

    def delays(workload, params):
        models = {name: UniformDelay(params.w_min)
                  for name in workload.relation_names}
        models["A"] = _breaking(UniformDelay, after=2)(params.w_min)
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
def break_service_source(monkeypatch):
    """``break_service_source(how, every=1)`` makes one source of every
    ``every``-th service submission die: ``"mid-stream"`` the largest
    relation on its second message (submit at a scale that gives it more
    than one), ``"at-open"`` the last one before its first.  Patches the
    one place both service front-ends (in-process backend, worker host)
    build their sources: the execution plane's wrapper factory."""
    from repro.service.backend import ExecutionPlane
    from repro.wrappers import JitteredDelay

    real = ExecutionPlane.wrappers

    def install(how, every=1):
        def wrappers(plane, world, request, sequence):
            make = real(plane, world, request, sequence)
            if sequence % every:
                return make
            workload = plane.workload(request.scale)
            if how == "mid-stream":
                victim = max(workload.relation_names, key=lambda relation:
                             workload.catalog.relation(relation).cardinality)
            else:
                # The plan's last source: its siblings start before it.
                victim = workload.qep.source_relations()[-1]

            def broken(relation):
                if relation != victim:
                    return make(relation)
                if how == "at-open":
                    raise RuntimeError("source cannot be opened")
                wrapper = make(relation)
                wrapper.delay_model = _breaking(JitteredDelay, after=1)(
                    wrapper.delay_model.w, wrapper.delay_model.jitter)
                return wrapper
            return broken
        monkeypatch.setattr(ExecutionPlane, "wrappers", wrappers)
    return install


@pytest.fixture
def virtual_outcome():
    """``virtual_outcome(seed, params, request, sequence)``: the outcome
    of one service submission run alone in virtual time — a
    :class:`QueryRun` on a ``Simulator`` over the sources the execution
    plane's own factory builds for it."""
    from repro.core.engine import QueryRun
    from repro.core.runtime import World
    from repro.core.strategies import make_policy
    from repro.service.backend import ExecutionPlane

    def outcome(seed, params, request, sequence):
        plane = ExecutionPlane(params, seed, None, "none", name="virtual",
                               kernel=Simulator())
        world = World(params, seed=seed, memory_bytes=request.memory_bytes)
        query = QueryRun(world, plane.workload(request.scale).qep,
                         make_policy(request.strategy),
                         plane.wrappers(world, request, sequence))
        query.start()
        world.sim.run()
        return query.outcome(query.check_complete())
    return outcome


@pytest.fixture
def assert_same_outcome():
    """``assert_same_outcome(record, expected)``: a finished service
    record reports ``expected`` (a :meth:`QueryRun.outcome` dict) — the
    counts exactly, the times up to the float rounding of a clock that
    did not start at zero."""
    def check(record, expected):
        assert record.state == "done", record.error
        got = dict(record.outcome, memory_peak_bytes=record.memory_peak_bytes)
        assert set(got) == set(expected)
        for key in ("result_tuples", "batches_processed",
                    "memory_peak_bytes"):
            assert got[key] == expected[key], key
        for key in ("response_time", "time_to_first_tuple", "stall_time"):
            assert got[key] == pytest.approx(expected[key], rel=1e-9), key
    return check


@pytest.fixture
def assert_no_cyclic_garbage():
    """``assert_no_cyclic_garbage(run)``: with the cyclic collector off,
    ``run()`` (its result dropped) leaves nothing only the collector
    could free — whatever it built was freed by reference counting."""
    import gc
    from collections import Counter

    def unreachable(run, debug):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(debug)
        try:
            run()
            found = gc.collect()
            return found, Counter(type(thing).__name__
                                  for thing in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()

    def check(run):
        found, _ = unreachable(run, 0)
        if found:
            # Again, keeping what is found so the message can name it.
            # (A first run also pays for imports and lazily built
            # classes; only garbage that repeats is the run's own.)
            found, members = unreachable(run, gc.DEBUG_SAVEALL)
            assert not found, (
                f"{found} objects left to the cyclic collector: "
                f"{members.most_common()}")
    return check
