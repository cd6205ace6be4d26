"""Tests for bounded timeout aborts and time-to-first-tuple tracking."""

import math

import pytest

from repro import (
    QueryEngine,
    QueryTimeoutError,
    SimulationParameters,
    SymmetricHashJoinEngine,
    UniformDelay,
    make_policy,
)
from repro.wrappers import ConstantDelay, InitialDelay


# --------------------------------------------------------------------------
# Bounded timeouts
# --------------------------------------------------------------------------

def dead_source_delays(workload, params, dead="A"):
    """Every source normal except one that is silent for a very long time."""
    delays = {n: UniformDelay(params.w_min) for n in workload.relation_names}
    delays[dead] = InitialDelay(1e6, UniformDelay(params.w_min))
    return delays


def test_dead_source_aborts_after_limit(tiny_fig5):
    params = SimulationParameters().with_overrides(
        timeout=0.5, max_consecutive_timeouts=3)
    engine = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep, make_policy("SEQ"),
                         dead_source_delays(tiny_fig5, params),
                         params=params, seed=1)
    with pytest.raises(QueryTimeoutError) as excinfo:
        engine.run()
    assert excinfo.value.timeouts == 3


def test_unlimited_timeouts_waits_through(tiny_fig5):
    """Default (0 = unlimited): a *long* initial delay eventually passes."""
    params = SimulationParameters().with_overrides(timeout=0.5)
    delays = {n: UniformDelay(params.w_min)
              for n in tiny_fig5.relation_names}
    delays["A"] = InitialDelay(5.0, UniformDelay(params.w_min))
    engine = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep, make_policy("SEQ"),
                         delays, params=params, seed=1)
    result = engine.run()
    assert result.result_tuples == 1000
    assert result.timeouts >= 5  # it kept waiting through them


def test_progress_resets_the_timeout_counter(tiny_fig5):
    """Timeouts interleaved with real progress never hit the limit."""
    params = SimulationParameters().with_overrides(
        timeout=0.4, max_consecutive_timeouts=3)
    delays = {n: UniformDelay(params.w_min)
              for n in tiny_fig5.relation_names}
    # Each source has a ~1-timeout initial delay; progress in between
    # resets the counter, so the query completes.
    for name in tiny_fig5.relation_names:
        delays[name] = InitialDelay(0.5, UniformDelay(params.w_min))
    engine = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep, make_policy("SEQ"),
                         delays, params=params, seed=1)
    result = engine.run()
    assert result.result_tuples == 1000


def test_timeout_limit_validation():
    from repro.common.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        SimulationParameters(max_consecutive_timeouts=-1)


# --------------------------------------------------------------------------
# One guard per execution phase
# --------------------------------------------------------------------------

class _PauseAt(UniformDelay):
    """Uniform waits, but message ``at`` comes ``pause`` seconds late
    (drawn a message at a time: it redefines ``waiting_times`` only)."""

    def __init__(self, w, at, pause):
        super().__init__(w)
        self.at, self.pause = at, pause

    def waiting_times(self, n, rng):
        waits = super().waiting_times(n, rng)
        self.at -= 1
        if self.at == -1:
            waits[0] += self.pause
        return waits


def _recording(base):
    """``base`` recording each phase's end, its instant and its stalls."""
    class Recorded(base):
        def __init__(self, runtime):
            super().__init__(runtime)
            self.phases, self._stalls_now = [], 0

        def execute(self, sp):
            self._stalls_now = 0
            event = yield from super().execute(sp)
            self.phases.append(
                (type(event).__name__, event.time, self._stalls_now))
            return event

        def _stall(self, live):
            self._stalls_now += 1
            return (yield from super()._stall(live))
    return Recorded


def _per_stall_guard():
    """The processor as it was: every stall an ``AnyOf`` over its
    children and a guard timeout of its own, cancelled when it ends."""
    from repro.core.dqp import DynamicQueryProcessor

    class PerStallGuard(DynamicQueryProcessor):
        def _stall(self, live):
            world = self.runtime.world
            sim, params = world.sim, world.params
            waits = []
            for fragment in live:
                cached = self._wait_cache.get(fragment.name)
                if (cached is not None and cached[0] is fragment.source
                        and not cached[1].triggered):
                    waits.append((fragment, cached[1]))
                    continue
                event = fragment.wait_event()
                if event is not None:
                    self._wait_cache[fragment.name] = (fragment.source, event)
                    waits.append((fragment, event))
            if (self._cached_rate_event is None
                    or self._cached_rate_event.triggered):
                self._cached_rate_event = sim.event(name="rate-change")
            self._rate_event = self._cached_rate_event
            timeout = sim.timeout(params.timeout)
            started = sim.now
            waiter = sim.any_of([event for _, event in waits]
                                + [self._rate_event, timeout])
            yield waiter
            self._rate_event = None
            # Unhook the composite from the children that have not
            # occurred (the guard is born triggered: "not processed").
            for event in waiter.events:
                if not event.processed:
                    event.remove_callback(waiter._on_child)
            if not timeout.processed:
                timeout.cancel()
            self.stall_time += sim.now - started
            data_arrived = any(event.processed for _, event in waits)
            timed_out = (timeout.processed and not data_arrived
                         and self._rate_change is None
                         and self._budget_grow is None)
            cause = self._stall_cause(waits, data_arrived, timed_out)
            self._stalls.record(cause, started, sim.now)
            return timed_out
    return PerStallGuard


@pytest.mark.parametrize("strategy", ["SEQ", "DSE"])
def test_one_guard_per_phase_times_out_as_a_guard_per_stall(
        tiny_fig5, monkeypatch, strategy):
    """A phase of short stalls, then one that outlasts the timeout: the
    phase's one guard times it out at the instant a guard of its own
    would have, and every stall is attributed as before.  No guard
    outlives its phase: the kernel is empty once the run ends."""
    import repro.core.engine as engine_module
    from repro.core.dqp import DynamicQueryProcessor

    params = SimulationParameters().with_overrides(timeout=0.5)

    def run(processor_class):
        worlds, processors = [], []
        make_world = engine_module.World
        monkeypatch.setattr(engine_module, "World", lambda *args, **kw: (
            worlds.append(make_world(*args, **kw)) or worlds[-1]))
        monkeypatch.setattr(engine_module, "DynamicQueryProcessor",
                            lambda runtime: processors.append(
                                processor_class(runtime)) or processors[-1])
        delays = {n: UniformDelay(10 * params.w_min)
                  for n in tiny_fig5.relation_names}
        delays["A"] = _PauseAt(10 * params.w_min, at=4, pause=1.2)
        result = QueryEngine(tiny_fig5.catalog, tiny_fig5.qep,
                             make_policy(strategy), delays, params=params,
                             seed=1).run()
        return result, processors[0].phases, worlds[0].sim

    reference, reference_phases, reference_sim = run(
        _recording(_per_stall_guard()))
    result, phases, sim = run(_recording(DynamicQueryProcessor))
    assert phases == reference_phases
    assert result.stall_breakdown == reference.stall_breakdown
    assert (result.response_time, result.stall_time, result.timeouts) == (
        reference.response_time, reference.stall_time, reference.timeouts)
    assert any(kind == "TimeOut" for kind, _, _ in phases)
    if strategy == "SEQ":
        # The pause timed a phase out after several stalls that did not.
        assert phases[0][0] == "TimeOut" and phases[0][2] >= 3
    assert sim.peek() == math.inf and sim.now == reference_sim.now


# --------------------------------------------------------------------------
# Time to first tuple
# --------------------------------------------------------------------------

def run_strategy(workload, strategy, seed=1):
    params = SimulationParameters()
    delays = {n: UniformDelay(params.w_min) for n in workload.relation_names}
    return QueryEngine(workload.catalog, workload.qep, make_policy(strategy),
                       delays, params=params, seed=seed).run()


def test_ttft_recorded_and_bounded(tiny_fig5):
    result = run_strategy(tiny_fig5, "SEQ")
    assert result.time_to_first_tuple is not None
    assert 0 < result.time_to_first_tuple <= result.response_time


def test_blocking_plan_first_tuple_is_late(tiny_fig5):
    """The root probe cannot start before every upstream build completed."""
    result = run_strategy(tiny_fig5, "SEQ")
    assert result.time_to_first_tuple > 0.5 * result.response_time


def test_dphj_first_tuple_is_early(tiny_fig5):
    params = SimulationParameters()
    delays = {n: UniformDelay(params.w_min) for n in tiny_fig5.relation_names}
    dphj = SymmetricHashJoinEngine(tiny_fig5.catalog, tiny_fig5.tree, delays,
                                   params=params, seed=1).run()
    seq = run_strategy(tiny_fig5, "SEQ")
    assert dphj.time_to_first_tuple < seq.time_to_first_tuple


def test_ttft_none_for_empty_result(small_catalog):
    """A query whose join produces nothing has no first tuple."""
    from repro.catalog import Catalog, JoinStatistics, Relation
    from repro.plan import build_qep
    from repro.query import JoinTree

    stats = JoinStatistics({("R", "S"): 1e-9})  # effectively empty join
    catalog = Catalog([Relation("R", 100), Relation("S", 100)], stats)
    qep = build_qep(catalog, JoinTree.join(JoinTree.leaf("R"),
                                           JoinTree.leaf("S")))
    params = SimulationParameters()
    delays = {n: UniformDelay(params.w_min) for n in ("R", "S")}
    result = QueryEngine(catalog, qep, make_policy("SEQ"), delays,
                         params=params, seed=1).run()
    assert result.result_tuples == 0
    assert result.time_to_first_tuple is None
