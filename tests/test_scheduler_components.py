"""Tests for the DQS admission logic, DQP execution loop and DQO handling."""

import pytest

from repro.common.errors import MemoryOverflowError, SchedulingError
from repro.config import SimulationParameters
from repro.core.dqp import DynamicQueryProcessor, SchedulingPlan
from repro.core.dqs import DynamicQueryScheduler, PlanningPolicy
from repro.core.dqo import DynamicQEPOptimizer
from repro.core.events import (
    EndOfQEP,
    EndOfQF,
    MemoryOverflow,
    PhaseComplete,
    RateChange,
    TimeOut,
)
from repro.core.fragments import Fragment, FragmentStatus
from repro.core.runtime import QueryRuntime, World
from repro.core.strategies import SequentialPolicy
from repro.mediator.queues import Message


class FixedPolicy(PlanningPolicy):
    """Returns a fixed list of fragment names (for DQS/DQP unit tests)."""

    name = "FIXED"

    def __init__(self, names):
        self.names = names

    def select(self, runtime):
        return [runtime.fragments[name] for name in self.names
                if runtime.fragments[name].status is not FragmentStatus.DONE
                and runtime.is_c_schedulable(runtime.fragments[name])]


def make_runtime(qep, **overrides):
    params = SimulationParameters().with_overrides(**overrides)
    world = World(params, seed=9)
    for name in qep.source_relations():
        world.cm.register_source(name)
    return QueryRuntime(world, qep)


def feed(rt, source, tuples, eof=False):
    rt.world.cm.queue(source).put(Message(tuples, eof=eof))


def execute(rt, sp):
    dqp = DynamicQueryProcessor(rt)
    proc = rt.world.sim.process(_drive(dqp, sp))
    rt.world.sim.run()
    assert proc.failure is None, proc.failure
    return proc.value, dqp


def _drive(dqp, sp):
    event = yield from dqp.execute(sp)
    return event


# --------------------------------------------------------------------------
# DQS admission
# --------------------------------------------------------------------------

def test_dqs_admits_within_memory(small_qep):
    rt = make_runtime(small_qep)
    scheduler = DynamicQueryScheduler(rt, FixedPolicy(["pR"]))
    sp = scheduler.plan()
    assert [f.name for f in sp.fragments] == ["pR"]
    assert rt.fragments["pR"].hash_table is not None
    assert sp.overflow_fragment is None


def test_fragment_metrics_are_resolved_once_per_runtime(small_qep,
                                                        monkeypatch):
    """A finalize counts on the runtime and updates the histogram handle
    it holds; it does not get-or-create one by name under the registry
    lock."""
    rt = make_runtime(small_qep, telemetry_enabled=True)
    registry = rt.world.telemetry.registry
    feed(rt, "R", 1000, eof=True)
    rt.ensure_hash_table(rt.fragments["pR"])
    dqp = DynamicQueryProcessor(rt)
    monkeypatch.setattr(registry, "counter", None)
    monkeypatch.setattr(registry, "histogram", None)
    proc = rt.world.sim.process(
        _drive(dqp, SchedulingPlan([rt.fragments["pR"]])))
    rt.world.sim.run()
    assert isinstance(proc.value, EndOfQF)
    monkeypatch.undo()
    assert rt.fragments_completed == 1
    assert registry.histogram("fragments.duration_seconds").count == 1


def test_dqs_skips_fragment_that_does_not_fit(small_qep):
    # Budget fits pR's table (40 KB) but not also... use a tiny budget
    # that fits pR (40 KB) but not pS's J2 table (80 KB).
    rt = make_runtime(small_qep, query_memory_bytes=100 * 1024)
    rt.ensure_hash_table(rt.fragments["pR"])  # 40 KB reserved
    # Complete pR so pS is schedulable.
    feed(rt, "R", 1000, eof=True)
    execute(rt, SchedulingPlan([rt.fragments["pR"]]))
    scheduler = DynamicQueryScheduler(rt, FixedPolicy(["pS"]))
    sp = scheduler.plan()
    # 40 KB held by J1 + 80 KB wanted for J2 > 100 KB: pS not schedulable
    # alone -> flagged for the DQO.
    assert sp.fragments == []
    assert sp.overflow_fragment is rt.fragments["pS"]


def test_dqs_rejects_non_schedulable_selection(small_qep):
    rt = make_runtime(small_qep)
    scheduler = DynamicQueryScheduler(rt, FixedPolicy(["pS"]))

    class BadPolicy(PlanningPolicy):
        name = "BAD"

        def select(self, runtime):
            return [runtime.fragments["pS"]]  # pS is not C-schedulable

    scheduler.policy = BadPolicy()
    with pytest.raises(SchedulingError):
        scheduler.plan()


def test_dqs_counts_planning_phases(small_qep):
    rt = make_runtime(small_qep)
    scheduler = DynamicQueryScheduler(rt, FixedPolicy(["pR"]))
    scheduler.plan()
    scheduler.plan()
    assert scheduler.planning_phases == 2


# --------------------------------------------------------------------------
# DQP execution
# --------------------------------------------------------------------------

def test_dqp_returns_end_of_qf(small_qep):
    rt = make_runtime(small_qep)
    rt.ensure_hash_table(rt.fragments["pR"])
    feed(rt, "R", 1000, eof=True)
    event, _ = execute(rt, SchedulingPlan([rt.fragments["pR"]]))
    assert isinstance(event, EndOfQF)
    assert event.fragment_name == "pR"


def test_dqp_priority_order(small_qep, tiny_fig5):
    rt = make_runtime(tiny_fig5.qep)
    pa, pe = rt.fragments["pA"], rt.fragments["pE"]
    rt.ensure_hash_table(pa)
    rt.ensure_hash_table(pe)
    feed(rt, "A", 100)
    feed(rt, "E", 100)
    # pE has higher priority: its batch is processed first.
    sp = SchedulingPlan([pe, pa])
    feed(rt, "E", 0, eof=True)
    event, _ = execute(rt, sp)
    assert isinstance(event, EndOfQF)
    assert event.fragment_name == "pE"
    assert pa.tuples_in == 0 or pe.tuples_in > 0


def test_dqp_times_out_when_stalled(small_qep):
    rt = make_runtime(small_qep, timeout=0.5)
    rt.ensure_hash_table(rt.fragments["pR"])
    event, dqp = execute(rt, SchedulingPlan([rt.fragments["pR"]]))
    assert isinstance(event, TimeOut)
    assert dqp.stall_time == pytest.approx(0.5)


def test_dqp_phase_complete_when_plan_done_but_query_not(small_qep):
    rt = make_runtime(small_qep)
    rt.ensure_hash_table(rt.fragments["pR"])
    feed(rt, "R", 1000, eof=True)
    execute(rt, SchedulingPlan([rt.fragments["pR"]]))
    event, _ = execute(rt, SchedulingPlan([rt.fragments["pR"]]))
    assert isinstance(event, PhaseComplete)


def test_dqp_rate_change_interrupts(small_qep):
    rt = make_runtime(small_qep, timeout=10.0)
    rt.ensure_hash_table(rt.fragments["pR"])
    dqp = DynamicQueryProcessor(rt)
    rt.world.cm.set_rate_listener(dqp.notify_rate_change)

    def driver():
        event = yield from dqp.execute(SchedulingPlan([rt.fragments["pR"]]))
        return event

    proc = rt.world.sim.process(driver())

    def rate_changer():
        yield rt.world.sim.timeout(0.1)
        dqp.notify_rate_change("R", 1e-5, 1e-3)

    rt.world.sim.process(rate_changer())
    rt.world.sim.run()
    assert isinstance(proc.value, RateChange)
    assert proc.value.source == "R"
    assert proc.value.time == pytest.approx(0.1)  # woke before the timeout


def test_dqp_memory_overflow_event(small_qep):
    rt = make_runtime(small_qep, query_memory_bytes=60 * 1024)
    rt.ensure_hash_table(rt.fragments["pR"])  # 40 KB estimate reserved
    # Deliver more tuples than estimated: table must grow beyond 60 KB.
    feed(rt, "R", 1600, eof=True)
    event, _ = execute(rt, SchedulingPlan([rt.fragments["pR"]]))
    assert isinstance(event, MemoryOverflow)
    assert event.join_name == "J1"
    assert event.pending_tuples > 0


def test_dqp_context_switch_accounting(small_qep):
    rt = make_runtime(small_qep)
    rt.ensure_hash_table(rt.fragments["pR"])
    feed(rt, "R", 1000, eof=True)
    _, dqp = execute(rt, SchedulingPlan([rt.fragments["pR"]]))
    assert dqp.context_switches == 1  # switched onto pR once


# --------------------------------------------------------------------------
# DQO outer loop
# --------------------------------------------------------------------------

def run_query(rt, policy):
    scheduler = DynamicQueryScheduler(rt, policy)
    processor = DynamicQueryProcessor(rt)
    optimizer = DynamicQEPOptimizer(rt, scheduler, processor)
    proc = rt.world.sim.process(optimizer.run())
    proc.defused = True
    rt.world.sim.run()
    if proc.failure:
        raise proc.failure
    return proc.value, optimizer


def feed_all(rt, cards):
    for source, tuples in cards.items():
        feed(rt, source, tuples, eof=True)


def test_dqo_runs_query_to_completion(small_qep):
    rt = make_runtime(small_qep)
    feed_all(rt, {"R": 1000, "S": 2000, "T": 1500})
    event, _ = run_query(rt, SequentialPolicy())
    assert isinstance(event, EndOfQEP)
    assert event.result_tuples == 1500
    assert rt.all_done


def test_dqo_handles_memory_overflow_by_splitting(small_qep):
    # J1 (40 KB) + J2 (80 KB) exceed 100 KB together: the DQO must split.
    rt = make_runtime(small_qep, query_memory_bytes=100 * 1024)
    feed_all(rt, {"R": 1000, "S": 2000, "T": 1500})
    event, optimizer = run_query(rt, SequentialPolicy())
    assert isinstance(event, EndOfQEP)
    assert event.result_tuples == 1500
    assert optimizer.overflows_handled >= 1
    assert rt.memory_splits >= 1


def test_dqo_raises_when_query_cannot_fit(small_qep):
    rt = make_runtime(small_qep, query_memory_bytes=30 * 1024)  # < J1 table
    feed_all(rt, {"R": 1000, "S": 2000, "T": 1500})
    with pytest.raises(MemoryOverflowError):
        run_query(rt, SequentialPolicy())


def test_dqo_survives_timeouts(small_qep):
    rt = make_runtime(small_qep, timeout=0.05)

    # Feed data only after a while: the DQP times out first.
    def late_feeder():
        yield rt.world.sim.timeout(0.2)
        feed_all(rt, {"R": 1000, "S": 2000, "T": 1500})

    rt.world.sim.process(late_feeder())
    event, optimizer = run_query(rt, SequentialPolicy())
    assert isinstance(event, EndOfQEP)
    assert optimizer.timeouts >= 1
