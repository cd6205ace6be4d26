#!/usr/bin/env python
"""Smoke check: disabled telemetry must be (near-)free.

Runs the smallest Figure 6 point (retrieval time 2.0 s for relation A,
full-scale workload, one repetition) with telemetry disabled and with it
fully enabled, taking the best of a few wall-clock timings each.  The
disabled path goes through the same instrumented code but every metric
resolves to the shared no-op ``NULL_METRIC``, so it must not run
measurably slower than the enabled path — the check fails if the
disabled run exceeds enabled * 1.05 plus a small absolute grace for
timer noise.

Also asserts the structural guarantees of the disabled path: the
registry hands out the null metric without registering it, the result
carries no metrics object, no samples are collected, and no source
queue holds a depth gauge (so a message makes no null-metric call).

A span section repeats the check for the causal span recorder with a
*tighter* budget: spans ride the compiled DQP hook table, so the
spans-disabled batch loop (one falsy-tuple check per batch) must stay
within 1% of the spans-enabled loop plus timer grace — and the compiled
hook table itself must be the shared ``NULL_HOOKS`` no-op when every
consumer is off.  It also counts, with ``tracemalloc``, the bytes the
span table holds per span after one spans-on run: batch and stall rows
are columns, so the budget is 80 bytes (a ``Span`` object with its own
attrs dict per row held about 345).

A second section repeats the comparison on the wall-clock asyncio
backend: one small live run (jittered modelled sources) with telemetry
(and the wall-clock sampler) fully enabled versus one with telemetry
disabled.  Both must report the same response time — telemetry observes
the run, it does not perturb it.  Live runs are dominated by real
source delays, so the budget is the same shape — the instrumented run
must not beat the uninstrumented one by more than noise, i.e.
disabled <= enabled * 1.05 + grace.

Exit status 0 on success; used as a CI step.
"""

import asyncio
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import QueryEngine, UniformDelay, make_policy
from repro.config import SimulationParameters
from repro.core.engine import QueryRun, seeded_wrappers
from repro.core.runtime import World
from repro.experiments import figure5_workload, run_slowdown_experiment
from repro.observability import NULL_HOOKS, NULL_METRIC, MetricsRegistry
from repro.wrappers import JitteredDelay

ROUNDS = 3
RETRIEVAL_TIME = 2.0  # the smallest Figure 6 point
LIVE_SCALE = 0.02     # live rounds are wall-clock; keep them tiny
DQP_SCALE = 0.2       # the span-overhead rounds: one batch-loop-bound run
SPAN_BYTES_BUDGET = 80  # bytes the span table may hold per span


def timed_sweep(workload, params) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        run_slowdown_experiment(workload, "A", [RETRIEVAL_TIME], params,
                                repetitions=1)
        best = min(best, time.perf_counter() - started)
    return best


def timed_dqp_run(params):
    """Best wall-clock of ROUNDS single DSE runs (batch-loop bound)."""
    workload = figure5_workload(scale=DQP_SCALE)
    best, result = float("inf"), None
    for _ in range(ROUNDS):
        delays = {name: UniformDelay(params.w_min)
                  for name in workload.relation_names}
        engine = QueryEngine(workload.catalog, workload.qep,
                             make_policy("DSE"), delays, params=params,
                             seed=1)
        started = time.perf_counter()
        result = engine.run()
        best = min(best, time.perf_counter() - started)
    return best, result


def span_bytes_per_span(params) -> float:
    """Bytes held per span after one spans-on DQP run, counted by
    tracemalloc: what the span table and its row hooks (``spans.py``)
    and the hook table compiled around them (``hooks.py``) allocated and
    still hold while the result is alive."""
    workload = figure5_workload(scale=DQP_SCALE)
    delays = {name: UniformDelay(params.w_min)
              for name in workload.relation_names}
    engine = QueryEngine(workload.catalog, workload.qep, make_policy("DSE"),
                         delays, params=params, seed=1)
    tracemalloc.start()
    try:
        result = engine.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    owned = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/observability/spans.py"),
        tracemalloc.Filter(True, "*/observability/hooks.py")])
    held = sum(stat.size for stat in owned.statistics("filename"))
    return held / len(result.spans)


def timed_live_run(params):
    """Best wall-clock of ROUNDS small live (asyncio-backend) runs."""
    from repro.exec.live import LiveQueryEngine

    workload = figure5_workload(scale=LIVE_SCALE)
    delays = {rel: JitteredDelay(100e-6, jitter=1.0)
              for rel in workload.relation_names}
    best, result = float("inf"), None
    for _ in range(ROUNDS):
        engine = LiveQueryEngine(workload.catalog, workload.qep,
                                 make_policy("DSE"), delays,
                                 params=params, seed=1)
        started = time.perf_counter()
        result = asyncio.run(engine.run())
        best = min(best, time.perf_counter() - started)
        if params.telemetry_enabled:
            assert result.metrics is not None
            if params.telemetry_sample_interval > 0:
                assert result.samples, \
                    "wall-clock sampler produced no samples"
        else:
            assert result.metrics is None
            assert result.samples == []
    return best, result


def queue_depth_gauges(workload, params) -> list:
    """The depth gauge each source queue of one DSE run holds (None
    where it holds none)."""
    world = World(params, seed=1)
    delays = {name: UniformDelay(params.w_min)
              for name in workload.relation_names}
    query = QueryRun(world, workload.qep, make_policy("DSE"),
                     seeded_wrappers(world, workload.catalog, delays))
    query.start()
    world.sim.run()
    query.result()
    assert world.cm.queues, "the run registered no source queue"
    return [queue._depth_gauge for queue in world.cm.queues.values()]


def main() -> int:
    disabled_registry = MetricsRegistry(enabled=False)
    assert disabled_registry.counter("smoke") is NULL_METRIC
    assert len(disabled_registry) == 0

    workload = figure5_workload()
    disabled = timed_sweep(workload, SimulationParameters())
    enabled = timed_sweep(workload, SimulationParameters(
        telemetry_enabled=True, telemetry_sample_interval=0.05))

    params = SimulationParameters()
    small = figure5_workload(scale=0.05)
    delays = {name: UniformDelay(params.w_min)
              for name in small.relation_names}
    result = QueryEngine(small.catalog, small.qep, make_policy("DSE"),
                         delays, params=params, seed=1).run()
    assert result.metrics is None, "disabled run must not carry a registry"
    assert result.samples == [], "disabled run must not collect samples"
    assert all(gauge is None
               for gauge in queue_depth_gauges(small, params)), \
        "a source queue holds a depth gauge with telemetry off"
    assert all(gauge is not None for gauge in queue_depth_gauges(
        small, SimulationParameters(telemetry_enabled=True))), \
        "a source queue holds no depth gauge with telemetry on"

    budget = enabled * 1.05 + 0.05  # 5% relative + 50 ms timer grace
    print(f"disabled telemetry: {disabled:.3f} s (best of {ROUNDS})")
    print(f"enabled  telemetry: {enabled:.3f} s (best of {ROUNDS})")
    print(f"budget for disabled path: {budget:.3f} s")
    if disabled > budget:
        print("FAIL: disabled-telemetry path is measurably slower than "
              "the enabled path — the no-op instrumentation is not free")
        return 1
    print("OK: disabled-telemetry overhead within budget")

    # Spans ride the compiled hook table: with every consumer off the
    # table is the shared no-op and the batch loop pays one falsy check.
    assert NULL_HOOKS.batch == () and NULL_HOOKS.stall == ()
    assert NULL_HOOKS.plan == ()
    spans_off, off_result = timed_dqp_run(SimulationParameters())
    assert off_result.spans is None, "spans-off run must not carry spans"
    spans_on, on_result = timed_dqp_run(
        SimulationParameters(telemetry_spans=True))
    assert on_result.spans, "spans-on run recorded no spans"
    assert on_result.response_time == off_result.response_time, \
        "span recording perturbed the simulation"
    spans_budget = spans_on * 1.01 + 0.05  # 1% relative + timer grace
    print(f"spans disabled: {spans_off:.3f} s (best of {ROUNDS})")
    print(f"spans enabled : {spans_on:.3f} s (best of {ROUNDS}, "
          f"{len(on_result.spans)} spans)")
    print(f"budget for spans-disabled path: {spans_budget:.3f} s")
    if spans_off > spans_budget:
        print("FAIL: the spans-disabled DQP batch loop is more than 1% "
              "slower than the recording loop — the compiled hook "
              "table's off path is not free")
        return 1
    print("OK: spans-disabled batch-loop overhead within 1%")
    per_span = span_bytes_per_span(SimulationParameters(telemetry_spans=True))
    print(f"span table: {per_span:.1f} bytes per span "
          f"(budget {SPAN_BYTES_BUDGET})")
    if per_span > SPAN_BYTES_BUDGET:
        print("FAIL: the span table holds more than "
              f"{SPAN_BYTES_BUDGET} bytes per span — batch and stall rows "
              "are meant to be columns, not objects")
        return 1
    print("OK: span table within its per-span byte budget")

    live_disabled, live_off = timed_live_run(SimulationParameters())
    live_enabled, live_on = timed_live_run(SimulationParameters(
        telemetry_enabled=True, telemetry_sample_interval=0.05))
    assert live_on.response_time == live_off.response_time, \
        "telemetry perturbed the live run"
    # Live rounds are wall-clock and source-delay dominated; same shape
    # of budget, with a larger absolute grace for scheduler jitter.
    live_budget = live_enabled * 1.05 + 0.25
    print(f"live disabled telemetry: {live_disabled:.3f} s "
          f"(best of {ROUNDS})")
    print(f"live enabled  telemetry: {live_enabled:.3f} s "
          f"(best of {ROUNDS})")
    print(f"budget for live disabled path: {live_budget:.3f} s")
    if live_disabled > live_budget:
        print("FAIL: disabled-telemetry live run is measurably slower "
              "than the instrumented one on the wall-clock backend")
        return 1
    print("OK: live-backend disabled-telemetry overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
