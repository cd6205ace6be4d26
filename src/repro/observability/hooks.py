"""Compiled observability hook tables for the scheduling hot paths.

Before this module, each observability plane added its own per-batch
conditional to the DQP loop: a ``NULL_METRIC`` method call for the
counter and the histogram, an ``is not None`` check for the flight
recorder — and the batches/second high-water mark eroded with every
plane.  The hook table inverts that: when a :class:`~repro.observability.
telemetry.Telemetry` facade is compiled, every *active* channel
(metrics registry, flight recorder, span recorder) contributes one
pre-bound callable per hook point, and the hot loop does

.. code-block:: python

    if batch_hooks:               # () when everything is off
        for hook in batch_hooks:
            hook(started, now, fragment, tuples)

so the fully-disabled path pays exactly one truthiness check per batch
— no method calls, no attribute chains, no null objects.  The table is
compiled once per processor/scheduler.  Only the front-ends that return
a registry (one-shot and live runs, one query each) build their machine
with one, so the registry half exists there alone.  It feeds only the
batch-size and stall histograms and the plan-size gauge: a run's
counters are read from their owners by ``QueryRun.result``.

Hook signatures:

* ``batch(started, now, fragment, tuples)`` — one processed batch;
* ``stall(started, ended, cause)`` — one attributed stall interval;
* ``plan(now, plan_size)`` — one completed planning phase (DQS).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.observability.flight import ENTRY_BATCH
from repro.observability.registry import BATCH_BUCKETS
from repro.observability.spans import SPAN_BATCH, SPAN_STALL

BatchHook = Callable[[float, float, Any, int], None]
StallHook = Callable[[float, float, str], None]
PlanHook = Callable[[float, int], None]

#: the shared no-op hook tuple: falsy, so hot loops skip dispatch whole.
NO_HOOKS: Tuple[Any, ...] = ()


class DQPHooks:
    """One compiled dispatch table: pre-bound method slots per hook point."""

    __slots__ = ("batch", "stall", "plan")

    def __init__(self,
                 batch: Tuple[BatchHook, ...] = NO_HOOKS,
                 stall: Tuple[StallHook, ...] = NO_HOOKS,
                 plan: Tuple[PlanHook, ...] = NO_HOOKS):
        self.batch = batch
        self.stall = stall
        self.plan = plan

    def __repr__(self) -> str:
        return (f"DQPHooks(batch={len(self.batch)}, "
                f"stall={len(self.stall)}, plan={len(self.plan)})")


#: the shared null table components compiled when everything is off.
NULL_HOOKS = DQPHooks()


def _compile_metric_hooks(registry: Any) -> DQPHooks:
    """The registry half of the table."""
    batch_tuples_metric = registry.histogram("dqp.batch_tuples",
                                             buckets=BATCH_BUCKETS)
    stall_metric = registry.histogram("dqp.stall_seconds")
    plan_size_metric = registry.gauge("dqs.plan_fragments")

    def metrics_batch(started: float, now: float, fragment: Any,
                      tuples: int) -> None:
        batch_tuples_metric.observe(tuples)

    def metrics_stall(started: float, ended: float, cause: str) -> None:
        stall_metric.observe(ended - started)

    def metrics_plan(now: float, plan_size: int) -> None:
        plan_size_metric.set(plan_size)

    return DQPHooks(batch=(metrics_batch,), stall=(metrics_stall,),
                    plan=(metrics_plan,))


def compile_dqp_hooks(
        telemetry: Any,
        phase_span_of: Optional[Callable[[], Optional[int]]] = None,
) -> DQPHooks:
    """Compile the hook table for one processor/scheduler.

    ``phase_span_of`` supplies the current execution-phase span id at
    call time (the DQO rebinds it per phase), so batch and stall spans
    land under the right parent even when several queries interleave on
    one shared recorder.
    """
    metrics = NULL_HOOKS
    if getattr(telemetry.registry, "enabled", False):
        metrics = _compile_metric_hooks(telemetry.registry)
    flight = telemetry.flight
    spans = getattr(telemetry, "spans", None)
    if flight is None and spans is None:
        return metrics
    batch = list(metrics.batch)
    stall = list(metrics.stall)

    if flight is not None:
        def flight_batch(started: float, now: float, fragment: Any,
                         tuples: int) -> None:
            flight.record(ENTRY_BATCH, now, fragment=fragment.name,
                          tuples=tuples)

        batch.append(flight_batch)
        # Stall and decision entries reach the flight recorder through
        # the ``stalls.on_record`` / ``audit.on_record`` observers the
        # live engine installs; only the per-batch path rides the table.

    if spans is not None:
        current_phase = phase_span_of if phase_span_of is not None \
            else (lambda: None)
        # One positional row per batch / stall: the recorder's append,
        # pre-bound, with the attrs dict built literally (no ``**``).
        append = spans._append

        def span_batch(started: float, now: float, fragment: Any,
                       tuples: int) -> None:
            append(SPAN_BATCH, fragment.name, started, now, current_phase(),
                   None, {"fragment_kind": fragment.kind.value,
                          "tuples": tuples})

        def span_stall(started: float, ended: float, cause: str) -> None:
            append(SPAN_STALL, cause, started, ended, current_phase(), None,
                   {"cause": cause})

        batch.append(span_batch)
        stall.append(span_stall)

    return DQPHooks(batch=tuple(batch), stall=tuple(stall),
                    plan=metrics.plan)
