"""The Dynamic Query Processor (Section 3.2).

"At each execution phase, the task of the DQP is to interleave the
execution of the query fragments in order to maximize the processor
utilization with respect to the priorities defined in the scheduling
plan."  The DQP always serves the highest-priority fragment that has data
(a *batch* at a time), returning to the top of the priority list after
every batch; it stalls only when **no** scheduled fragment has data, and
after ``timeout`` of stalling returns a TimeOut interruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.common.errors import SchedulingError
from repro.core.events import (
    BudgetGrow,
    EndOfQEP,
    EndOfQF,
    InterruptionEvent,
    MemoryOverflow,
    PhaseComplete,
    RateChange,
    TimeOut,
)
from repro.core.fragments import (
    BATCH_FINISHED,
    BATCH_OVERFLOW,
    Fragment,
    FragmentStatus,
)
from repro.core.runtime import QueryRuntime
from repro.mediator.queues import SourceQueue
from repro.observability import (
    STALL_MEMORY_WAIT,
    STALL_NO_SCHEDULABLE,
    STALL_TIMEOUT,
    source_wait,
)
from repro.observability.hooks import compile_dqp_hooks
from repro.exec import SimEvent, Timeout

#: the value of a stall's wake-up event when the guard ended it.
_TIMED_OUT = "timeout"


@dataclass
class SchedulingPlan:
    """A totally ordered set of query fragments (highest priority first)."""

    fragments: list[Fragment]
    priorities: dict[str, float] = field(default_factory=dict)
    #: set when the top fragment is not M-schedulable even alone; the DQS
    #: hands this straight to the DQO (Section 4.2).
    overflow_fragment: Optional[Fragment] = None
    # live() cache: the DQP calls live() once per batch, but fragments
    # only leave the live set when one finalizes — which bumps the
    # runtime's done_revision.  Caching against that counter makes the
    # per-batch call an O(1) attribute check instead of a fresh filtered
    # list allocation (see benchmarks/test_bench_dqp_loop.py).
    _live: Optional[list[Fragment]] = field(
        default=None, repr=False, compare=False)
    _live_revision: int = field(default=-1, repr=False, compare=False)
    #: the fragments' runtime, looked up once (they reach it weakly).
    _runtime: Optional[QueryRuntime] = field(
        default=None, repr=False, compare=False)

    def live(self) -> list[Fragment]:
        fragments = self.fragments
        if not fragments:
            return fragments
        runtime = self._runtime
        if runtime is None:
            runtime = self._runtime = fragments[0].runtime
        revision = runtime.done_revision
        if self._live is None or revision != self._live_revision:
            self._live = [f for f in fragments
                          if f.status is not FragmentStatus.DONE]
            self._live_revision = revision
        return self._live


class DynamicQueryProcessor:
    """Executes one scheduling plan until an interruption event."""

    def __init__(self, runtime: QueryRuntime):
        self.runtime = runtime
        self.context_switches = 0
        self.batches_processed = 0
        self.stall_time = 0.0
        self._last_fragment: Optional[Fragment] = None
        self._rate_change: Optional[tuple[str, float, float]] = None
        self._budget_grow: Optional[tuple[int, int]] = None
        self._rate_event: Optional[SimEvent] = None
        # Stall-path caches: the rate-change event and per-fragment wait
        # events are one-shot but usually survive a stall untriggered, so
        # the next stall reuses them instead of allocating (and, for
        # source queues, piling up) fresh waiters every iteration.
        self._cached_rate_event: Optional[SimEvent] = None
        self._wait_cache: dict[str, tuple[Any, SimEvent]] = {}
        #: the phase's guard timeout, armed at its first stall (see
        #: :meth:`_on_guard`), and while stalled the stall's deadline and
        #: the event that wakes it.
        self._guard: Optional[Timeout] = None
        self._stalled: Optional[tuple[float, SimEvent]] = None
        self._rr_cursor = 0
        # Batch-sizing scalars, hoisted out of the per-batch loop
        # (``effective_batch_tuples`` recomputes two divisions per call).
        params = runtime.world.params
        self._batch_base = params.effective_batch_tuples
        self._adaptive = params.adaptive_batching
        self._batch_ceiling = (self._batch_base
                               * params.adaptive_batch_max_messages)
        self._round_robin = params.dqp_discipline == "round-robin"
        telemetry = runtime.world.telemetry
        self._stalls = telemetry.stalls
        #: compiled observability dispatch table.  Every active channel
        #: (metrics, flight recorder, spans) contributed its pre-bound
        #: callables at compile time; when everything is off the slots
        #: are empty tuples and the hot loop pays one truthiness check.
        # The span hooks read the runtime's current phase span at call
        # time; a closure over ``self`` would make the table a cycle.
        self.hooks = compile_dqp_hooks(
            telemetry, phase_span_of=lambda: runtime.current_phase_span)
        # Subscribe to broker grow offers so a mid-flight budget increase
        # interrupts the execution phase for a replan (same pattern as
        # the CM's rate-change listener).  Only when the feature is on:
        # a subscribed lease is also what the broker reclaims bytes for.
        if params.dynamic_budget_replanning:
            subscribe = getattr(runtime.world.memory, "subscribe_grow", None)
            if subscribe is not None:
                subscribe(self.notify_budget_grow)

    # -- rate-change plumbing (installed as the CM listener) ---------------
    def notify_rate_change(self, source: str, old_wait: float,
                           new_wait: float) -> None:
        """CM callback: remember the change and wake the DQP if waiting."""
        self._rate_change = (source, old_wait, new_wait)
        if self._rate_event is not None and not self._rate_event.triggered:
            self._rate_event.succeed("rate-change")

    # -- budget-grow plumbing (subscribed on the memory lease) -------------
    def notify_budget_grow(self, granted_bytes: int,
                           total_bytes: int) -> None:
        """Broker callback: the lease grew; replan at the next boundary."""
        self._budget_grow = (granted_bytes, total_bytes)
        if self._rate_event is not None and not self._rate_event.triggered:
            self._rate_event.succeed("budget-grow")

    # -- main loop ---------------------------------------------------------
    def execute(self, sp: SchedulingPlan) -> Generator[
            SimEvent, Any, InterruptionEvent]:
        """Process ``sp`` until an interruption event. ``yield from`` me."""
        world = self.runtime.world
        sim, params = world.sim, world.params
        batch_hooks = self.hooks.batch
        # Fixed unless adaptive: then sized per batch by _batch_size.
        batch_tuples = None if self._adaptive else self._batch_base
        try:
            while True:
                if self._rate_change is not None:
                    source, old, new = self._rate_change
                    self._rate_change = None
                    return RateChange(sim.now, source=source, old_wait=old,
                                      new_wait=new)
                if self._budget_grow is not None:
                    granted, total = self._budget_grow
                    self._budget_grow = None
                    return BudgetGrow(sim.now, granted_bytes=granted,
                                      total_bytes=total)

                live = sp.live()
                if not live:
                    if self.runtime.all_done:
                        return EndOfQEP(
                            sim.now, result_tuples=self.runtime.result_tuples)
                    return PhaseComplete(sim.now)

                if self._round_robin:
                    workable = [f for f in live if f.has_work()]
                    fragment = (workable[self._rr_cursor % len(workable)]
                                if workable else None)
                    if fragment is not None:
                        self._rr_cursor += 1
                else:
                    # Priority discipline wants only the first fragment
                    # with data; scan instead of building a filtered list
                    # per batch.
                    fragment = None
                    for candidate in live:
                        if candidate.has_work():
                            fragment = candidate
                            break
                if fragment is None:
                    timed_out = yield from self._stall(live)
                    if timed_out:
                        return TimeOut(sim.now, stalled_for=params.timeout)
                    continue
                if (fragment is not self._last_fragment
                        and params.context_switch_instructions > 0):
                    yield from world.cpu.work(
                        params.context_switch_instructions)
                    self.context_switches += 1
                self._last_fragment = fragment

                if batch_hooks:
                    batch_started = sim.now
                    tuples_before = fragment.tuples_in
                outcome = yield from fragment.process_batch(
                    batch_tuples or self._batch_size(fragment))
                self.batches_processed += 1
                if batch_hooks:
                    now = sim.now
                    tuples = fragment.tuples_in - tuples_before
                    for hook in batch_hooks:
                        hook(batch_started, now, fragment, tuples)

                if outcome == BATCH_OVERFLOW:
                    return self._overflow_event(fragment)
                if outcome == BATCH_FINISHED:
                    if self.runtime.all_done:
                        return EndOfQEP(
                            sim.now, result_tuples=self.runtime.result_tuples)
                    return EndOfQF(sim.now, fragment_name=fragment.name)
                # BATCH_OK / BATCH_EMPTY: back to the top of the priority
                # list.
        finally:
            # No guard outlives its phase.
            guard, self._guard = self._guard, None
            if guard is not None:
                guard.cancel()

    def _batch_size(self, fragment: Fragment) -> int:
        """The quantum for this fragment's next batch with
        ``adaptive_batching`` on (the paper's footnote: "batch size can
        vary dynamically"): half the fragment's current backlog, clamped
        to [1 message, ``adaptive_batch_max_messages`` messages].  Off,
        every batch is ``_batch_base`` tuples.
        """
        base = self._batch_base
        source = fragment.source
        if isinstance(source, SourceQueue):
            backlog = source.tuples_available
        else:
            backlog = source.available_tuples
        return max(base, min(self._batch_ceiling, backlog // 2))

    def _stall(self, live: list[Fragment]) -> Generator[SimEvent, Any, bool]:
        """Wait for data, a rate change, or the timeout; True on timeout.

        Every stall is attributed to exactly one cause — the source whose
        message woke us, a temp prefetch (memory wait), a replanning
        wake-up, or the timeout — so the sum of the attributed intervals
        equals :attr:`stall_time` by construction.
        """
        world = self.runtime.world
        sim, params = world.sim, world.params
        waits = []
        for fragment in live:
            cached = self._wait_cache.get(fragment.name)
            if (cached is not None and cached[0] is fragment.source
                    and not cached[1].triggered):
                # Still armed from an earlier stall (and the fragment's
                # source has not been swapped by a degradation): reuse.
                waits.append((fragment, cached[1]))
                continue
            event = fragment.wait_event()
            if event is not None:
                self._wait_cache[fragment.name] = (fragment.source, event)
                waits.append((fragment, event))
        if not waits:
            raise SchedulingError(
                "DQP stalled although only local fragments are scheduled")
        if (self._cached_rate_event is None
                or self._cached_rate_event.triggered):
            self._cached_rate_event = sim.event(name="rate-change")
        rate_event = self._rate_event = self._cached_rate_event
        started = sim.now
        if self._guard is None:
            self._arm_guard(sim.timeout(params.timeout))
        # The first child to occur succeeds `wake`: the NORMAL hop an
        # AnyOf over them would make.
        wake = sim.event(name="stall")
        self._stalled = (started + params.timeout, wake)
        waker = self._wake
        for _, event in waits:
            event.add_callback(waker)
        rate_event.add_callback(waker)
        yield wake
        self._stalled = self._rate_event = None
        # Unhook from the children that have not occurred: they are
        # reused by the next stall.
        for _, event in waits:
            if not event.processed:
                event.remove_callback(waker)
        if not rate_event.processed:
            rate_event.remove_callback(waker)
        stalled_for = sim.now - started
        self.stall_time += stalled_for
        data_arrived = any(event.processed for _, event in waits)
        timed_out = (wake.value is _TIMED_OUT and not data_arrived
                     and self._rate_change is None
                     and self._budget_grow is None)
        cause = self._stall_cause(waits, data_arrived, timed_out)
        self._stalls.record(cause, started, sim.now)
        stall_hooks = self.hooks.stall
        if stall_hooks:
            for hook in stall_hooks:
                hook(started, sim.now, cause)
        return timed_out

    def _wake(self, _child: SimEvent) -> None:
        """A stall's child occurred (none of them can fail): wake the
        stall, once."""
        stalled = self._stalled
        if stalled is not None and not stalled[1].triggered:
            stalled[1].succeed()

    def _arm_guard(self, guard: Timeout) -> None:
        self._guard = guard
        guard.add_callback(self._on_guard)

    def _on_guard(self, _guard: SimEvent) -> None:
        """The phase's guard timeout occurred.

        One guard serves every stall of a phase: armed at the first
        stall's deadline, it is re-armed at a later stall's own deadline
        when it falls due during that stall, times the stall out when
        that deadline is now, and is dropped when it falls due while the
        DQP is busy (the next stall arms a fresh one).  Each stall thus
        times out exactly ``timeout`` after it began, as with a guard of
        its own, without arming and cancelling one per stall.
        """
        self._guard = None
        stalled = self._stalled
        if stalled is None:
            return
        deadline, wake = stalled
        sim = self.runtime.world.sim
        if deadline > sim.now:
            self._arm_guard(sim.timeout_at(deadline))
        elif not wake.triggered:
            wake.succeed(_TIMED_OUT)

    @staticmethod
    def _stall_cause(waits: list[tuple[Fragment, SimEvent]],
                     data_arrived: bool, timed_out: bool) -> str:
        """Attribute one finished stall to its wake-up cause."""
        if data_arrived:
            for fragment, event in waits:
                if event.processed:
                    source = fragment.source
                    if isinstance(source, SourceQueue):
                        return source_wait(source.source)
                    return STALL_MEMORY_WAIT  # temp reload completed
        if timed_out:
            return STALL_TIMEOUT
        # Woken for replanning (rate change) while nothing had work.
        return STALL_NO_SCHEDULABLE

    def _overflow_event(self, fragment: Fragment) -> MemoryOverflow:
        world = self.runtime.world
        join_name = fragment.builds_join or ""
        needed = world.params.page_size
        return MemoryOverflow(
            world.sim.now,
            fragment_name=fragment.name,
            join_name=join_name,
            pending_tuples=fragment.pending_spill,
            required_bytes=needed,
            available_bytes=world.memory.available_bytes)
