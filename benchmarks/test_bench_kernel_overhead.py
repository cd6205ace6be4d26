"""Kernel dispatch overhead — events/sec through the execution kernel.

The ``repro.exec`` refactor put a :class:`KernelBase` layer between the
event machinery and the backends.  This micro-benchmark pins down the
cost of that indirection: it drives the same timeout-chain workload
through the real :class:`Simulator` and through an inline frozen copy of
the pre-refactor hot path (heap push/pop plus ``SimEvent`` callbacks,
no base class, no cancellation check), and asserts the refactored kernel
keeps at least ~90% of the inline loop's event rate.

A second case, *guard churn*, is the DQP stall shape on a long-lived
kernel: every step arms a guard timeout far in the future and cancels it
when the step's own short wait ends.  The kernel clock never reaches a
guard's deadline, so unless cancelled entries are compacted away the
heap grows by one dead entry per step and process, and every push and
pop pays for it.  The case asserts the heap stays bounded and that an
event costs the same at step 2,000 as at step 200.  Its deterministic
twin counts instead of timing: the heap pushes and pops a step makes,
the live entries it holds and the most entries it holds, dead ones
included, are the same at step 2,000 as at step 200.

A third case, the *due chain*, compares the two backends' drain on work
the host cannot keep up with (the saturated service's shape): the
wall-clock kernel may cost at most 1.2x the simulator per event.
"""

from __future__ import annotations

import asyncio
import heapq
import time

from conftest import run_measured

from repro.exec import core
from repro.exec.aio import AsyncioKernel
from repro.exec.core import _COMPACT_FLOOR, Process, SimEvent, Timeout
from repro.sim.engine import Simulator

PROCESSES = 20
STEPS = 2_000
BEST_OF = 5
#: the ISSUE budget: at most ~10% dispatch regression vs the inline loop.
MAX_REGRESSION = 0.10
#: guard churn: the stall guard (``params.timeout``) and the wait it
#: guards, which always ends first; 2,000 steps stay far short of 60 s.
GUARD_S = 60.0
STEP_S = 1e-3
#: steps timed on either side of step 200 and before step 2,000.
WINDOW = 100
#: µs per event at step 2,000 may exceed that at step 200 by this much.
MAX_AGEING = 0.10
#: due chain: processes, events, and the base delay each process steps
#: by (process ``i`` waits ``DUE_STEP_S * (1 + i / DUE_PROCESSES)``, so
#: no two deadlines coincide and the host is far slower than the model).
DUE_PROCESSES = 16
DUE_EVENTS = 200_000
DUE_STEP_S = 1e-7
#: the wall-clock kernel's µs per due event over the simulator's.
MAX_ASYNCIO_RATIO = 1.2


class InlineLoop:
    """Frozen copy of the pre-refactor Simulator hot path.

    Duck-types the kernel surface :class:`SimEvent`/:class:`Process`
    need (``_schedule_at``, ``_note_failed_process``; nothing here cancels,
    so not :meth:`Timeout.cancel`'s ``_note_cancelled``) with everything
    inlined in one class and no cancelled-event handling — the cheapest
    correct dispatcher for this workload, used as the 100% mark.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, int, SimEvent]] = []
        self._sequence = 0
        self.processed_events = 0
        self._failed = []

    def _schedule_at(self, event: SimEvent, when: float,
                     priority: int) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (when, priority, self._sequence, event))

    def _note_failed_process(self, process) -> None:
        self._failed.append(process)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator) -> Process:
        return Process(self, generator)

    def run(self) -> None:
        heap = self._heap
        while heap:
            when, _priority, _seq, event = heapq.heappop(heap)
            self.now = when
            self.processed_events += 1
            event._run_callbacks()


def _ticker(kernel, steps: int):
    for _ in range(steps):
        yield kernel.timeout(1.0)


def _drive(make_kernel) -> float:
    """Run the workload once; returns events processed per second."""
    kernel = make_kernel()
    for _ in range(PROCESSES):
        kernel.process(_ticker(kernel, STEPS))
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    assert kernel.processed_events >= PROCESSES * STEPS
    return kernel.processed_events / elapsed


def _best_rate(make_kernel) -> float:
    return max(_drive(make_kernel) for _ in range(BEST_OF))


def test_kernel_dispatch_overhead(benchmark):
    inline_rate = _best_rate(InlineLoop)
    kernel_rate = run_measured(benchmark, lambda: _best_rate(Simulator))

    ratio = kernel_rate / inline_rate
    print()
    print(f"inline loop : {inline_rate:12,.0f} events/s")
    print(f"Simulator   : {kernel_rate:12,.0f} events/s  "
          f"({100 * ratio:.1f}% of inline)")

    # Sanity floor so a pathological slowdown cannot hide behind a slow
    # baseline measurement.
    assert kernel_rate > 50_000, f"kernel rate collapsed: {kernel_rate:,.0f}/s"
    assert ratio >= 1.0 - MAX_REGRESSION, (
        f"kernel dispatch regressed {100 * (1 - ratio):.1f}% vs the inline "
        f"loop (budget {100 * MAX_REGRESSION:.0f}%)")


def _due_chain(kernel, index: int, steps: int):
    delay = DUE_STEP_S * (1 + index / DUE_PROCESSES)
    for _ in range(steps):
        yield kernel.timeout(delay)


def _due_chain_us_per_event(make_kernel) -> float:
    """One run of the due chain: host µs per kernel event."""
    kernel = make_kernel()
    for index in range(DUE_PROCESSES):
        kernel.process(_due_chain(kernel, index,
                                  DUE_EVENTS // DUE_PROCESSES))
    start = time.perf_counter()
    running = kernel.run()
    if running is not None:  # the wall-clock kernel's run is a coroutine
        asyncio.run(running)
    elapsed = time.perf_counter() - start
    assert kernel.processed_events >= DUE_EVENTS
    return elapsed / kernel.processed_events * 1e6


def test_asyncio_drain_costs_what_the_simulator_does(benchmark):
    """A host-bound chain of distinct deadlines: every head is already due
    by the wall when the kernel reaches it, so the wall-clock kernel never
    sleeps and its cost over the simulator's is pure drain overhead
    (quantum yields, wall reads, the due check)."""
    def measure() -> tuple[float, float]:
        # Interleaved, so a host that changes speed mid-test slows both.
        runs = [(_due_chain_us_per_event(Simulator),
                 _due_chain_us_per_event(AsyncioKernel))
                for _ in range(BEST_OF)]
        return min(run[0] for run in runs), min(run[1] for run in runs)

    simulated, wall_clock = run_measured(benchmark, measure)
    ratio = wall_clock / simulated
    print()
    print(f"due chain: Simulator {simulated:.3f} us/event, AsyncioKernel "
          f"{wall_clock:.3f} us/event ({ratio:.2f}x)")
    assert ratio <= MAX_ASYNCIO_RATIO, (
        f"the asyncio drain costs {ratio:.2f}x the simulator's per event "
        f"(budget {MAX_ASYNCIO_RATIO}x)")


def _churner(kernel, steps: int):
    for _ in range(steps):
        guard = kernel.timeout(GUARD_S)
        yield kernel.timeout(STEP_S)
        guard.cancel()


def _churn_once() -> tuple[float, float, int]:
    """One run: seconds per event in the window around step 200 and in
    the one ending at step 2,000, and the largest heap seen."""
    kernel = Simulator()
    stamps: list[float] = []
    peak = 0

    def clock():
        nonlocal peak
        for _ in range(STEPS + 1):
            stamps.append(time.perf_counter())
            peak = max(peak, len(kernel._heap))
            yield kernel.timeout(STEP_S)

    for _ in range(PROCESSES):
        kernel.process(_churner(kernel, STEPS))
    kernel.process(clock())
    kernel.run()
    events = (PROCESSES + 1) * 2 * WINDOW  # one wake a step each
    early = stamps[200 + WINDOW] - stamps[200 - WINDOW]
    late = stamps[STEPS] - stamps[STEPS - 2 * WINDOW]
    return early / events, late / events, peak


def test_guard_churn_cost_does_not_grow_with_age(benchmark):
    runs = run_measured(benchmark,
                        lambda: [_churn_once() for _ in range(BEST_OF)])
    early = min(run[0] for run in runs)
    late = min(run[1] for run in runs)
    peak = max(run[2] for run in runs)
    # Live at any moment: each churner's wait and guard, and the clock.
    live = 2 * PROCESSES + 1
    print()
    print(f"guard churn: {early * 1e6:.3f} us/event at step 200, "
          f"{late * 1e6:.3f} at step {STEPS:,}; heap peak {peak} "
          f"({live} live)")
    assert peak <= 2 * live + _COMPACT_FLOOR, (
        f"heap reached {peak} entries with at most {live} live")
    assert late <= early * (1 + MAX_AGEING), (
        f"an event at step {STEPS:,} costs {100 * (late / early - 1):.1f}% "
        f"more than at step 200 (budget {100 * MAX_AGEING:.0f}%)")


class _CountingHeapq:
    """``heapq`` as :mod:`repro.exec.core` calls it, counting pushes and
    pops (a compaction's ``heapify`` is neither)."""

    heapify = staticmethod(heapq.heapify)

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item) -> None:
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def _churn_counts(monkeypatch) -> list[tuple[int, int, int, int]]:
    """One guard-churn run; at each clock step the heap pushes and pops
    so far, and the entries on the heap: all, and the live ones."""
    counting = _CountingHeapq()
    monkeypatch.setattr(core, "heapq", counting)
    kernel = Simulator()
    samples: list[tuple[int, int, int, int]] = []

    def clock():
        for _ in range(STEPS + 1):
            heap = len(kernel._heap)
            samples.append((counting.pushes, counting.pops, heap,
                            heap - kernel._cancelled))
            yield kernel.timeout(STEP_S)

    # One step past the last sample: a churner's final wake pushes
    # nothing, and the last window must not count it.
    for _ in range(PROCESSES):
        kernel.process(_churner(kernel, STEPS + 1))
    kernel.process(clock())
    kernel.run()
    return samples


def test_guard_churn_work_does_not_grow_with_age(benchmark, monkeypatch):
    """The timing case's deterministic twin: the same windows, counted."""
    samples = run_measured(benchmark, lambda: _churn_counts(monkeypatch))

    def per_window(first: int, last: int) -> tuple[int, int, int]:
        """Pushes and pops in the window, and its largest heap."""
        return (samples[last][0] - samples[first][0],
                samples[last][1] - samples[first][1],
                max(heap for _, _, heap, _ in samples[first:last + 1]))

    early = per_window(200 - WINDOW, 200 + WINDOW)
    late = per_window(STEPS - 2 * WINDOW, STEPS)
    print()
    print(f"guard churn: (pushes, pops, heap peak) {early} in the "
          f"{2 * WINDOW} steps around step 200, {late} before step "
          f"{STEPS:,}")
    assert early == late
    # A churner step pushes its guard and its wait, the clock its tick;
    # only the waits and ticks pop.
    assert early[:2] == (2 * WINDOW * (2 * PROCESSES + 1),
                         2 * WINDOW * (PROCESSES + 1))
    # Each churner's wait and guard; the clock's tick is being minted.
    assert {live for *_, live in samples[1:]} == {2 * PROCESSES}
