"""Backend-neutral event machinery and generator processes.

Every execution backend (the virtual-time :class:`repro.sim.engine.Simulator`,
the wall-clock :class:`repro.exec.aio.AsyncioKernel`) drives the same
three building blocks:

* :class:`SimEvent` — a one-shot event that can succeed (with a value)
  or fail (with an exception), and on which processes can wait;
* :class:`Process` — a Python generator driven by the kernel; each
  ``yield``-ed event suspends the process until the event triggers;
* :class:`KernelBase` — the factory surface, event heap and drain loop
  of all backends.

What a backend adds is *when* a scheduled event's callbacks run: a
virtual-time kernel pops a heap and jumps the clock, a real-time kernel
sleeps.  Both order events scheduled for the same deadline by
``(priority, insertion order)``, so process interleaving is identical
across backends given identical event timings.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Optional, Sequence, TypeVar

from repro.common.errors import SimulationError

# Scheduling priorities: lower runs first among events at the same time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: cancelled heap entries a kernel tolerates however few are live:
#: below this a rebuild would cost more than the entries it frees.
_COMPACT_FLOOR = 64

_PENDING = "pending"
_TRIGGERED = "triggered"  # scheduled on the heap, callbacks not yet run
_PROCESSED = "processed"  # callbacks have run

#: the generator type driven by :class:`Process`.
ProcessGenerator = Generator["SimEvent", Any, Any]
_Exc = TypeVar("_Exc", bound=BaseException)


def caught(exc: _Exc) -> _Exc:
    """``exc`` without the traceback entry of the frame that caught it.

    For a handler that *stores* the exception on the object its own
    frame holds (a process its failure, a wrapper its error): with that
    entry left in, object -> exception -> traceback -> frame -> object
    is a cycle only the collector could free.
    """
    assert exc.__traceback__ is not None
    return exc.with_traceback(exc.__traceback__.tb_next)


class SimEvent:
    """A one-shot event.

    Callbacks registered via :meth:`add_callback` run when the kernel
    processes the event.  A process that ``yield``-s an event is resumed
    with :attr:`value` (or has the failure exception thrown into it).
    """

    # Slotted: a run mints one record per kernel event, and nothing
    # hangs ad-hoc attributes on them.
    __slots__ = ("sim", "name", "value", "failure", "_state", "_callbacks")

    #: a cancelled event's callbacks never run; kernels drop its heap
    #: entry when they reach it or compact it away.  Only a
    #: :class:`Timeout` can be cancelled (its slot shadows this constant).
    cancelled = False

    def __init__(self, sim: "KernelBase", name: str = ""):
        self.sim = sim
        self.name = name
        self.value: Any = None
        self.failure: Optional[BaseException] = None
        self._state = _PENDING
        self._callbacks: list[Callable[["SimEvent"], None]] = []

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self.triggered and self.failure is None

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "SimEvent":
        """Mark the event successful and schedule its callbacks now."""
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self.value = value
        self._state = _TRIGGERED
        sim = self.sim
        sim._schedule_at(self, sim.now, priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "SimEvent":
        """Mark the event failed; waiters get ``exception`` thrown into them."""
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self.failure = exception
        self._state = _TRIGGERED
        sim = self.sim
        sim._schedule_at(self, sim.now, priority)
        return self

    def grant(self, value: Any = None) -> "SimEvent":
        """Succeed *in place*: the event is processed here and now,
        without a trip through the kernel's heap.

        For a wait that is already satisfied when it is asked for (a
        free :class:`~repro.sim.resources.Resource` slot): the process
        that yields the event carries straight on, and the kernel
        dispatches one event fewer.  Callbacks already registered run
        synchronously.  Only for waits where skipping the hop cannot
        reorder the model — see ``tests/test_sim_resources.py``.
        """
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self.value = value
        # A process resumed here runs inside another's dispatch, never as
        # its sole callback: it may not wait in place (KernelBase.elapse).
        sim = self.sim
        dispatching, sim._dispatching = sim._dispatching, ()
        try:
            self._run_callbacks()
        finally:
            sim._dispatching = dispatching
        return self

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).
        """
        if self._state == _PROCESSED:
            callback(self)
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Unregister a callback previously added (no-op if absent)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {self._state}>"


class Timeout(SimEvent):
    """An event that succeeds after a fixed delay (virtual or wall-clock)."""

    __slots__ = ("delay", "cancelled")

    def __init__(self, sim: "KernelBase", delay: float, value: Any = None,
                 priority: int = PRIORITY_NORMAL, *,
                 at: Optional[float] = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Timeouts are the single most-minted event kind (one per CPU
        # slice): the record is filled in here, born triggered, without
        # the ``super().__init__`` hop, under a constant name.  The
        # delay is still on the instance for debugging.
        self.sim = sim
        self.name = "timeout"
        self.value = value
        self.failure = None
        self._state = _TRIGGERED
        self._callbacks = []
        self.delay = delay
        self.cancelled = False
        # ``at``: the deadline itself (:meth:`KernelBase.timeout_at`).
        sim._schedule_at(self, sim.now + delay if at is None else at,
                         priority)

    def cancel(self) -> None:
        """Withdraw the timeout before it occurs: callbacks never run.

        The heap entry is discarded when the kernel reaches it or
        compacts its heap (:meth:`KernelBase._compact`), so a guard
        withdrawn early (the DQP's, when its phase ends) neither keeps the
        kernel alive nor holds a heap entry for the rest of ``delay``.
        Cancelling twice is a no-op.
        """
        if self._state == _PROCESSED:
            raise SimulationError(f"cannot cancel elapsed timeout {self!r}")
        if self.cancelled:
            return
        self.cancelled = True
        # Inert from here on: the callbacks can never run, so nothing
        # may stay pinned by them, and the heap entry awaiting its
        # discard must not tie the kernel to itself through ``sim``.
        self._callbacks.clear()
        self.sim._note_cancelled()
        self.sim = None  # type: ignore[assignment]


class AnyOf(SimEvent):
    """Succeeds as soon as *any* child event succeeds.

    The value is a dict mapping each already-triggered child to its value.
    A failing child fails the composite.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "KernelBase", events: Iterable[SimEvent]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf needs at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, child: SimEvent) -> None:
        if self.triggered:
            return
        if child.failure is not None:
            self.fail(child.failure)
        else:
            self.succeed(self._collect())

    def _collect(self) -> dict[SimEvent, Any]:
        # `processed` (callbacks ran), not `triggered`: a Timeout is born
        # scheduled/triggered but has not *occurred* until processed.
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}


class AllOf(SimEvent):
    """Succeeds when *all* child events have succeeded.

    The value is a dict mapping every child to its value.  The first
    failing child fails the composite.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "KernelBase", events: Iterable[SimEvent]):
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            raise SimulationError("AllOf needs at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, child: SimEvent) -> None:
        if self.triggered:
            return
        if child.failure is not None:
            self.fail(child.failure)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev.value for ev in self.events})


class Process(SimEvent):
    """A generator driven by the kernel.

    The process is itself an event: it succeeds with the generator's return
    value when the generator ends, or fails with the exception that escaped
    it.  Other processes can therefore ``yield`` a process to join it.
    """

    __slots__ = ("generator", "defused", "_step")

    def __init__(self, sim: "KernelBase", generator: ProcessGenerator,
                 name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: set to True by anyone who handles this process's failure; an
        #: un-defused failure is re-raised by the kernel's ``run``.
        self.defused = False
        #: the one bound :meth:`_resume` this process registers on every
        #: event it waits for (``self._resume`` mints a new bound method
        #: per access, once per wait on the hot path).  A reference to
        #: itself: :meth:`_resume` drops it with the generator.
        self._step: Callable[[SimEvent], None] = self._resume
        # Bootstrap: resume the generator at time `now` via an urgent event.
        start = SimEvent(sim, name=f"start:{self.name}")
        start.succeed(priority=PRIORITY_URGENT)
        start.add_callback(self._step)

    def _resume(self, event: SimEvent) -> None:
        while True:
            try:
                if event.failure is not None:
                    if isinstance(event, Process):
                        event.defused = True
                    target = self.generator.throw(event.failure)
                else:
                    target = self.generator.send(event.value)
            except StopIteration as stop:
                if self._callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody waits: the heap hop would pop with no
                    # callback to run, so the process ends here.  A later
                    # joiner carries on in its own dispatch.
                    self.value = stop.value
                    self._state = _PROCESSED
                break
            except BaseException as exc:  # noqa: BLE001 - forward real failures
                self.fail(caught(exc))
                self.sim._note_failed_process(self)
                break
            if not isinstance(target, SimEvent) or target.sim is not self.sim:
                # A broken yield protocol is a failure like any other.
                self.generator.close()
                self.fail(SimulationError(
                    f"process {self.name!r} yielded {target!r}, " + (
                        "expected a SimEvent"
                        if not isinstance(target, SimEvent)
                        # It let go of its kernel when it was cancelled.
                        else "a cancelled timeout, which never occurs"
                        if target.cancelled
                        else "an event of a different kernel")))
                self.sim._note_failed_process(self)
                break
            if target._state == _PROCESSED:
                # Already happened: carry on in this dispatch (a loop,
                # not recursion through add_callback's immediate call).
                event = target
                continue
            # Not processed yet (checked just above), so this is all
            # ``add_callback`` would do.
            target._callbacks.append(self._step)
            return
        # The generator is over: let go of it and of the bound method of
        # ourselves, so a finished process is freed by reference count —
        # its frames, and every run they hold, with it.
        self.generator = self._step = None  # type: ignore[assignment]


class KernelBase:
    """Event factories, the event heap, its drain and failure accounting
    shared by every backend.

    :meth:`_schedule_at` pushes ``(deadline, priority, sequence, event)``
    onto the heap, so equal deadlines pop by ``(priority, insertion
    order)``.  A backend supplies the ``run`` that decides how far each
    :meth:`_drain` may go: the simulator jumps its clock, the wall-clock
    kernel sleeps until the wall catches up.
    """

    def __init__(self) -> None:
        #: current time in seconds (virtual, or the wall-clock backend's
        #: dispatch clock — see :mod:`repro.exec.aio`).
        self.now = 0.0
        self._failed_processes: list[Process] = []
        self._heap: list[tuple[float, int, int, SimEvent]] = []
        self._sequence = 0
        self._processed_events = 0
        #: cancelled entries still in the heap (each discard counts down).
        self._cancelled = 0
        #: set to end the drain after the event being dispatched.
        self._stop_requested = False
        #: waits a process took in place (:meth:`elapse`): each one is an
        #: event the kernel did not dispatch.
        self.waits_in_place = 0
        #: the running drain's bound, the ``waits_in_place`` it may reach,
        #: and the callbacks of the event it is dispatching (all restored
        #: when a drain ends; :meth:`SimEvent.grant` blanks the last).
        self._bound = -math.inf
        self._cap = 0.0
        self._dispatching: Sequence[Callable[[SimEvent], None]] = ()

    @property
    def wall_now(self) -> float:
        """The clock external arrivals are stamped on: ``now`` in virtual
        time; the wall-clock backend overrides it with the wall."""
        return self.now

    @property
    def processed_events(self) -> int:
        """Total number of events processed since construction."""
        return self._processed_events

    # -- event factories ---------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """A fresh pending event."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event that succeeds at kernel time ``when``.

        For a deadline computed ahead of time: ``timeout(when - now)``
        would fall due at ``now + (when - now)``, which floating point
        need not round back to ``when``.
        """
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule in the past (at {when}, now {self.now})")
        return Timeout(self, when - self.now, value=value, at=when)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start driving ``generator`` as a process (begins at current time)."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        """Composite event: first child to succeed."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        """Composite event: all children succeeded."""
        return AllOf(self, events)

    # -- the heap ------------------------------------------------------------
    def _schedule_at(self, event: SimEvent, when: float,
                     priority: int) -> None:
        """Put ``event`` on the heap, due at ``when`` (never before
        ``now``: the callers check)."""
        self._sequence += 1
        heapq.heappush(self._heap, (when, priority, self._sequence, event))

    def _drain(self, bound: float, limit: float) -> int:
        """Dispatch the events due by ``bound``, at most ``limit`` of them
        and none after one during which a stop was requested, and let the
        callbacks take at most ``limit - 1`` waits in place
        (:meth:`elapse`); return how many of both.  The one dispatch loop
        of both backends, locals pinned and
        :meth:`SimEvent._run_callbacks` inline.  Ends with a
        :meth:`_compact`: the heap handed back holds at most
        ``2 * live + _COMPACT_FLOOR`` entries.
        """
        heap = self._heap
        pop = heapq.heappop
        now = self.now
        # Both floats: compared on every event, an int against a float
        # (say, an infinite limit) takes the interpreter's slow path.
        processed, limit = 0.0, float(limit)
        waited = self.waits_in_place
        outer = self._bound, self._cap, self._dispatching
        self._bound, self._cap = bound, waited + limit - 1.0
        try:
            while heap and processed < limit:
                when, priority, sequence, event = pop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                if when > bound:
                    heapq.heappush(heap, (when, priority, sequence, event))
                    break
                # `now` is not re-read after a callback: one that waited
                # in place left it at or before every deadline on the heap.
                if when > now:
                    self.now = now = when
                processed += 1.0
                event._state = _PROCESSED
                callbacks, event._callbacks = event._callbacks, []
                self._dispatching = callbacks
                for callback in callbacks:
                    callback(event)
                if self._stop_requested:
                    break
        finally:
            self._bound, self._cap, self._dispatching = outer
            self._processed_events += int(processed)
            self._compact()
        return int(processed) + self.waits_in_place - waited

    def elapse(self, delay: float) -> bool:
        """Let ``delay`` seconds pass *in place* if nothing can happen
        meanwhile: advance ``now`` and return True, or return False and
        leave the caller to ``yield timeout(delay)`` as usual.

        True only for the process a drain runs as the sole callback of
        the event it popped (never one :meth:`SimEvent.grant` resumes),
        with no stop requested, ``now + delay`` within the drain's bound,
        the drain's in-place allowance not spent, and every live heap
        entry strictly later.  The timeout it stands for would then be
        the very next event popped, to resume the same process alone, so
        skipping its push, pop and resumption changes no order — on
        either backend, since their drains differ only in the bound (the
        wall-clock kernel's last wall reading).
        """
        if not delay >= 0:
            raise SimulationError(f"cannot elapse {delay} seconds")
        if (len(self._dispatching) != 1 or self._stop_requested
                or self.waits_in_place >= self._cap):
            return False
        when = self.now + delay
        if when > self._bound:
            return False
        heap = self._heap
        while heap:
            head = heap[0]
            if head[0] > when:
                break
            if not head[3].cancelled:
                return False  # due by then, a tie included
            heapq.heappop(heap)
            self._cancelled -= 1
        self.now = when
        self.waits_in_place += 1
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        # A bound before every deadline: the drain only drops the
        # cancelled entries on top.
        self._drain(-math.inf, 1)
        return self._heap[0][0] if self._heap else math.inf

    # -- cancelled entries -------------------------------------------------
    def _note_cancelled(self) -> None:
        """A scheduled :class:`Timeout` was cancelled: its entry is dead."""
        self._cancelled += 1
        self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from its live entries once cancelled ones
        outnumber them and :data:`_COMPACT_FLOOR`.  Run on every cancel
        and wherever a drain hands control back, so the heap is seen with
        at most ``2 * live + _COMPACT_FLOOR`` entries.  Order-neutral:
        the keys are unique, so what pops next depends on the live set,
        not the layout; in place, so a drain loop's pinned list stays it.
        """
        heap = self._heap
        if (self._cancelled > _COMPACT_FLOOR
                and 2 * self._cancelled > len(heap)):
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    # -- failure accounting ------------------------------------------------
    def _note_failed_process(self, process: Process) -> None:
        # A process born defused has an owner who reads its failure (see
        # ``spawn_main``); listing it would pin the failure, its
        # traceback and every frame's run for the life of the kernel.
        if not process.defused:
            self._failed_processes.append(process)

    def _raise_unhandled_failures(self) -> None:
        for process in self._failed_processes:
            if not process.defused and process.failure is not None:
                raise SimulationError(
                    f"process {process.name!r} died: {process.failure!r}"
                ) from process.failure

    def __repr__(self) -> str:
        return f"{type(self).__name__}(now={self.now:g}, pending={len(self._heap)})"
